"""bc_inverse and moore_penrose against the exact rational oracle of ``exact.py``, on small
integer instances: every existence decision the rounding cannot blur, and every inverse."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv.errors import ExistenceError

import exact

TOL = gi.DEFAULT_TOL


@st.composite
def integer_matrices(draw, n: int):
    """An n x n integer matrix of rank at most r (drawn in 1..n): the product of n x r and
    r x n factors with entries in [-3, 3]."""
    r = draw(st.integers(1, n))
    entries = st.integers(-3, 3)
    left, right = (np.array(draw(st.lists(entries, min_size=n * r, max_size=n * r)))
                   for _ in range(2))
    return left.reshape(n, r) @ right.reshape(r, n)


def _inverse_condition(a, x) -> float:
    """1 / kappa = 1 / (||a|| ||x||) of an exact inverse x, in floats (inf for x = 0)."""
    norm = np.linalg.norm(a, 2) * np.linalg.norm(x, 2)
    return 1.0 / norm if norm else np.inf


def _relative_error(got, want) -> float:
    scale = np.linalg.norm(want)
    return np.linalg.norm(got - want) / scale if scale else np.linalg.norm(got)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_bc_inverse_and_moore_penrose_match_the_exact_oracle(data, n):
    a, b, c = (data.draw(integer_matrices(n)).astype(float) for _ in range(3))
    want = exact.bc_inverse(a, b, c)
    try:
        got = gi.bc_inverse(a, b, c).inverse
    except ExistenceError:
        got = None
    if want is None:  # G A F is exactly singular or not square: the inverse does not exist
        assert got is None
    else:
        want = want.astype(float)
        if _inverse_condition(a, want) >= 10 * TOL.rank_rel_tol:
            assert got is not None
        if got is not None:
            assert _relative_error(got, want) <= 1e-8
    pinv = exact.moore_penrose(a).astype(float)
    assert _relative_error(gi.moore_penrose(a).inverse, pinv) <= 1e-8


def test_the_oracle_decides_rank_and_existence_exactly():
    b = np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert exact.rank(b) == 2
    assert exact.independent_columns(b).tolist() == [[1, 2], [2, 4], [1, 0]]
    assert exact.independent_rows(b).tolist() == [[1, 2, 3], [1, 0, 1]]
    assert exact.inverse(np.array([[2, 1], [4, 2]])) is None
    assert (exact.inverse(np.array([[2, 1], [1, 1]])) == [[1, -1], [-1, 2]]).all()
    # the (I, I)-inverse of an invertible a is its inverse; c = 0 makes G A F 0 x 2
    a, eye = np.array([[2, 1], [1, 1]]), np.eye(2, dtype=int)
    assert (exact.bc_inverse(a, eye, eye) == [[1, -1], [-1, 2]]).all()
    assert exact.bc_inverse(a, eye, np.zeros((2, 2), int)) is None
    # pinv of the rank-1 [[1, 2], [2, 4]] is a* / ||a||_F^2 = a / 25
    pinv = exact.moore_penrose(np.array([[1, 2], [2, 4]]))
    assert (pinv * 25 == [[1, 2], [2, 4]]).all()
