"""bc_inverse, outer_prescribed, inverse_along, bott_duffin and moore_penrose against the exact
rational oracle of ``exact.py``, on small integer instances: every existence decision the
rounding cannot blur, every inverse, and the failed indices of a sequence report. And the
derivative of a (b, c)-inverse curve against its exact value on a rational curve."""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv.calculus import CayleyQuadratic, MatrixCurve
from geninv.errors import ExistenceError

import exact

TOL = gi.DEFAULT_TOL


@st.composite
def integer_matrices(draw, n: int, r: int | None = None):
    """An n x n integer matrix of rank at most r (drawn in 1..n if not given): the product of
    n x r and r x n factors with entries in [-3, 3]."""
    r = r or draw(st.integers(1, n))
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


def _agrees(construct, a, want) -> None:
    """construct() refuses where the exact inverse ``want`` is None, exists wherever its exact
    1 / kappa is at least 10 rank_rel_tol, and matches it within 1e-8 relative where it exists."""
    try:
        got = construct().inverse
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


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_bc_inverse_and_moore_penrose_match_the_exact_oracle(data, n):
    a, b, c = (data.draw(integer_matrices(n)).astype(float) for _ in range(3))
    _agrees(lambda: gi.bc_inverse(a, b, c), a, exact.bc_inverse(a, b, c))
    pinv = exact.moore_penrose(a).astype(float)
    assert _relative_error(gi.moore_penrose(a).inverse, pinv) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), count=st.integers(1, 6))
def test_sequence_report_fails_exactly_the_indices_whose_core_is_singular(data, n, count):
    # every index shares the limit's b and c, so a drawn a_n of low rank often leaves its core
    # G a_n F exactly singular; those indices, and no others, are the failed ones
    r = data.draw(st.integers(1, n))  # b and c of one rank, so G a F is mostly square
    a, b, c = (data.draw(integer_matrices(n, rank)).astype(float) for rank in (n, r, r))
    ops = [data.draw(integer_matrices(n)).astype(float) for _ in range(count)]
    wants = [exact.bc_inverse(m, b, c) for m in (a, *ops)]
    assume(wants[0] is not None and any(v != 0 for v in wants[0].ravel()))
    assume(all(_inverse_condition(m, w.astype(float)) >= 10 * TOL.rank_rel_tol
               for m, w in zip((a, *ops), wants) if w is not None))
    report = gi.sequence_report((a, b, c), [(m, b, c) for m in ops], TOL)
    assert report.failed_indices == tuple(k for k, w in enumerate(wants) if k and w is None)


def _drawn(data, rows: int, cols: int) -> np.ndarray:
    """A drawn rows x cols integer matrix with entries in [-2, 2], exact."""
    entries = data.draw(st.lists(st.integers(-2, 2), min_size=rows * cols, max_size=rows * cols))
    return exact.exact(np.array(entries, dtype=int).reshape(rows, cols))


def _idempotent(f, g):
    """The rational idempotent F (G F)^-1 G, range R(F) and null space N(G), or None where G F
    is singular."""
    core_inverse = exact.inverse(g @ f)
    return None if core_inverse is None else f @ core_inverse @ g


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_outer_along_and_bott_duffin_match_the_exact_oracle(data, n):
    # the paper's characterizations: A^(2)_{R(b),N(c)} is the (b, c)-inverse, the inverse along
    # d is the (d, d)-inverse, and the Bott-Duffin (p, q)-inverse is A^(2)_{R(p),N(q)}
    a, b, c = (data.draw(integer_matrices(n)).astype(float) for _ in range(3))
    want = exact.bc_inverse(a, b, c)
    _agrees(lambda: gi.outer_prescribed(a, gi.column_space(b), gi.null_space(c)), a, want)
    _agrees(lambda: gi.inverse_along(a, b), a, exact.bc_inverse(a, b, b))
    # oblique idempotents with R(p) = R(b) and N(q) = N(c), from drawn integer factors (the
    # orthogonal projector's where the drawn core is singular)
    f, g = exact.independent_columns(b), exact.independent_rows(c)
    left, right = (_drawn(data, rows, cols) for rows, cols in ((f.shape[1], n), (n, len(g))))
    p, q = _idempotent(f, left), _idempotent(right, g)
    p, q = (_idempotent(f, f.T) if p is None else p), (_idempotent(g.T, g) if q is None else q)
    p, q = (gi.ObliqueProjector.from_matrix(m.astype(float)) for m in (p, q))
    _agrees(lambda: gi.bott_duffin(a, p, q), a, want)


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


# a rational (b, c) curve: a(t) = A0 + t A1 + t^2 A2, b(t) = F(t) P and c(t) = Q G(t) with
# F(t) = F0 + t F1 and G(t) = G0 + t G1 of full rank 2, so R(b) = R(F) and c's row space is G's
A0 = np.array([[2, 1, 0, 1], [0, 3, 1, 0], [1, 0, 2, 1], [0, 1, 1, 3]])
A1 = np.array([[1, 0, -1, 0], [0, 1, 0, 2], [-1, 0, 1, 0], [2, 0, 0, -1]])
A2 = np.array([[0, 1, 0, 0], [1, 0, 0, -1], [0, 0, 1, 0], [0, 2, 0, 1]])
F0, F1 = np.array([[1, 0], [0, 1], [1, 1], [0, 2]]), np.array([[0, 1], [1, 0], [0, -1], [1, 0]])
G0, G1 = np.array([[1, 0, 0, 1], [0, 1, 1, 0]]), np.array([[0, 1, 0, 0], [-1, 0, 0, 1]])
P, Q = np.array([[1, 0, 1, 0], [0, 1, 0, 1]]), np.array([[1, 0], [0, 1], [1, 0], [2, 1]])


def _exact_bc_curve(t: Fraction):
    """X(t) = F (G A F)^-1 G and its exact derivative at t, by the product rule and
    (K^-1)' = -K^-1 K' K^-1 for K = G A F."""
    e = exact.exact
    f, g = e(F0) + t * e(F1), e(G0) + t * e(G1)
    a, a_prime = e(A0) + t * e(A1) + t * t * e(A2), e(A1) + 2 * t * e(A2)
    k_inv = exact.inverse(g @ a @ f)
    k_prime = e(G1) @ a @ f + g @ a_prime @ f + g @ a @ e(F1)
    x_prime = (e(F1) @ k_inv @ g - f @ k_inv @ k_prime @ k_inv @ g + f @ k_inv @ e(G1))
    return f @ k_inv @ g, x_prime, a


def test_formula_derivative_matches_the_exact_derivative_of_a_rational_curve():
    t0 = Fraction(1, 4)  # a binary fraction: the library's t0 is exactly the oracle's
    x, x_prime, a = _exact_bc_curve(t0)
    # the oracle's own check: exact central differences of X are within O(delta^2) of X'
    delta = Fraction(1, 10**4)
    central = (_exact_bc_curve(t0 + delta)[0] - _exact_bc_curve(t0 - delta)[0]) / (2 * delta)
    assert np.abs((central - x_prime).astype(float)).max() < 1e-6
    curves = [MatrixCurve(CayleyQuadratic(*(m.astype(float) for m in ms))) for ms in (
        (A0, A1, A2), (F0 @ P, F1 @ P), (Q @ G0, Q @ G1))]
    report = gi.finite_difference_check(curves, float(t0), TOL, "bc")
    # a' is central-differenced exactly on a quadratic; (P_T)' and (P_S)' carry a truncation
    # error C h^2 at the finest step h, C read off the sweep's coarsest step (where its error
    # is C h^2 too), and a rounding error eps / h times the sandwich's size ||x|| (1 + ||a x||)
    x, a = x.astype(float), a.astype(float)
    coarse, coarse_error = report.fd_errors[0]
    h = TOL.fd_step_sweep[-1]
    truncation = coarse_error / coarse**2 * h**2
    rounding = np.finfo(float).eps / h * np.linalg.norm(x, 2) * (1 + np.linalg.norm(a @ x, 2))
    error = np.linalg.norm(report.formula_derivative - x_prime.astype(float), 2)
    assert error <= truncation + rounding
