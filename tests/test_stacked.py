"""A stacked construction gives, slice for slice, exactly what the single call gives.

bc_inverse_stack and moore_penrose_stack build every (layout, rank) group of their
problems in one batched construction. Each certificate field must be bitwise the one
the single call returns, and each refused slice must carry the single call's error
(type, message, clause and margin), whatever else shares its stack.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import families
from geninv.inverses import bc_inverse_stack, moore_penrose_stack

BC_KINDS = ("exists", "not_injective", "not_complementary", "zero")


def _bits(value):
    """A comparable form of a certificate field that tells every bit apart."""
    if isinstance(value, gi.Subspace):
        return value.ambient_dim, _bits(value.basis)
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, dict):
        return [(k, _bits(v)) for k, v in value.items()]
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def _outcome(call, *args):
    try:
        return call(*args)
    except gi.ExistenceError as exc:
        return exc


def assert_same_outcome(stacked, single):
    if isinstance(single, gi.ExistenceError):
        assert type(stacked) is type(single)
        assert str(stacked) == str(single)
        assert stacked.clause == single.clause
        assert _bits(stacked.margin) == _bits(single.margin)
        return
    assert isinstance(stacked, gi.InverseCertificate)
    for field in dataclasses.fields(gi.InverseCertificate):
        got, want = getattr(stacked, field.name), getattr(single, field.name)
        assert _bits(got) == _bits(want), field.name


def bc_problem(rng, n: int, kind: str, complex_: bool, r: int):
    """(a, b, c) of size n and rank r whose (b, c)-inverse exists, or fails the named clause."""
    if kind == "zero":
        a = families.random_matrix(rng, n, n, complex_)
        return a, 0 * a, 0 * a
    a, b, c = families.random_solvable_triple(rng, n, r, complex_)
    if kind == "not_injective":  # a kills the direction of b's first column, inside R(b)
        w = b[:, :1] / np.linalg.norm(b[:, :1])
        a = a - (a @ w) @ w.conj().T
    elif kind == "not_complementary" and r < n:  # N(c) meets a(R(b)) along a b e_1
        u = a @ b[:, :1]
        q, _ = np.linalg.qr(np.hstack([u, families.random_matrix(rng, n, n - 1, complex_)]))
        c = families.random_matrix(rng, n, r, complex_) @ q[:, 1 : r + 1].conj().T
    elif kind == "not_complementary":  # rank c < rank b: dim T + dim S != n
        c = families.random_rank_matrix(rng, n, n, r - 1, complex_)
    return a, b, c


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 8),
    st.booleans(),
    st.lists(
        st.tuples(st.sampled_from(BC_KINDS), st.integers(1, 3), st.booleans(), st.booleans()),
        min_size=1,
        max_size=10,
    ),
    st.integers(0, 2**32 - 1),
)
def test_bc_inverse_stack_is_the_single_calls(n, complex_, slices, seed):
    # one size and field per stack, ranks from 1-3, so slices share groups; a slice may
    # flip to the other field or to size n + 1 to start a group of its own
    rng = np.random.default_rng(seed)
    problems = [
        bc_problem(rng, n + grow, kind, complex_ != flip, min(r, n + grow))
        for kind, r, flip, grow in slices
    ]
    stacked = bc_inverse_stack(problems)
    assert len(stacked) == len(problems)
    for problem, result in zip(problems, stacked):
        assert_same_outcome(result, _outcome(gi.bc_inverse, *problem))


def test_bc_inverse_stack_refuses_each_clause_on_its_own_slice():
    rng = np.random.default_rng(5)
    kinds = ["exists", "not_injective", "exists", "not_complementary", "zero", "exists"]
    problems = [bc_problem(rng, 6, kind, False, 3) for kind in kinds]
    clauses = [
        None if isinstance(r, gi.InverseCertificate) else r.clause
        for r in bc_inverse_stack(problems)
    ]
    assert clauses == [
        None, "restriction not injective", None, "R(A*T) (+) S != Y", None, None
    ]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=10),
    st.sampled_from([gi.DEFAULT_TOL, gi.ToleranceConfig(residual_tol=1e-16)]),
    st.integers(0, 2**32 - 1),
)
def test_moore_penrose_stack_is_the_single_calls(m, n, slices, tol, seed):
    # ranks 0-3 of one m x n shape, real or complex, at scales 1e-3 to 1e3; the strict
    # tolerance refuses some certificates, and a refused slice must match too
    rng = np.random.default_rng(seed)
    matrices = [
        families.random_rank_matrix(rng, m, n, min(r, m, n), complex_)
        * 10.0 ** rng.integers(-3, 4)
        for r, complex_ in slices
    ]
    stacked = moore_penrose_stack(matrices, tol)
    assert len(stacked) == len(matrices)
    for a, result in zip(matrices, stacked):
        assert_same_outcome(result, _outcome(gi.moore_penrose, a, tol))


@pytest.mark.parametrize("complex_", [False, True])
def test_stack_of_column_major_operands_matches_the_single_calls(complex_):
    # a column-major operand is stacked in its own memory order, as BLAS reads it alone:
    # at this size a row-major copy changes the last bits of the products
    rng = np.random.default_rng(8)
    problems = [bc_problem(rng, 20, "exists", complex_, 10) for _ in range(4)]
    problems = [tuple(np.asfortranarray(m) for m in p) if k % 2 else p
                for k, p in enumerate(problems)]
    for problem, result in zip(problems, bc_inverse_stack(problems)):
        assert_same_outcome(result, gi.bc_inverse(*problem))
    matrices = [np.asfortranarray(p[0]) if k % 2 else p[0] for k, p in enumerate(problems)]
    for a, result in zip(matrices, moore_penrose_stack(matrices)):
        assert_same_outcome(result, gi.moore_penrose(a))
