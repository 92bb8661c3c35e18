"""A stacked construction gives, slice for slice, exactly what the single call gives.

bc_inverse_stack, moore_penrose_stack and outer_prescribed_stack build every (layout,
rank) group of their problems in one batched construction. Each certificate field must
be bitwise the one the single call returns, and each refused slice must carry the single
call's error (type, message, clause and margin), whatever else shares its stack. The
same holds for finite_difference_check, whose sweep is one such stack: its report must
be bitwise the sweep of single calls.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import families
from geninv.calculus import MatrixCurve, _fit_order, _sandwich
from geninv.inverses import bc_inverse_stack, moore_penrose_stack, outer_prescribed_stack

from conftest import complement_rows, outer_instance_at_angles

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
    # _memo holds the lazily read numbers: compare the numbers it gives
    names = [f.name for f in dataclasses.fields(gi.InverseCertificate) if f.name != "_memo"]
    for name in names + ["operator_norm", "restricted_condition", "complement_margin"]:
        got, want = getattr(stacked, name), getattr(single, name)
        assert _bits(got) == _bits(want), name


@pytest.mark.parametrize("complex_", [False, True])
def test_certificates_pickle_and_copy_before_and_after_the_first_read(complex_):
    # the lazily read numbers live in a plain dict: a pickled or copied certificate reads them
    # bitwise as the original does, whether taken before or after the round trip
    a, t, s = outer_instance_at_angles(np.random.default_rng(17), 6, 6, 3, complex_)
    h = complement_rows(s)
    p = gi.ObliqueProjector.from_matrix(t.basis @ t.basis.conj().T)
    q = gi.ObliqueProjector.from_matrix(h.conj().T @ h)
    builds = [lambda: gi.outer_prescribed(a, t, s), lambda: gi.inverse_along(a, a),
              lambda: gi.bott_duffin(a, p, q), lambda: gi.moore_penrose(a)]
    for build in builds:
        read = build()
        assert_same_outcome(read, read)  # reads all three
        for cert in (build(), read):
            for twin in (pickle.loads(pickle.dumps(cert)), copy.copy(cert), copy.deepcopy(cert)):
                assert_same_outcome(twin, read)
                assert_same_outcome(cert, twin)


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


def outer_problem(rng, m: int, n: int, kind: str, complex_: bool, r: int, fortran: bool):
    """(a, T, S) of an m x n outer problem with dim T = r that exists or fails the named clause;
    ``fortran`` stores the bases column-major."""
    a, t, s = outer_instance_at_angles(rng, m, n, r, complex_)
    if kind == "not_injective":  # a kills T's first direction
        w = t.basis[:, :1]
        a = a - (a @ w) @ w.conj().T
    elif kind == "not_complementary" and r < m:  # S holds the direction a T e_1
        u = np.hstack([a @ t.basis[:, :1], families.random_matrix(rng, m, m - r - 1, complex_)])
        s = gi.Subspace(m, np.linalg.qr(u)[0])
    elif kind == "not_complementary":  # dim T + dim S != m
        s = families.random_subspace(rng, m, 1, complex_)
    elif kind == "trivial_t":
        t = gi.trivial_subspace(n)
        s = families.random_subspace(rng, m, int(rng.integers(0, m + 1)), complex_)
    if fortran:
        t, s = (gi.Subspace(x.ambient_dim, np.asfortranarray(x.basis)) for x in (t, s))
    return a, t, s


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.booleans(),
    st.lists(
        st.tuples(
            st.sampled_from(["exists", "not_injective", "not_complementary", "trivial_t"]),
            st.integers(1, 3), st.booleans(), st.booleans(),
        ),
        min_size=1,
        max_size=10,
    ),
    st.integers(0, 2**32 - 1),
)
def test_outer_prescribed_stack_is_the_single_calls(m, n, complex_, slices, seed):
    # slices of one m x n shape share groups by field, dim T, dim S and basis memory order;
    # refused slices (each existence clause) must carry the single call's error
    rng = np.random.default_rng(seed)
    problems = [
        outer_problem(rng, m, n, kind, complex_ != flip, min(r, m, n), fortran)
        for kind, r, flip, fortran in slices
    ]
    stacked = outer_prescribed_stack(problems)
    assert len(stacked) == len(problems)
    for problem, result in zip(problems, stacked):
        assert_same_outcome(result, _outcome(gi.outer_prescribed, *problem))


def _reference_sweep(curves, t0, tol, kind):
    """finite_difference_check with each sweep point built by its own single construction
    call and each error by its own spectral_norm, in sweep order."""

    def certificate(t, base=None):
        values = [curve(t) for curve in curves]
        try:
            if kind == "bc":
                cert = gi.bc_inverse(*values, tol)
            elif kind == "mp":
                cert = gi.moore_penrose(*values, tol)
            else:
                a, p, q = values
                cert = gi.outer_prescribed(a, gi.column_space(p, tol), gi.column_space(q, tol), tol)
        except gi.CertificateError:
            raise
        except gi.ExistenceError as exc:
            raise gi.ExistenceError(f"curve leaves invertible set at t={t}: {exc}",
                                    clause="curve leaves invertible set", margin=exc.margin)
        here, there = ((c.prescribed_range.dim, c.prescribed_nullspace.dim)
                       for c in (cert, base or cert))
        if here != there:
            raise gi.ExistenceError(
                f"curve leaves invertible set at t={t}: prescribed range and null space "
                f"have dimensions {here} there against {there} at t0={t0}",
                clause="curve leaves invertible set")
        return cert

    base = certificate(t0)
    sweep = [(h, certificate(t0 + h, base), certificate(t0 - h, base)) for h in tol.fd_step_sweep]
    h_ref, plus, minus = sweep[-1]

    def prime(read):
        return (read(plus) - read(minus)) / (2.0 * h_ref)

    x, a = base.inverse, base.operator
    deriv = _sandwich(x, a, x, a, -prime(lambda c: c.prescribed_nullspace.projector()),
                      prime(lambda c: c.prescribed_range.projector()),
                      prime(lambda c: c.operator))
    errors = [gi.spectral_norm((fwd.inverse - back.inverse) / (2.0 * h) - deriv)
              for h, fwd, back in sweep]
    if max(errors) <= tol.residual_tol * max(1.0, base.inverse_norm):
        order = "exact"
    else:
        order = _fit_order(tol.fd_step_sweep, errors)
    return gi.DerivativeReport(t0, deriv, tuple(zip(tol.fd_step_sweep, errors)), order)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["bc", "mp", "oip"]),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 8),
    st.booleans(),
    st.sampled_from([
        gi.DEFAULT_TOL,
        gi.ToleranceConfig(residual_tol=1e-15),
        gi.ToleranceConfig(fd_step_sweep=(1e-1, 3e-2, 1e-2, 1e-3, 1e-4, 1e-6, 1e-7)),
    ]),
    st.integers(0, 2**32 - 1),
)
def test_finite_difference_check_is_the_single_call_sweep(kind, m, n, rank, complex_, tol, seed):
    # every point's certificate is one slice of a stacked construction; the report must be
    # bitwise the sweep of single calls, and a refused point must raise the same error
    rng = np.random.default_rng(seed)
    m = n if kind == "bc" else m
    r = min(rank, m, n)
    curves = {
        "bc": lambda: families.bc_curves(rng, n, r, complex_),
        "mp": lambda: [families.mp_curve(rng, m, n, r, complex_)],
        "oip": lambda: families.oip_curves(rng, m, n, r, complex_),
    }[kind]()
    got = _outcome(gi.finite_difference_check, curves, 0.0, tol, kind)
    want = _outcome(_reference_sweep, curves, 0.0, tol, kind)
    if isinstance(want, gi.ExistenceError):
        assert_same_outcome(got, want)
        return
    for field in dataclasses.fields(gi.DerivativeReport):
        value, expected = getattr(got, field.name), getattr(want, field.name)
        if field.name == "fd_errors":
            value, expected = ([(_bits(h), _bits(e)) for h, e in v] for v in (value, expected))
        assert _bits(value) == _bits(expected), field.name


@pytest.mark.parametrize("roots", [(-0.01,), (-0.01, 0.001)])
def test_finite_difference_check_names_the_first_failing_point_in_sweep_order(roots):
    # a(t) vanishes at t0 - h1 (and at t0 + h2, later in the sweep): the error names t0 - h1
    curves = [
        MatrixCurve(lambda t: np.array([[np.prod([t - root for root in roots])]]), label="a"),
        MatrixCurve(lambda t: np.eye(1), label="b"),
        MatrixCurve(lambda t: np.eye(1), label="c"),
    ]
    with pytest.raises(gi.ExistenceError) as info:
        gi.finite_difference_check(curves, 0.0, kind="bc")
    assert str(info.value).startswith("curve leaves invertible set at t=-0.01: ")
    assert str(info.value).endswith("restriction not injective")
    assert info.value.clause == "curve leaves invertible set"


@pytest.mark.parametrize("complex_", [False, True])
def test_outer_prescribed_stack_of_column_major_bases_matches_the_single_calls(complex_):
    # a column-major basis is stacked in its own memory order, as BLAS reads it alone
    rng = np.random.default_rng(9)
    problems = [outer_problem(rng, 20, 20, "exists", complex_, 10, k % 2 == 1) for k in range(4)]
    for problem, result in zip(problems, outer_prescribed_stack(problems)):
        assert_same_outcome(result, gi.outer_prescribed(*problem))
