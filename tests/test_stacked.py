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
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import families
from geninv.calculus import MatrixCurve, _fit_order, _sandwich
from geninv.inverses import bc_inverse_stack, moore_penrose_stack, outer_prescribed_stack
from geninv.subspace import deviations

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


@pytest.mark.parametrize("complex_", [False, True])
def test_stack_of_rank_one_column_major_operands_matches_the_single_calls(complex_):
    # R(b) of a rank-1 b is the leading column of b's SVD: a view whose row stride the stack
    # keeps, so its gemv products round as the single call's; a compact copy rounded otherwise
    rng = np.random.default_rng(42)
    a, b, c = families.random_solvable_triple(rng, 6, 1, complex_)
    problems = [tuple(np.asfortranarray(m) for m in p)
                for p in [(a, b, c), *families.additive_family(a, b, c, 8, rng)]]
    for problem, result in zip(problems, bc_inverse_stack(problems)):
        assert_same_outcome(result, gi.bc_inverse(*problem))


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
    deriv = _sandwich(x, a, -prime(lambda c: c.prescribed_nullspace.projector()),
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


@pytest.mark.parametrize("complex_", [False, True])
def test_bc_inverse_stack_of_shared_operands_is_the_single_calls(complex_):
    # each distinct b or c object is factored once: an additive family shares the limit's b
    # and c objects, a rank-drop family is (a_n, a_n, a_n), and the mixed stack holds shared
    # objects beside equal-content copies (factored on their own), b as another problem's c,
    # and b as its own c. Every slice is bitwise its single call
    rng = np.random.default_rng(23)
    a, b, c = families.random_solvable_triple(rng, 6, 3, complex_)
    additive = [(a, b, c), *families.additive_family(a, b, c, 6, rng)]
    limit, seq = families.rankdrop_family(rng, 6, 3, 6, complex_)
    a2, b2, c2 = families.random_solvable_triple(rng, 6, 3, complex_)
    mixed = [(a, b, c), (a2, b2, c2), (a, b.copy(), c), (a2, b, c.copy()), (a, b2, c),
             (a2, c2, b2), (a, b, b), (a2, b2, c2.copy()), (a, c, c)]
    for problems in (additive, [limit, *seq], mixed):
        stacked = bc_inverse_stack(problems)
        for problem, result in zip(problems, stacked):
            assert_same_outcome(result, _outcome(gi.bc_inverse, *problem))
    certs = bc_inverse_stack(mixed)
    # problems that share an operand object share its subspace; a copy has its own
    assert certs[0].prescribed_range is certs[3].prescribed_range
    assert certs[0].prescribed_range is not certs[2].prescribed_range
    assert certs[0].prescribed_nullspace is certs[2].prescribed_nullspace
    assert certs[0].prescribed_nullspace is not certs[3].prescribed_nullspace
    certs = bc_inverse_stack(additive)
    assert len({id(c.prescribed_range) for c in certs}) == 1
    assert len({id(c.prescribed_nullspace) for c in certs}) == 1


@pytest.mark.parametrize("complex_", [False, True])
def test_broadcast_operands_are_read_as_their_copies(complex_):
    # a broadcast view (one row repeated: strides (0, 8), or its transpose) shares its SVD call
    # with every matrix of its shape; each spans what its C-ordered copy spans. Products with a
    # zero-stride matrix round on their own, so the inverse and the spans are compared
    rng = np.random.default_rng(31)

    def draw(*shape):
        return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0)
    a, general, rows = draw(4, 4), draw(4, 4), np.broadcast_to(draw(4), (4, 4))
    c = np.outer(draw(4), draw(4))  # C-ordered and of rank 1, as rows is
    for problem in ((a, rows, c), (a, rows, rows.T), (a, rows, general)):
        got, want = (_outcome(gi.bc_inverse, *p) for p in (problem, [m.copy() for m in problem]))
        if isinstance(want, gi.ExistenceError):
            assert (type(got), str(got), got.clause) == (type(want), str(want), want.clause)
            continue
        for name in ("inverse", "prescribed_range", "prescribed_nullspace"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    stacked = moore_penrose_stack([rows, general])
    assert _bits(stacked[0].inverse) == _bits(gi.moore_penrose(rows.copy()).inverse)
    assert_same_outcome(stacked[1], gi.moore_penrose(general))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("kind", ["exists", "not_injective", "nilpotent", "zero"])
def test_inverse_along_is_the_dd_inverse(kind, complex_):
    # inverse_along(a, d) is bc_inverse(a, d, d) bit for bit, with kind "along", the residuals
    # xad_d = xab_b and dax_d = cax_c, and each refusal's message prefixed
    rng = np.random.default_rng(24)
    if kind == "nilpotent":  # a = I and R(d) = N(d): the complement clause fails
        a, d = np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]) * (1j if complex_ else 1)
    else:
        a, d, _ = bc_problem(rng, 6, kind, complex_, 3)
    along, bc = _outcome(gi.inverse_along, a, d), _outcome(gi.bc_inverse, a, d, d)
    assert (kind in ("exists", "zero")) == isinstance(bc, gi.InverseCertificate)
    if isinstance(bc, gi.ExistenceError):
        for refused in (along, _outcome(gi.inverse_along, a, d.tolist())):
            assert type(refused) is type(bc)
            assert str(refused) == f"not invertible along D: {bc}"
            assert refused.clause == bc.clause and _bits(refused.margin) == _bits(bc.margin)
        return
    residuals = {**bc.residuals, "xad_d": bc.residuals["xab_b"], "dax_d": bc.residuals["cax_c"]}
    assert along.kind == "along" and list(along.residuals) == list(residuals)
    assert_same_outcome(along, dataclasses.replace(bc, kind="along", residuals=residuals))
    assert_same_outcome(gi.inverse_along(a, d.tolist()), along)


def test_deviations_of_repeated_bases_are_the_single_rows():
    # each distinct basis object is measured once and its row copied to every index holding it
    rng = np.random.default_rng(25)
    n = families.random_subspace(rng, 6, 3).basis
    bases = [families.random_subspace(rng, 6, dim).basis for dim in (3, 2, 0, 3)]
    order = [0, 1, 0, 2, 3, 1, 1, 3, 2]
    devs = deviations([bases[k] for k in order], n)
    assert devs.tobytes() == np.vstack([deviations([bases[k]], n) for k in order]).tobytes()
    assert deviations([], n).shape == (0, 2)



def _judged_path(problem, tol) -> str:
    """How bc_inverse judges ``problem`` alone: "refused", "spectral" (a residual is its defect's
    spectral norm, the Frobenius norm over budget), "exact" (judged at the exact ||a||) or "lower"
    (every Frobenius norm within budget at the lower bound on ||a||)."""
    try:
        cert = gi.bc_inverse(*problem, tol)
    except gi.CertificateError:
        return "refused"
    (a, b, c), x = problem, cert.inverse
    defects = {"xax_x": x @ a @ x - x, "xab_b": x @ a @ b - b, "cax_c": c @ a @ x - c}
    if any(cert.residuals[name] != np.linalg.norm(d) for name, d in defects.items()):
        return "spectral"
    return "exact" if "operator_norm" in cert._memo else "lower"


def _spectral_window(problem) -> float:
    """A residual_tol at which some defect's Frobenius norm exceeds its budget at the exact
    ||a|| and no spectral norm does: the geometric middle of that window."""
    (a, b, c), cert = problem, gi.bc_inverse(*problem)
    x, xn, an = cert.inverse, cert.inverse_norm, cert.operator_norm
    bn, cn = gi.spectral_norm(b), gi.spectral_norm(c)
    defects = [(x @ a @ x - x, xn * an * xn), (x @ a @ b - b, xn * an * bn),
               (c @ a @ x - c, cn * an * xn)]
    low = max(np.linalg.norm(d, 2) / scale for d, scale in defects)
    return math.sqrt(low * max(np.linalg.norm(d) / scale for d, scale in defects))


@pytest.mark.parametrize("complex_", [False, True])
def test_a_stack_judging_every_path_at_once_is_the_single_calls(complex_):
    # one stack holds slices accepted at the lower bound on ||a||, only at the exact ||a||, only
    # by a spectral norm, refused (over budget where one is found, and overflowed), a zero one
    # (b = c = 0) and one whose defect takes residual_norm's rescale branch; each is bitwise its
    # single call. A large component of a that H kills grows ||a|| but not the core's
    # sigma_max, which moves a slice from the lower bound to the exact ||a||
    rng = np.random.default_rng(41)
    pool = []
    for _ in range(16):
        a, b, c = families.random_solvable_triple(rng, 6, 3, complex_)
        killed = gi.null_space(c).basis @ families.random_matrix(rng, 3, 6, complex_)
        pool += [(a, b, c), (a + 1e6 * killed, b, c)]
    for problem in pool[::2]:
        tol = gi.ToleranceConfig(residual_tol=_spectral_window(problem))
        found = {_judged_path(p, tol): p for p in pool}
        if _judged_path(problem, tol) == "spectral" and {"lower", "exact"} <= set(found):
            found["spectral"] = problem
            break
    assert {"lower", "exact", "spectral"} <= set(found)
    a, b, c = found["lower"]
    tiny = (a * 2.0**500, b, c)  # x near 2^-500: the squares of x a x - x underflow
    x = gi.bc_inverse(*tiny, tol).inverse
    defect = x @ tiny[0] @ x - x
    assert np.abs(defect).max() > 0.0 and np.linalg.norm(defect) <= 1e-150
    overflowed = (a * 1e-309, b, c)
    problems = [*found.values(), tiny, (a, 0 * b, 0 * c), overflowed, found["spectral"]]
    for problem, result in zip(problems, bc_inverse_stack(problems, tol)):
        want = _outcome(gi.bc_inverse, *problem, tol)
        assert_same_outcome(result, want)
    assert isinstance(_outcome(gi.bc_inverse, *overflowed, tol), gi.CertificateError)
