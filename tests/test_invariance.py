"""A unitary change of basis moves no decision. In a C*-algebra it holds exactly: with
a' = U a V*, T' = V T and S' = U S, the outer inverse of a' is x' = V x U*, and so are the
(b, c)-, along, Bott-Duffin and Moore-Penrose inverses, with b' = V b U*, c' = V c U*,
d' = V d U*, p' = V p V* and q' = U q U*. Each instance and its change must give the same outcome
type and clause; a certificate's clause numbers and norms must agree within 1e-10 relative, and
its inverse within 100 kappa eps ||x||, kappa = ||a|| ||x|| (the constant of test_scale.py).

The adjoint and a direct sum are gated where decisions are made: on one-parameter families whose
core H A F crosses the existence threshold sigma_min(H A F) = rank_rel_tol ||a||. The adjoint
problem's core is (H A F)*, so both decide alike: (a*, c*, b*) for bc, (a*, S-perp, T-perp) for
outer, (a*, d*) for along and (a*, q*, p*) for Bott-Duffin; MP's rank cutoff on a and a* keeps
the same rank. A direct sum's core is the blocks' cores side by side and
||a (+) a'|| = max(||a||, ||a'||), so the sum is refused iff the smaller block sigma_min is at
most rank_rel_tol max(||a||, ||a'||). Draws within 100 (m + n) eps of the threshold, where
rounding decides, are skipped."""

import numpy as np
import pytest

import geninv as gi
from geninv import families

import replay
from conftest import projector

NUMBERS = ("restricted_condition", "complement_margin", "operator_norm", "inverse_norm")
SHAPES = {"outer": (6, 6, 3), "rectangular": (6, 4, 2), "bc": (6, 6, 3), "along": (6, 6, 3),
          "bott_duffin": (6, 6, 3), "mp": (6, 4, 3)}


def _outcome(call):
    try:
        return call()
    except gi.ExistenceError as exc:  # a CertificateError is one
        return exc


def _kill(a, t):
    """a with T's first basis vector sent to 0: a restricted to T is not injective."""
    t0 = t.basis[:, :1]
    return a - (a @ t0) @ t0.conj().T


def _pair(kind: str, rng, complex_: bool, kill: bool) -> tuple:
    """(outcome, outcome of the change, U, V) of one drawn instance; with ``kill``, one whose a
    kills a vector of T (Moore-Penrose: one of rank one less)."""
    m, n, r = SHAPES[kind]
    u, v = families._haar(rng, m, complex_), families._haar(rng, n, complex_)

    def moved(w, s):  # the span of w times s's basis
        return gi.Subspace(s.ambient_dim, w @ s.basis)

    def operator(a):  # U a V*
        return u @ a @ v.conj().T

    def inverse(x):  # V x U*, the change of b, c and d as of x
        return v @ x @ u.conj().T
    if kind == "mp":
        a = families.random_rank_matrix(rng, m, n, r - kill, complex_)
        return gi.moore_penrose(a), gi.moore_penrose(operator(a)), u, v
    if kind in ("outer", "rectangular"):
        a, t, s = families.random_outer_instance(rng, m, n, r, complex_)
        a = _kill(a, t) if kill else a
        return _outcome(lambda: gi.outer_prescribed(a, t, s)), _outcome(
            lambda: gi.outer_prescribed(operator(a), moved(v, t), moved(u, s))), u, v
    a, b, c = families.random_solvable_triple(rng, n, r, complex_)
    t, s = gi.column_space(b), gi.null_space(c)
    if kind == "bc":
        construct, operands, changed = gi.bc_inverse, (b, c), (inverse(b), inverse(c))
    elif kind == "along":  # R(d) = T and N(d) = S
        d = t.basis @ families.random_conditioned(rng, r, complex_) @ gi.orthogonal_complement(
            s).basis.conj().T
        construct, operands, changed = gi.inverse_along, (d,), (inverse(d),)
    else:  # p onto T along its orthogonal complement, q onto a(T) along S
        image, perp = gi.column_space(a @ t.basis), gi.orthogonal_complement(t)
        construct, operands = gi.bott_duffin, (projector(t, perp), projector(image, s))
        changed = (projector(moved(v, t), moved(v, perp)), projector(moved(u, image), moved(u, s)))
    a = _kill(a, t) if kill else a
    return _outcome(lambda: construct(a, *operands)), _outcome(
        lambda: construct(operator(a), *changed)), u, v


@pytest.mark.parametrize("kill", [False, True])
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("kind", list(SHAPES))
def test_a_unitary_change_of_basis_moves_no_decision(kind, complex_, kill):
    eps = np.finfo(float).eps
    rng = np.random.default_rng([list(SHAPES).index(kind), int(complex_)])
    for _ in range(20):
        before, after, u, v = _pair(kind, rng, complex_, kill)
        assert type(after) is type(before)
        if isinstance(before, gi.GenInvError):
            assert after.clause == before.clause
            continue
        for name in NUMBERS:
            want = getattr(before, name)
            assert abs(getattr(after, name) - want) <= 1e-10 * want, name
        x, kappa = before.inverse, before.operator_norm * before.inverse_norm
        error = np.linalg.norm(v @ x @ u.conj().T - after.inverse, 2)
        assert error <= 100 * kappa * eps * np.linalg.norm(x, 2)


EPS = np.finfo(float).eps
INJECTIVITY, COMPLEMENT = "restriction not injective", "R(A*T) (+) S != Y"
# the clauses an adjoint pair names: a t = 0 for t in T puts a t in S, so injectivity failing
# for a is the complement failing for a*; a(T) meeting S, with a invertible, fails the
# complement on both sides
ADJOINT_CLAUSES = {"shrink": (INJECTIVITY, COMPLEMENT), "tilt": (COMPLEMENT, COMPLEMENT)}
CROSSING = np.logspace(-12, -8, 41)  # eps across sigma_min(core) / ||a|| = 1e-10
CONSTRUCT = {"bc": gi.bc_inverse, "outer": gi.outer_prescribed, "along": gi.inverse_along,
             "bott_duffin": gi.bott_duffin, "mp": gi.moore_penrose}
# MP's T and S are a's own, so only the shrink family crosses its threshold, the rank cutoff
ADJOINT_CASES = [(kind, family) for kind in CONSTRUCT for family in ADJOINT_CLAUSES
                 if (kind, family) != ("mp", "tilt")]


def _crossing(kind: str, family: str, rng, complex_: bool):
    """eps -> a problem of ``kind`` on ``replay.crossing``'s family (its outer one's T and S for
    the kinds it does not build): (a, d) with R(d) = T and N(d) = S for along, (a, p, q) with
    R(p) = T and N(q) = S (p along a fixed W, q onto a fixed V) for Bott-Duffin, (a,) for MP."""
    if kind in ("bc", "outer"):
        return replay.crossing(kind, family, rng, complex_)
    outer = replay.crossing("outer", family, rng, complex_)
    g = families.random_conditioned(rng, 3, complex_)
    w, v = (families.random_subspace(rng, 6, 3, complex_) for _ in range(2))
    p = projector(outer(CROSSING[0])[1], w)  # T is the family's at every eps

    def problem(eps: float) -> tuple:
        a, t, s = outer(eps)
        if kind == "along":
            return a, t.basis @ g @ gi.orthogonal_complement(s).basis.conj().T
        return (a, p, projector(v, s)) if kind == "bott_duffin" else (a,)
    return problem


def _core_sigma_min(kind: str, problem: tuple) -> float:
    """sigma_min(H A F), taken apart from the library's construction (MP: sigma_min(a))."""
    a, *rest = problem
    if kind == "mp":
        return np.linalg.svd(a, compute_uv=False)[-1]
    if kind in ("bc", "along"):  # (b, c), or (d,) as (d, d)
        t, s = gi.column_space(rest[0]), gi.null_space(rest[-1])
    else:
        t, s = (rest[0].range, rest[1].nullspace) if kind == "bott_duffin" else rest
    h = gi.orthogonal_complement(s).basis.conj().T
    return np.linalg.svd(h @ a @ t.basis, compute_uv=False)[-1]


def _near_threshold(value: float, threshold: float, dim: int) -> bool:
    return abs(value - threshold) <= 100 * dim * EPS * threshold


def _construct(kind: str, problem: tuple):
    return _outcome(lambda: CONSTRUCT[kind](*problem))


def _adjoint_projector(p) -> gi.ObliqueProjector:
    """p*: onto N(p)-perp along R(p)-perp, of norm ||p||."""
    perp = gi.orthogonal_complement
    return gi.ObliqueProjector(p.matrix.conj().T, perp(p.nullspace), perp(p.range), p.norm)


def _adjoint(kind: str, problem: tuple) -> tuple:
    """The adjoint problem: (a*, c*, b*) for bc, (a*, S-perp, T-perp) for outer, (a*, d*) for
    along, (a*, q*, p*) for Bott-Duffin and (a*,) for MP."""
    a, *rest = problem
    if kind == "outer":
        return a.conj().T, gi.orthogonal_complement(rest[1]), gi.orthogonal_complement(rest[0])
    if kind == "bott_duffin":
        return a.conj().T, _adjoint_projector(rest[1]), _adjoint_projector(rest[0])
    return a.conj().T, *(x.conj().T for x in rest[::-1])


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("kind, family", ADJOINT_CASES)
def test_the_adjoint_decides_alike_across_the_threshold(kind, family, complex_):
    # the same outcome type, the clauses ADJOINT_CLAUSES names (MP: the same rank), and accepted
    # inverses x and y with x* = y within 100 kappa eps ||x||
    tol, crossed = gi.DEFAULT_TOL.rank_rel_tol, 0
    for seed in range(4):
        rng = np.random.default_rng([seed, int(complex_)])
        problem = _crossing(kind, family, rng, complex_)
        for eps in CROSSING:
            p = problem(eps)
            if _near_threshold(_core_sigma_min(kind, p), tol * np.linalg.norm(p[0], 2), 12):
                continue
            before, after = _construct(kind, p), _construct(kind, _adjoint(kind, p))
            assert type(after) is type(before), (seed, eps)
            if type(before) is gi.ExistenceError:
                assert (before.clause, after.clause) == ADJOINT_CLAUSES[family], (seed, eps)
                crossed += 1
            elif isinstance(before, gi.InverseCertificate):  # x* is the adjoint's inverse
                rank = before.prescribed_range.dim
                assert after.prescribed_range.dim == rank, (seed, eps)
                xn = before.inverse_norm
                error = np.linalg.norm(before.inverse.conj().T - after.inverse, 2)
                assert error <= 100 * before.operator_norm * xn * EPS * xn, (seed, eps)
                crossed += kind == "mp" and rank < len(p[0])  # MP's rank dropped
    assert 0 < crossed < 4 * len(CROSSING)  # the families cross the threshold


def _block(x, y) -> np.ndarray:
    return np.block([[x, np.zeros((len(x), y.shape[1]))], [np.zeros((len(y), x.shape[1])), y]])


def _direct_sum(kind: str, p: tuple, q: tuple) -> tuple:
    """The problem p (+) q: block-diagonal matrices, and T (+) T' and S (+) S' as block bases."""
    if kind == "bc":
        return tuple(_block(x, y) for x, y in zip(p, q))
    n = len(p[0]) + len(q[0])
    return _block(p[0], q[0]), *(gi.Subspace(n, _block(x.basis, y.basis)) for x, y in zip(
        p[1:], q[1:]))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("family", ["shrink", "tilt"])
@pytest.mark.parametrize("kind", ["bc", "outer"])
def test_a_direct_sum_is_refused_iff_its_weakest_block_is(kind, family, complex_):
    # a well-conditioned 4 x 4 block of norm 4 beside the crossing 6 x 6 family: the sum's
    # threshold rises with ||a (+) a'|| = 4, so it moves decisions the block alone would not
    tol, refused = gi.DEFAULT_TOL.rank_rel_tol, 0
    for seed in range(4):
        rng = np.random.default_rng([seed, int(complex_)])
        problem = replay.crossing(kind, family, rng, complex_)
        drawn = families.random_solvable_triple(rng, 4, 2, complex_) if kind == "bc" else (
            families.random_outer_instance(rng, 4, 4, 2, complex_))
        block = 4 * drawn[0], *drawn[1:]
        for eps in CROSSING:
            p = problem(eps)
            smallest = min(_core_sigma_min(kind, p), _core_sigma_min(kind, block))
            threshold = tol * max(np.linalg.norm(p[0], 2), np.linalg.norm(block[0], 2))
            if _near_threshold(smallest, threshold, 20):
                continue
            outcome = _construct(kind, _direct_sum(kind, p, block))
            assert isinstance(outcome, gi.ExistenceError) == (smallest <= threshold), (seed, eps)
            refused += smallest <= threshold
    assert 0 < refused < 4 * len(CROSSING)
