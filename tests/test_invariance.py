"""A unitary change of basis moves no decision. In a C*-algebra it holds exactly: with
a' = U a V*, T' = V T and S' = U S, the outer inverse of a' is x' = V x U*, and so are the
(b, c)-, along, Bott-Duffin and Moore-Penrose inverses, with b' = V b U*, c' = V c U*,
d' = V d U*, p' = V p V* and q' = U q U*. Each instance and its change must give the same outcome
type and clause; a certificate's clause numbers and norms must agree within 1e-10 relative, and
its inverse within 100 kappa eps ||x||, kappa = ||a|| ||x|| (the constant of test_scale.py)."""

import numpy as np
import pytest

import geninv as gi
from geninv import families

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
