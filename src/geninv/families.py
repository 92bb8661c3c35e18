"""Seeded generators for solvable instances, perturbation families and curves.

Everything here is driven by an explicit numpy Generator so that test runs and
CLI invocations are reproducible. Solvable instances are resampled until the
existence margins (restricted smallest singular value and direct-sum margin)
are comfortably above the working tolerances.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .calculus import MatrixCurve
from .errors import ExistenceError, GenInvError
from .inverses import bc_inverse, outer_prescribed
from .kernel import DEFAULT_TOL, ToleranceConfig, spectral_norm
from .subspace import Subspace, column_space, direct_sum_check, orthogonal_complement

_DOMAIN = (-0.6, 0.6)


def random_matrix(rng, m: int, n: int, complex_: bool = False) -> np.ndarray:
    a = rng.standard_normal((m, n))
    if complex_:
        a = a + 1j * rng.standard_normal((m, n))
    nrm = spectral_norm(a)
    return a / nrm if nrm else a


def random_conditioned(rng, n: int, complex_: bool = False) -> np.ndarray:
    """Square matrix with singular values in [0.5, 1.5] (then normalized)."""
    u = _haar(rng, n, complex_)
    v = _haar(rng, n, complex_)
    s = 0.5 + rng.random(n)
    a = (u * s) @ v.conj().T
    return a / spectral_norm(a)


def _haar(rng, n: int, complex_: bool) -> np.ndarray:
    g = rng.standard_normal((n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.sign(np.real(np.diag(r))) + 0.5)


def random_subspace(
    rng, n: int, dim: int, complex_: bool = False, tol: ToleranceConfig = DEFAULT_TOL
) -> Subspace:
    if dim == 0:
        return Subspace(n, np.zeros((n, 0)), tol)
    g = rng.standard_normal((n, dim))
    if complex_:
        g = g + 1j * rng.standard_normal((n, dim))
    q, _ = np.linalg.qr(g)
    return Subspace(n, q, tol)


def random_skew(rng, n: int, complex_: bool = False) -> np.ndarray:
    g = random_matrix(rng, n, n, complex_)
    k = g - g.conj().T
    nrm = spectral_norm(k)
    return k / nrm if nrm else k


def cayley(k_mat: np.ndarray, t: float) -> np.ndarray:
    """Unitary Cayley transform of a skew-Hermitian matrix, smooth in t."""
    n = k_mat.shape[0]
    eye = np.eye(n)
    return np.linalg.solve(eye - (t / 2.0) * k_mat, eye + (t / 2.0) * k_mat)


def random_rank_matrix(rng, m: int, n: int, r: int, complex_: bool = False) -> np.ndarray:
    """Rank-r matrix with the nonzero singular values in [0.5, 1.5], normalized."""
    if r == 0:
        return np.zeros((m, n), dtype=complex if complex_ else float)
    u = random_subspace(rng, m, r, complex_).basis
    v = random_subspace(rng, n, r, complex_).basis
    s = 0.5 + rng.random(r)
    a = (u * s) @ v.conj().T
    return a / spectral_norm(a)


def random_solvable_triple(
    rng,
    n: int,
    r: int,
    complex_: bool = False,
    tol: ToleranceConfig = DEFAULT_TOL,
    min_margin: float = 0.05,
    max_tries: int = 200,
):
    """A triple (a, b, c) whose (b, c)-inverse exists with healthy margins."""
    if not 1 <= r <= n:
        raise GenInvError("rank must satisfy 1 <= r <= n")
    for _ in range(max_tries):
        a = random_conditioned(rng, n, complex_)
        t_space = random_subspace(rng, n, r, complex_, tol)
        s_space = random_subspace(rng, n, n - r, complex_, tol)
        restricted = a @ t_space.basis
        smin = float(kernel.singular_values(restricted)[-1])
        if smin < 0.2:
            continue
        image = column_space(restricted, tol)
        if image.dim != r:
            continue
        if direct_sum_check(image, s_space).margin < min_margin:
            continue
        b = t_space.basis @ random_matrix(rng, r, n, complex_)
        s_perp = orthogonal_complement(s_space).basis
        c = random_matrix(rng, n, r, complex_) @ s_perp.conj().T
        if (
            kernel.numerical_rank(kernel.singular_values(b), tol) != r
            or kernel.numerical_rank(kernel.singular_values(c), tol) != r
        ):
            continue
        return a, b, c
    raise GenInvError("failed to sample a well-margined solvable triple")


def random_outer_instance(
    rng,
    m: int,
    n: int,
    r: int,
    complex_: bool = False,
    tol: ToleranceConfig = DEFAULT_TOL,
    min_margin: float = 0.05,
    max_tries: int = 200,
):
    """A rectangular operator with prescribed subspaces (a, t, s) that is solvable."""
    for _ in range(max_tries):
        a = random_matrix(rng, m, n, complex_)
        t_space = random_subspace(rng, n, r, complex_, tol)
        s_space = random_subspace(rng, m, m - r, complex_, tol)
        restricted = a @ t_space.basis
        sig = kernel.singular_values(restricted)
        if sig.size < r or float(sig[-1]) < 0.1:
            continue
        image = column_space(restricted, tol)
        if image.dim != r or direct_sum_check(image, s_space).margin < min_margin:
            continue
        return a, t_space, s_space
    raise GenInvError("failed to sample a well-margined rectangular instance")


def additive_family(a, b, c, count: int, rng, tol: ToleranceConfig = DEFAULT_TOL):
    """(a + e/n, b, c) with a fixed direction e small enough to keep existence
    and the quantitative error bound applicable at every index."""
    cert = bc_inverse(a, b, c, tol)
    xnorm = spectral_norm(cert.inverse)
    kappa = spectral_norm(cert.operator) * xnorm
    z_cap = 2.0 * kappa / ((1.0 + kappa) * (4.0 + kappa))
    amplitude = min(0.4 / xnorm, 0.5 * z_cap / xnorm)
    direction = random_matrix(rng, a.shape[0], a.shape[1], np.iscomplexobj(a))
    return [(a + (amplitude / n) * direction, b, c) for n in range(1, count + 1)]


def rotating_family(
    a, b, c, count: int, rng, tol: ToleranceConfig = DEFAULT_TOL, angle: float = 0.2
):
    """(a, u_n b, c v_n) with the prescribed subspaces rotated by angle/n.

    The rotation angle is halved until the inverse exists at every index.
    """
    complex_ = any(np.iscomplexobj(x) for x in (a, b, c))
    k1 = random_skew(rng, a.shape[0], complex_)
    k2 = random_skew(rng, a.shape[0], complex_)
    for _ in range(8):
        family = [
            (a, cayley(k1, angle / n) @ b, c @ cayley(k2, angle / n))
            for n in range(1, count + 1)
        ]
        try:
            for an, bn, cn in family[: min(4, count)]:
                bc_inverse(an, bn, cn, tol)
            return family
        except ExistenceError:
            angle /= 2.0
    raise GenInvError("could not keep the rotating family solvable")


def rankdrop_family(rng, n: int, r: int, count: int, complex_: bool = False):
    """The discontinuous control family: invertible fill-ins of a rank-r limit.

    Returns (limit_triple, sequence) where the limit is (a, a, a) for a
    diagonalizable rank-r element and the per-index elements are invertible,
    so the per-index inverses exist but diverge.
    """
    if not 1 <= r < n:
        raise GenInvError("rank-drop families need 1 <= r < n")
    q = random_conditioned(rng, n, complex_)
    d = np.zeros(n)
    d[:r] = 0.5 + rng.random(r)
    qinv = np.linalg.inv(q)
    a = q @ np.diag(d) @ qinv
    sequence = []
    for idx in range(1, count + 1):
        dn = d.copy()
        dn[r:] = 1.0 / idx
        an = q @ np.diag(dn) @ qinv
        sequence.append((an, an, an))
    return (a, a, a), sequence


def mp_rankdrop_sequence(rng, n: int, r: int, count: int, complex_: bool = False):
    """Limit element of rank r with full-rank approximants (pseudoinverses diverge)."""
    u = _haar(rng, n, complex_)
    v = _haar(rng, n, complex_)
    s = np.zeros(n)
    s[:r] = 0.5 + rng.random(r)
    a = (u * s) @ v.conj().T
    seq = []
    for idx in range(1, count + 1):
        sn = s.copy()
        sn[r:] = 1.0 / idx
        seq.append((u * sn) @ v.conj().T)
    return a, seq


def mp_convergent_sequence(rng, n: int, r: int, count: int, complex_: bool = False):
    """Rank-preserving approximants a_n -> a with a_n^+ -> a^+."""
    a = random_rank_matrix(rng, n, n, r, complex_)
    k1 = random_skew(rng, n, complex_)
    k2 = random_skew(rng, n, complex_)
    return a, [
        cayley(k1, 0.2 / idx) @ a @ cayley(k2, 0.2 / idx) for idx in range(1, count + 1)
    ]


def bc_curves(rng, n: int, r: int, complex_: bool = False, tol: ToleranceConfig = DEFAULT_TOL):
    """Smooth (a, b, c) curves staying inside the solvable set near t = 0."""
    a, b, c = random_solvable_triple(rng, n, r, complex_, tol)
    xnorm = spectral_norm(bc_inverse(a, b, c, tol).inverse)
    a1 = random_matrix(rng, n, n, complex_) * (0.2 / xnorm)
    a2 = random_matrix(rng, n, n, complex_) * (0.2 / xnorm)
    k = [random_skew(rng, n, complex_) for _ in range(4)]
    a_curve = MatrixCurve(lambda t: a + t * a1 + t * t * a2, _DOMAIN, "a")
    b_curve = MatrixCurve(lambda t: cayley(k[0], t) @ b @ cayley(k[1], t), _DOMAIN, "b")
    c_curve = MatrixCurve(lambda t: cayley(k[2], t) @ c @ cayley(k[3], t), _DOMAIN, "c")
    return a_curve, b_curve, c_curve


def mp_curve(rng, m: int, n: int, r: int, complex_: bool = False):
    """Smooth fixed-rank operator curve (its pseudoinverse is smooth too)."""
    a = random_rank_matrix(rng, m, n, r, complex_)
    k1 = random_skew(rng, m, complex_)
    k2 = random_skew(rng, n, complex_)
    return MatrixCurve(lambda t: cayley(k1, t) @ a @ cayley(k2, t), _DOMAIN, "a")


def oip_curves(
    rng, m: int, n: int, r: int, complex_: bool = False, tol: ToleranceConfig = DEFAULT_TOL
):
    """Operator curve plus rotating orthogonal-projector curves (range and null space)."""
    a, t_space, s_space = random_outer_instance(rng, m, n, r, complex_, tol)
    xnorm = spectral_norm(outer_prescribed(a, t_space, s_space, tol).inverse)
    a1 = random_matrix(rng, m, n, complex_) * (0.2 / xnorm)
    kt = random_skew(rng, n, complex_)
    ks = random_skew(rng, m, complex_)

    def p_at(t: float) -> np.ndarray:
        w = cayley(kt, t) @ t_space.basis
        return w @ w.conj().T

    def q_at(t: float) -> np.ndarray:
        w = cayley(ks, t) @ s_space.basis
        return w @ w.conj().T

    a_curve = MatrixCurve(lambda t: a + t * a1, _DOMAIN, "a")
    return a_curve, MatrixCurve(p_at, _DOMAIN, "p"), MatrixCurve(q_at, _DOMAIN, "q")
