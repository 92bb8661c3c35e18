"""Seeded generators for solvable instances, perturbation families and curves.

Everything here is driven by an explicit numpy Generator so that test runs and
CLI invocations are reproducible. Solvable instances are built, not sampled:
their prescribed null space meets the image of their prescribed range at
principal angles of at least _MIN_ANGLE, so existence holds with fixed margins.
"""

from __future__ import annotations

import numpy as np

from .calculus import CayleyQuadratic, MatrixCurve
from .errors import InputError
from .inverses import bc_inverse, outer_prescribed
from .kernel import DEFAULT_TOL, ToleranceConfig, cayley, spectral_norm
from .subspace import Subspace, orthogonal_complement, trivial_subspace

_DOMAIN = (-0.6, 0.6)
_MIN_ANGLE = 0.3  # smallest principal angle between a(T) and S in built instances


def _gaussian(rng, m: int, n: int, complex_: bool) -> np.ndarray:
    g = rng.standard_normal((m, n))
    return g + 1j * rng.standard_normal((m, n)) if complex_ else g


def random_matrix(rng, m: int, n: int, complex_: bool = False) -> np.ndarray:
    a = _gaussian(rng, m, n, complex_)
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
    q, r = np.linalg.qr(_gaussian(rng, n, n, complex_))
    return q * np.sign(np.sign(np.real(np.diag(r))) + 0.5)


def random_subspace(rng, n: int, dim: int, complex_: bool = False) -> Subspace:
    if dim == 0:
        return trivial_subspace(n)
    q, _ = np.linalg.qr(_gaussian(rng, n, dim, complex_))
    return Subspace(n, q)


def random_skew(rng, n: int, complex_: bool = False) -> np.ndarray:
    g = random_matrix(rng, n, n, complex_)
    k = g - g.conj().T
    nrm = spectral_norm(k)
    return k / nrm if nrm else k


def random_rank_matrix(rng, m: int, n: int, r: int, complex_: bool = False) -> np.ndarray:
    """Rank-r matrix with the nonzero singular values in [0.5, 1.5], normalized."""
    if r == 0:
        return np.zeros((m, n), dtype=complex if complex_ else float)
    u = random_subspace(rng, m, r, complex_).basis
    v = random_subspace(rng, n, r, complex_).basis
    s = 0.5 + rng.random(r)
    a = (u * s) @ v.conj().T
    return a / spectral_norm(a)


def random_outer_instance(rng, m: int, n: int, r: int, complex_: bool = False):
    """A rectangular operator with prescribed subspaces (a, t, s), solvable by construction.

    a has full rank with singular values in [1/3, 1] and t is an r-dimensional
    subspace of its row space, so sigma_min(a|t) >= 1/3. s turns each of
    min(r, m - r) directions of a(t) by an angle in [_MIN_ANGLE, pi/2] towards
    a(t)'s orthogonal complement and takes the rest of that complement, so its
    principal angles to a(t) (Bjorck & Golub 1973) are at least _MIN_ANGLE and
    a(t) (+) s has margin at least sqrt(1 - cos _MIN_ANGLE).
    """
    if not 1 <= r <= min(m, n):
        raise InputError("rank must satisfy 1 <= r <= min(m, n)")
    a = random_rank_matrix(rng, m, n, min(m, n), complex_)
    t_basis, _ = np.linalg.qr(a.conj().T @ _gaussian(rng, m, r, complex_))
    q, _ = np.linalg.qr(a @ t_basis, mode="complete")
    image, rest = q[:, :r], q[:, r:]
    pairs = min(r, m - r)
    theta = rng.uniform(_MIN_ANGLE, np.pi / 2, pairs)
    turned = image[:, :pairs] * np.cos(theta) + rest[:, :pairs] * np.sin(theta)
    s_basis = np.hstack([turned, rest[:, pairs:]])
    return a, Subspace(n, t_basis), Subspace(m, s_basis)


def random_solvable_triple(rng, n: int, r: int, complex_: bool = False):
    """A triple (a, b, c) of rank-r b, c whose (b, c)-inverse exists: the square
    ``random_outer_instance`` with R(b) = T and N(c) = S."""
    a, t_space, s_space = random_outer_instance(rng, n, n, r, complex_)
    b = t_space.basis @ random_matrix(rng, r, n, complex_)
    c = random_matrix(rng, n, r, complex_) @ orthogonal_complement(s_space).basis.conj().T
    return a, b, c


def additive_family(a, b, c, count: int, rng, tol: ToleranceConfig = DEFAULT_TOL):
    """(a + e/n, b, c) with a fixed direction e small enough to keep existence
    and the quantitative error bound applicable at every index."""
    cert = bc_inverse(a, b, c, tol)
    if cert.inverse_norm == 0.0:  # the amplitude is read off ||x||
        raise InputError("limit inverse is zero; use zero_limit_check")
    xnorm, kappa = cert.inverse_norm, cert.operator_norm * cert.inverse_norm
    z_cap = 2.0 * kappa / ((1.0 + kappa) * (4.0 + kappa))
    amplitude = min(0.4 / xnorm, 0.5 * z_cap / xnorm)
    direction = random_matrix(rng, a.shape[0], a.shape[1], np.iscomplexobj(a))
    return [(a + (amplitude / n) * direction, b, c) for n in range(1, count + 1)]


def rotating_family(a, b, c, count: int, rng, tol: ToleranceConfig = DEFAULT_TOL):
    """(a, u_n b, c v_n) with the prescribed subspaces rotated by angle/n.

    The (u b, c v)-inverse of a is u z v for z the (b, c)-inverse of v a u, and
    Cayley factors of norm-1 skew matrices move by at most their angle, so
    ||v a u - a|| <= 2 angle ||a||. With x the (b, c)-inverse of a and
    angle = min(0.2, 0.4 / (||a|| ||x||)), every index lies inside the ball
    ||e|| < 1/||x|| where the inverse exists (the paper's openness theorem).
    """
    complex_ = any(np.iscomplexobj(x) for x in (a, b, c))
    cert = bc_inverse(a, b, c, tol)
    angle = 0.4 / max(2.0, cert.operator_norm * cert.inverse_norm)
    k1, k2 = (random_skew(rng, a.shape[0], complex_) for _ in range(2))
    angles = angle / np.arange(1, count + 1)
    return [*zip([a] * count, cayley(k1, angles) @ b, c @ cayley(k2, angles))]


def rankdrop_family(rng, n: int, r: int, count: int, complex_: bool = False):
    """The discontinuous control family: invertible fill-ins of a rank-r limit.

    Returns (limit_triple, sequence) where the limit is (a, a, a) for a
    diagonalizable rank-r element and the per-index elements are invertible,
    so the per-index inverses exist but diverge.
    """
    if not 1 <= r < n:
        raise InputError("rank-drop families need 1 <= r < n")
    q = random_conditioned(rng, n, complex_)
    d = np.zeros(n)
    d[:r] = 0.5 + rng.random(r)
    qinv = np.linalg.inv(q)
    a = q @ np.diag(d) @ qinv
    dn = np.repeat(d[None], count, axis=0)  # each index's diagonal, all drawn at once
    dn[:, r:] = 1.0 / np.arange(1, count + 1)[:, None]
    return (a, a, a), [(an, an, an) for an in q @ (dn[:, None, :] * np.eye(n)) @ qinv]


def mp_rankdrop_sequence(rng, n: int, r: int, count: int, complex_: bool = False):
    """Limit element of rank r with full-rank approximants (pseudoinverses diverge)."""
    u, v = (_haar(rng, n, complex_) for _ in range(2))
    s = np.zeros(n)
    s[:r] = 0.5 + rng.random(r)
    a = (u * s) @ v.conj().T
    sn = np.repeat(s[None], count, axis=0)  # each index's singular values, all drawn at once
    sn[:, r:] = 1.0 / np.arange(1, count + 1)[:, None]
    return a, list((u * sn[:, None, :]) @ v.conj().T)


def mp_convergent_sequence(rng, n: int, r: int, count: int, complex_: bool = False):
    """Rank-preserving approximants a_n -> a with a_n^+ -> a^+."""
    a = random_rank_matrix(rng, n, n, r, complex_)
    k1, k2 = (random_skew(rng, n, complex_) for _ in range(2))
    angles = 0.2 / np.arange(1, count + 1)
    return a, list(cayley(k1, angles) @ a @ cayley(k2, angles))


def bc_curves(rng, n: int, r: int, complex_: bool = False, tol: ToleranceConfig = DEFAULT_TOL):
    """Smooth (a, b, c) curves staying inside the solvable set near t = 0."""
    a, b, c = random_solvable_triple(rng, n, r, complex_)
    xnorm = bc_inverse(a, b, c, tol).inverse_norm
    a1 = random_matrix(rng, n, n, complex_) * (0.2 / xnorm)
    a2 = random_matrix(rng, n, n, complex_) * (0.2 / xnorm)
    k = [random_skew(rng, n, complex_) for _ in range(4)]
    return (MatrixCurve(CayleyQuadratic(a, a1, a2), _DOMAIN, "a"),
            MatrixCurve(CayleyQuadratic(b, left=k[0], right=k[1]), _DOMAIN, "b"),
            MatrixCurve(CayleyQuadratic(c, left=k[2], right=k[3]), _DOMAIN, "c"))


def mp_curve(rng, m: int, n: int, r: int, complex_: bool = False):
    """Smooth fixed-rank operator curve (its pseudoinverse is smooth too)."""
    a = random_rank_matrix(rng, m, n, r, complex_)
    k1 = random_skew(rng, m, complex_)
    k2 = random_skew(rng, n, complex_)
    return MatrixCurve(CayleyQuadratic(a, left=k1, right=k2), _DOMAIN, "a")


def oip_curves(
    rng, m: int, n: int, r: int, complex_: bool = False, tol: ToleranceConfig = DEFAULT_TOL
):
    """Operator curve plus rotating span curves of the prescribed range and null space."""
    a, t_space, s_space = random_outer_instance(rng, m, n, r, complex_)
    xnorm = outer_prescribed(a, t_space, s_space, tol).inverse_norm
    a1 = random_matrix(rng, m, n, complex_) * (0.2 / xnorm)
    kt = random_skew(rng, n, complex_)
    ks = random_skew(rng, m, complex_)
    return (MatrixCurve(CayleyQuadratic(a, a1), _DOMAIN, "a"),
            MatrixCurve(CayleyQuadratic(t_space.basis, left=kt), _DOMAIN, "t"),
            MatrixCurve(CayleyQuadratic(s_space.basis, left=ks), _DOMAIN, "s"))
