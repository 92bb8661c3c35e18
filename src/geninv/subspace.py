"""Subspaces, oblique projectors, direct-sum tests and the gap metric.

The gap is computed in the Euclidean norm through orthogonal projectors:
``delta(M, N) = || (I - P_N) P_M ||`` with the conventions delta(0, N) = 0 and
delta(M, 0) = 1 for M != 0. A seeded sampling oracle gives an independent
lower bound on the one-sided deviation.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from . import kernel
from .errors import CertificateError, ExistenceError, InputError
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix


@dataclass(frozen=True, eq=False)  # identity ==, hashable: fields are arrays
class Subspace:
    """A subspace of C^n (or R^n) carried as an orthonormal column basis.

    ``tol`` only checks that the basis is orthonormal; it is not kept.
    """

    ambient_dim: int
    basis: np.ndarray  # ambient_dim x dim, orthonormal columns (dim may be 0)
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL
    _complement = None  # orthonormal complement: the rest of the full SVD that gave basis, if any

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace."""
        return self.basis @ self.basis.conj().T

    def __post_init__(self, tol: ToleranceConfig):
        basis = as_matrix(self.basis)
        if basis.shape[0] != self.ambient_dim:
            raise InputError("basis rows do not match ambient dimension")
        if basis.shape[1] > self.ambient_dim:
            raise InputError("basis has more columns than the ambient dimension")
        d = basis.shape[1]
        if d:
            gram = basis.conj().T @ basis
            limit = max(tol.residual_tol, 1e-12)
            if kernel.residual_norm(gram - np.eye(d), limit) > limit:
                raise InputError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)


# the InitVar default would otherwise linger as a class attribute that reads as
# DEFAULT_TOL whatever tolerance built the instance; __init__ keeps the default
del Subspace.tol


def orthonormal_span(basis: np.ndarray, complement: np.ndarray | None = None) -> Subspace:
    """The Subspace of a float basis whose columns are orthonormal by construction (singular
    vectors), without checking them again; ``complement`` is the rest of those vectors."""
    span = object.__new__(Subspace)
    object.__setattr__(span, "ambient_dim", basis.shape[0])
    object.__setattr__(span, "basis", basis)
    object.__setattr__(span, "_complement", complement)
    return span


def trivial_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))


def full_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.eye(ambient_dim))


def column_space(a, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the span of the columns of ``a`` at numerical rank (thin SVD)."""
    return column_spaces([a], tol)[0]


def column_spaces(matrices, tol: ToleranceConfig = DEFAULT_TOL) -> list[Subspace]:
    """``column_space`` of each matrix, from one batched thin SVD per (shape, field) group."""
    mats = [as_matrix(m) for m in matrices]
    spaces: list = [None] * len(mats)
    for members in kernel.groups((m.shape, m.dtype.char) for m in mats):
        u, sigma, _ = kernel.svd_stack(kernel.stack([mats[i] for i in members]))
        for i, basis, r in zip(members, u, kernel.numerical_rank(sigma, tol).tolist()):
            spaces[i] = orthonormal_span(basis[:, :r])
    return spaces


def null_space(a, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of {x : a x = 0}; dimension is cols - rank."""
    return range_and_null_space(a, tol)[1]


def range_and_null_space(a, tol: ToleranceConfig) -> tuple[Subspace, Subspace, float]:
    """R(a), N(a) and ||a||, read off one full SVD."""
    u, sigma, v = kernel.svd(a, full=True)
    r = kernel.numerical_rank(sigma, tol)
    spans = orthonormal_span(u[:, :r], u[:, r:]), orthonormal_span(v[:, r:], v[:, :r])
    return *spans, kernel.sigma_max(sigma)


def orthogonal_complement(s: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement within the same ambient space."""
    if s.is_trivial:
        return full_subspace(s.ambient_dim)
    return null_space(s.basis.conj().T, tol)


class DirectSumResult(NamedTuple):
    holds: bool
    margin: float


def direct_sum_check(
    t: Subspace, s: Subspace, tol: ToleranceConfig = DEFAULT_TOL
) -> DirectSumResult:
    """Whether T and S decompose the ambient space as a direct sum.

    Holds iff the dimensions add up to the ambient one and the concatenated
    bases are jointly well conditioned: the margin, the smallest singular
    value of [T.basis | S.basis], exceeds ``rank_rel_tol``.
    """
    if t.ambient_dim != s.ambient_dim:
        raise InputError("ambient dimensions differ")
    sig = kernel.singular_values(np.hstack([t.basis, s.basis]))
    margin = float(sig[-1]) if sig.size else 0.0
    holds = (t.dim + s.dim == t.ambient_dim) and margin > tol.rank_rel_tol
    return DirectSumResult(holds, margin)


def _idempotency_defect(p: np.ndarray, pnorm: float, tol: ToleranceConfig) -> float | None:
    """``||p p - p||`` if over ``residual_tol * ||p|| ||p||``, else None (Frobenius-first)."""
    budget = tol.residual_tol * (pnorm * pnorm)
    defect = kernel.residual_norm(p @ p - p, budget)
    return defect if defect > budget else None


@dataclass(frozen=True, eq=False)  # identity ==, hashable: fields are arrays
class ObliqueProjector:
    """Idempotent matrix with recorded range and null-space bases and spectral norm."""

    matrix: np.ndarray
    range: Subspace
    nullspace: Subspace
    norm: float

    @classmethod
    def from_matrix(cls, p, tol: ToleranceConfig = DEFAULT_TOL) -> "ObliqueProjector":
        """Wrap an explicit idempotent, reading ||p||, R(p) and N(p) off one full SVD."""
        p = as_matrix(p)
        if p.shape[0] != p.shape[1]:
            raise InputError("projector matrix must be square")
        range_, nullspace, norm = range_and_null_space(p, tol)
        defect = _idempotency_defect(p, norm, tol)
        if defect is not None:
            raise InputError(f"matrix is not idempotent (defect {defect:.3e})")
        return cls(p, range_, nullspace, norm)


def oblique_projector(
    t: Subspace, s: Subspace, tol: ToleranceConfig = DEFAULT_TOL
) -> ObliqueProjector:
    """Idempotent with range T and null space S, if T and S are complementary."""
    check = direct_sum_check(t, s, tol)
    if not check.holds:
        raise ExistenceError(
            "not complementary", clause="not complementary", margin=check.margin
        )
    n = t.ambient_dim
    stacked = np.hstack([t.basis, s.basis])
    selector = np.zeros((n, n), dtype=stacked.dtype)
    selector[: t.dim, : t.dim] = np.eye(t.dim)
    p = stacked @ selector @ np.linalg.inv(stacked)
    norm = kernel.spectral_norm(p)
    defect = _idempotency_defect(p, norm, tol)
    if defect is not None:
        raise CertificateError(
            f"projector construction lost idempotency (defect {defect:.3e})",
            margin=defect,
        )
    return ObliqueProjector(p, t, s, norm)


class GapResult(NamedTuple):
    delta_mn: float
    delta_nm: float
    gap: float


def deviations(bases, n: np.ndarray) -> np.ndarray:
    """Row k is (delta(M_k, N), delta(N, M_k)) for M_k = span(bases[k]) and N = span(n),
    all orthonormal; each side is one batched product and SVD per ``kernel.layout``."""
    devs = np.zeros((len(bases), 2))
    for group in kernel.groups(map(kernel.layout, bases)):
        m = kernel.stack([bases[i] for i in group])
        devs[group, 0] = kernel.stack_norms(m - n @ (n.conj().T @ m))
        devs[group, 1] = kernel.stack_norms(n - m @ (m.conj().swapaxes(-1, -2) @ n))
    devs = np.minimum(1.0, devs)
    # delta(M, 0) = 1 for M != 0; delta(0, N) = 0 is already the empty offside's norm
    dims = np.array([m.shape[1] for m in bases], dtype=int)
    devs[(dims > 0) & (n.shape[1] == 0), 0] = 1.0
    devs[(dims == 0) & (n.shape[1] > 0), 1] = 1.0
    return devs


def gap(m: Subspace, n: Subspace) -> GapResult:
    """One-sided deviations and their max, all in [0, 1]."""
    if m.ambient_dim != n.ambient_dim:
        raise InputError("ambient dimensions differ")
    d_mn, d_nm = deviations([m.basis], n.basis)[0].tolist()
    return GapResult(d_mn, d_nm, max(d_mn, d_nm))


def gap_sampling_oracle(m: Subspace, n: Subspace, trials: int, seed: int) -> float:
    """Brute-force lower bound for the deviation of M from N.

    Samples unit vectors of M through normalized Gaussian coefficients with a
    fixed seed and returns the largest distance to N observed.
    """
    if m.ambient_dim != n.ambient_dim:
        raise InputError("ambient dimensions differ")
    if trials < 1:
        raise InputError("trials must be >= 1")
    if m.is_trivial:
        return 0.0
    rng = np.random.default_rng(seed)
    complex_ = np.iscomplexobj(m.basis) or np.iscomplexobj(n.basis)
    p_n = n.projector() if not n.is_trivial else None
    best = 0.0
    for _ in range(trials):
        coeff = rng.standard_normal(m.dim)
        if complex_:
            coeff = coeff + 1j * rng.standard_normal(m.dim)
        nrm = np.linalg.norm(coeff)
        if nrm == 0.0:
            continue
        x = m.basis @ (coeff / nrm)
        residual = x if p_n is None else x - p_n @ x
        best = max(best, float(np.linalg.norm(residual)))
    return min(1.0, best)
