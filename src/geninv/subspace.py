"""Subspaces, oblique projectors and the gap metric.

The gap is computed in the Euclidean norm through orthogonal projectors:
``delta(M, N) = || (I - P_N) P_M ||``: 0 for M = 0, 1 wherever dim M > dim N by counting, and
delta(N, M) where dim M = dim N, so every pair measures one side. A seeded sampling oracle
gives an independent lower bound on the one-sided deviation.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from . import kernel
from .errors import InputError
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix


@dataclass(frozen=True, eq=False)  # identity ==, hashable: fields are arrays
class Subspace:
    """A subspace of C^n (or R^n) carried as an orthonormal column basis.

    ``tol`` only checks that the basis is orthonormal; it is not kept. Its orthogonal complement
    is read once, then kept (complement_rows): no basis may change in place, as ObliqueProjector
    already assumes.
    """

    ambient_dim: int
    basis: np.ndarray  # ambient_dim x dim, orthonormal columns (dim may be 0)
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL
    _complement = None  # orthonormal complement: the rest of basis's full SVD or complete QR

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
    span = object.__new__(Subspace)  # frozen: its fields set past __setattr__
    vars(span).update(ambient_dim=basis.shape[0], basis=basis, _complement=complement)
    return span


def trivial_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))


def full_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.eye(ambient_dim))


def column_space(a, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the span of the columns of ``a`` at numerical rank (thin SVD)."""
    return column_spaces([a], tol)[0]


def column_spaces(matrices, tol: ToleranceConfig = DEFAULT_TOL) -> list[Subspace]:
    """``column_space`` of each matrix, from one batched thin SVD per shape and field."""
    mats = [as_matrix(m) for m in matrices]
    return [orthonormal_span(u[:, :r]) for u, _, _, r in kernel.svds(mats, tol, full=False)]


def null_space(a, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of {x : a x = 0}; dimension is cols - rank."""
    return range_and_null_space(a, tol)[1]


def range_and_null_space(a, tol: ToleranceConfig) -> tuple[Subspace, Subspace, float]:
    """R(a), N(a) and ||a||, read off one full SVD."""
    return range_and_null_spaces([a := as_matrix(a)], {id(a)}, {id(a)}, tol)[0]


def range_and_null_spaces(matrices, ranges, nulls, tol: ToleranceConfig) -> list[tuple]:
    """(R(m), N(m), ||m||) of each 2-d float matrix m, from one full SVD per shape and field, R(m)
    only if id(m) is in ``ranges`` and N(m) only if in ``nulls`` (else None); each span carries
    the rest of its SVD's singular vectors as its complement."""
    return [(orthonormal_span(u[:, :r], u[:, r:]) if id(m) in ranges else None,
             orthonormal_span(v[:, r:], v[:, :r]) if id(m) in nulls else None, kernel.sigma_max(
                 sigma)) for m, (u, sigma, v, r) in zip(matrices, kernel.svds(matrices, tol))]


def complement_rows(spaces) -> np.ndarray:
    """Stacked orthonormal rows spanning each space's orthogonal complement (bases of one layout),
    the basis it keeps: the distinct spaces that keep none take one ``kernel.complements`` first."""
    bare = list({id(s): s for s in spaces if s._complement is None}.values())
    for s, rest in zip(bare, kernel.complements([s.basis for s in bare]) if bare else ()):
        object.__setattr__(s, "_complement", rest)
    return kernel.stack([s._complement for s in spaces]).conj().swapaxes(-1, -2)


def complement_layout(s: Subspace) -> tuple:
    """``kernel.layout`` of s's complement: kept, or unread the C-ordered one its QR will give."""
    (m, d), item = s.basis.shape, s.basis.itemsize
    qr = (m, m - d), s.basis.dtype.char, (m * item, item)  # a complete Q's trailing columns
    return qr if s._complement is None else kernel.layout(s._complement)


def orthogonal_complement(s: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement within the same ambient space."""
    if s.is_trivial:
        return full_subspace(s.ambient_dim)
    return null_space(s.basis.conj().T, tol)


@dataclass(frozen=True, eq=False)  # identity ==, hashable: fields are arrays
class ObliqueProjector:
    """Idempotent matrix with recorded range and null-space bases and spectral norm."""

    matrix: np.ndarray
    range: Subspace
    nullspace: Subspace
    norm: float

    @classmethod
    def from_matrix(cls, p, tol: ToleranceConfig = DEFAULT_TOL) -> "ObliqueProjector":
        """Wrap an explicit idempotent, reading ||p||, R(p) and N(p) off one full SVD; the
        defect ||p p - p|| (Frobenius first) is accepted within ``residual_tol * ||p||^2``."""
        p = as_matrix(p)
        if p.shape[0] != p.shape[1]:
            raise InputError("projector matrix must be square")
        range_, nullspace, norm = range_and_null_space(p, tol)
        budget = tol.residual_tol * (norm * norm)
        defect = kernel.residual_norm(p @ p - p, budget)
        if defect > budget:
            raise InputError(f"matrix is not idempotent (defect {defect:.3e})")
        return cls(p, range_, nullspace, norm)


class GapResult(NamedTuple):
    delta_mn: float
    delta_nm: float
    gap: float


def deviations(bases, n: np.ndarray) -> np.ndarray:
    """Row k is (delta(M_k, N), delta(N, M_k)) for M_k = span(bases[k]) and N = span(n), all
    orthonormal; every row measures one side. The side from the larger subspace is 1 by
    counting: it holds a unit vector orthogonal to the smaller one (Kato 1966, I §6.8), so
    delta(M, {0}) = 1 for M != {0}. At equal dimensions both are the sine of the largest principal
    angle (Stewart & Sun 1990, ch. I), delta(M_k, N). Each measured side is one batched product
    and SVD per layout of the distinct bases."""
    distinct = {id(m): m for m in bases}
    if len(distinct) < len(bases):  # measure each distinct object once, then copy its row
        rows = {key: row for row, key in enumerate(distinct)}
        return deviations(list(distinct.values()), n)[[rows[id(m)] for m in bases]]
    devs = np.ones((len(bases), 2))
    for group in kernel.groups(map(kernel.layout, bases)):
        m = kernel.stack([bases[i] for i in group])
        if m.shape[-1] > n.shape[1]:
            devs[group, 1] = kernel.stack_norms(n - m @ (m.conj().swapaxes(-1, -2) @ n))
        else:  # delta(0, N) = 0 is the empty offside's norm
            devs[group, 0] = kernel.stack_norms(m - n @ (n.conj().T @ m))
            if m.shape[-1] == n.shape[1]:
                devs[group, 1] = devs[group, 0]
    return np.minimum(1.0, devs)


def gap(m: Subspace, n: Subspace) -> GapResult:
    """One-sided deviations and their max, all in [0, 1], of the pair in a fixed order (by the
    bases' layouts, then bytes): gap(n, m) is gap(m, n) with its sides swapped, bit for bit."""
    if m.ambient_dim != n.ambient_dim:
        raise InputError("ambient dimensions differ")
    first, second = sorted((m, n), key=lambda s: (kernel.layout(s.basis), s.basis.tobytes()))
    d_mn, d_nm = deviations([first.basis], second.basis)[0, ::1 if first is m else -1].tolist()
    return GapResult(d_mn, d_nm, max(d_mn, d_nm))


def gap_sampling_oracle(m: Subspace, n: Subspace, trials: int, seed: int) -> float:
    """Brute-force lower bound for the deviation of M from N.

    Samples unit vectors of M through normalized Gaussian coefficients with a
    fixed seed and returns the largest distance to N observed.
    """
    if m.ambient_dim != n.ambient_dim:
        raise InputError("ambient dimensions differ")
    if not (isinstance(trials, (int, np.integer)) and not isinstance(trials, bool) and trials >= 1):
        raise InputError(f"trials must be >= 1 and an integer, got {trials!r}")
    complex_ = np.iscomplexobj(m.basis) or np.iscomplexobj(n.basis)
    # per trial its real parts, then its imaginary ones: the stream of one draw per trial
    draws = np.random.default_rng(seed).standard_normal((trials, 1 + complex_, m.dim))
    coeff = draws[:, 0] + 1j * draws[:, 1] if complex_ else draws[:, 0]
    nrm = np.linalg.norm(coeff, axis=1)
    offset = m.basis - n.basis @ (n.basis.conj().T @ m.basis)  # (I - P_N) M
    # each unit vector's distance to N, a row of coeff / nrm times offset^T; none for M = {0}
    residual = (coeff[nrm > 0.0] / nrm[nrm > 0.0, None]) @ offset.T
    return min(1.0, float(np.linalg.norm(residual, axis=1).max(initial=0.0)))
