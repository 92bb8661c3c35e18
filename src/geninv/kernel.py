"""Dense linear-algebra substrate: SVD, numerical rank, norms, restricted solves.

Everything downstream decides rank questions relative to the largest singular
value and works in the spectral norm. Real and complex matrices are both
supported; complex is the canonical path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, KernelError

_REAL = np.float64
_COMPLEX = np.complex128


def as_matrix(a) -> np.ndarray:
    """Validate and promote input to a 2-d float64/complex128 array.

    Rejects non-finite entries; every public operation goes through here.
    """
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    return _finite_float(arr)


def _finite_float(arr: np.ndarray) -> np.ndarray:
    """as_matrix's promotion to float64/complex128 and finiteness check, for any ndim."""
    arr = arr.astype(_COMPLEX if np.iscomplexobj(arr) else _REAL, copy=False)
    if arr.size and not np.isfinite(arr).all():
        raise InputError("matrix contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by all constructions.

    rank_rel_tol: singular values below ``rank_rel_tol * sigma_max`` count as zero.
    residual_tol: acceptance threshold for certificate residuals, scaled by the
        problem size (see the individual constructions).
    fd_step_sweep: strictly decreasing finite-difference steps.
    """

    rank_rel_tol: float = 1e-10
    residual_tol: float = 1e-10
    fd_step_sweep: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)

    def __post_init__(self):
        if not 0.0 <= self.rank_rel_tol < 1.0:
            raise InputError("rank_rel_tol must lie in [0, 1)")
        if not 0.0 <= self.residual_tol < 1.0:
            raise InputError("residual_tol must lie in [0, 1)")
        steps = tuple(float(s) for s in self.fd_step_sweep)
        if not steps or any(s <= 0.0 for s in steps):
            raise InputError("fd_step_sweep entries must be positive")
        if any(b >= a for a, b in zip(steps, steps[1:])):
            raise InputError("fd_step_sweep must be strictly decreasing")
        object.__setattr__(self, "fd_step_sweep", steps)


DEFAULT_TOL = ToleranceConfig()


def _lapack_svd(a: np.ndarray, **kwargs):
    """np.linalg.svd of a matrix or a stack of them; a LinAlgError becomes a KernelError."""
    try:
        return np.linalg.svd(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise KernelError(
            f"svd did not converge on a {a.shape[-2]}x{a.shape[-1]} matrix"
        ) from exc


def _as_stack(matrices) -> np.ndarray:
    """``as_matrix`` for equal-shape matrices, stacked along a leading axis."""
    stack = np.stack([np.asarray(m) for m in matrices])
    if stack.ndim != 3:
        raise InputError(f"expected 2-d matrices, got ndim={stack.ndim - 1}")
    return _finite_float(stack)


def svd(a, full: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD ``a = u @ diag(sigma) @ v.conj().T`` with orthonormal columns, thin unless ``full``.

    Returns (u, sigma, v), sigma nonincreasing and nonnegative.
    """
    a = as_matrix(a)
    u, sigma, vh = _lapack_svd(a, full_matrices=full)
    return u, sigma, vh.conj().T


def svd_stack(matrices, full: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``svd`` of equal-shape matrices from one batched LAPACK call, stacked along axis 0.

    Each slice is bit-identical to ``svd`` of that matrix alone.
    """
    u, sigma, vh = _lapack_svd(_as_stack(matrices), full_matrices=full)
    return u, sigma, vh.conj().swapaxes(-1, -2)


def singular_values(a) -> np.ndarray:
    a = as_matrix(a)
    if 0 in a.shape:
        return np.zeros(0)
    return _lapack_svd(a, compute_uv=False)


def numerical_rank(sigma, tol: ToleranceConfig = DEFAULT_TOL) -> int | np.ndarray:
    """Count singular values above ``rank_rel_tol * sigma_max``; 0 for sigma_max = 0.

    ``sigma`` is one nonincreasing row (an int is returned) or a stack of rows (one each).
    """
    s = np.asarray(sigma, dtype=float)
    stacked = s.ndim > 1  # a single row keeps the fast scalar cutoff and axis-free count
    largest = s[..., :1] if stacked else (s[0] if s.size else 0.0)
    above = s > tol.rank_rel_tol * largest
    return np.count_nonzero(above, axis=-1) if stacked else int(np.count_nonzero(above))


def spectral_norm(a) -> float:
    """Largest singular value; 0 exactly for empty or zero matrices."""
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


def spectral_norms(matrices) -> np.ndarray:
    """``spectral_norm`` of each matrix, from one batched SVD per (shape, field) group."""
    mats = [np.asarray(m) for m in matrices]
    groups: dict[tuple, list[int]] = {}
    for i, m in enumerate(mats):
        if m.size:
            groups.setdefault((m.shape, np.iscomplexobj(m)), []).append(i)
    norms = np.zeros(len(mats))
    for members in groups.values():
        norms[members] = _lapack_svd(_as_stack(mats[i] for i in members), compute_uv=False)[:, 0]
    return norms


def residual_norm(a, budget: float) -> float:
    """Frobenius norm of ``a`` if within ``budget`` (it bounds the spectral norm), else the
    exact spectral norm; the result exceeds ``budget`` exactly when the spectral norm does."""
    fro = _frobenius(a)
    if fro == np.inf:  # the squared entries overflowed: rescale by the largest one
        scale = float(np.max(np.abs(a)))
        if scale < np.inf:
            fro = scale * _frobenius(a / scale)
    return fro if fro <= budget else spectral_norm(a)


def _frobenius(a) -> float:
    """``np.linalg.norm(a)``, summed the same way and so bit-identical, but through vdot,
    which checks no floating-point flags: an overflow gives inf without a warning."""
    x = np.asarray(a).ravel(order="K")
    if np.iscomplexobj(x):
        return math.sqrt(np.vdot(x.real, x.real) + np.vdot(x.imag, x.imag))
    return math.sqrt(np.vdot(x, x))
