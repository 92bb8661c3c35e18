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

    Rejects non-finite entries and anything numpy cannot convert to numbers (ragged rows,
    non-numeric objects or strings); every public operation goes through here.
    """
    try:
        arr = np.asarray(a)
        if arr.ndim != 2:
            raise InputError(f"expected a 2-d matrix, got ndim={arr.ndim}")
        return _finite_float(arr)
    except (TypeError, ValueError) as exc:  # numpy's conversion errors; not an InputError
        raise InputError(f"not a numeric matrix: {exc}") from None


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
    residual_tol: relative acceptance threshold for certificate residuals: each
        is accepted within residual_tol times the norms of its equation's factors.
    fd_step_sweep: strictly decreasing finite-difference steps, each in (0, inf).
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
        if not steps or not all(0.0 < s < math.inf for s in steps):
            raise InputError("fd_step_sweep entries must be positive and finite")
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


def layout(a: np.ndarray) -> tuple:
    """Shape, field and memory order of a matrix (or row): what a BLAS product of it reads."""
    return a.shape, a.dtype.char, a.strides[0] < a.strides[-1]


def stack(matrices) -> np.ndarray:
    """Matrices of one ``layout`` on a new axis 0, each slice in its memory order (one: a view)."""
    if len(matrices) == 1:
        return matrices[0][None]
    if layout(matrices[0])[2]:
        return np.stack([m.T for m in matrices]).swapaxes(-1, -2)
    return np.stack(matrices)


def groups(keys) -> list[list[int]]:
    """Indices of equal keys, each group in order, groups in order of first appearance."""
    found: dict = {}
    for i, key in enumerate(keys):
        found.setdefault(key, []).append(i)
    return list(found.values())


def svd(a, full: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD ``a = u @ diag(sigma) @ v.conj().T`` with orthonormal columns, thin unless ``full``.

    Returns (u, sigma, v), sigma nonincreasing and nonnegative: ``svd_stack`` of a stack of one.
    """
    u, sigma, v = svd_stack(as_matrix(a)[None], full)
    return u[0], sigma[0], v[0]


def svd_stack(stack: np.ndarray, full: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``svd`` of each slice of a 3-d stack, from one batched LAPACK call.

    Rejects non-finite entries: LAPACK would return NaN singular values without an error.
    """
    u, sigma, vh = _lapack_svd(_finite_float(stack), full_matrices=full)
    return u, sigma, vh.conj().swapaxes(-1, -2)


def singular_values(a) -> np.ndarray:
    return _lapack_svd(as_matrix(a), compute_uv=False)


def numerical_rank(sigma, tol: ToleranceConfig = DEFAULT_TOL) -> int | np.ndarray:
    """Count singular values above ``rank_rel_tol * sigma_max``; 0 for sigma_max = 0.

    ``sigma`` is one nonincreasing row (an int is returned) or a stack of rows (one each).
    """
    s = np.asarray(sigma, dtype=float)
    if s.ndim > 1:
        return (s > tol.rank_rel_tol * s[:, :1]).sum(axis=-1)
    above = s > tol.rank_rel_tol * (s[0] if s.size else 0.0)
    return int(np.count_nonzero(above))


def sigma_max(sigma) -> float:
    """First entry of a nonincreasing singular-value row; 0 for an empty one."""
    return float(sigma[0]) if sigma.size else 0.0


def spectral_norm(a) -> float:
    """Largest singular value; 0 exactly for empty or zero matrices."""
    return sigma_max(singular_values(a))


def stack_norms(stack: np.ndarray) -> np.ndarray:
    """``spectral_norm`` of each slice of a 3-d stack, from one LAPACK call; inf for a slice
    with an inf or NaN entry (an overflowed product), as ``residual_norm`` gives."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    safe = stack if finite.all() else np.where(finite[:, None, None], stack, 0.0)
    norms = _lapack_svd(safe, compute_uv=False)[:, 0] if stack.size else np.zeros(len(stack))
    return np.where(finite, norms, math.inf)


def residual_norm(a, budget: float = math.inf) -> float:
    """Frobenius norm of ``a`` if within ``budget`` (none by default), else the exact
    spectral norm; the result exceeds ``budget`` exactly when the spectral norm does.
    An inf or NaN entry (an overflowed product) gives inf."""
    fro = _frobenius(a)
    if not 1e-150 < fro < np.inf:  # the squares overflowed or may underflow: rescale
        scale = float(np.max(np.abs(a), initial=0.0))
        if not scale < np.inf:
            return math.inf
        if scale > 0.0:
            fro = scale * _frobenius(a, scale)
    return fro if fro <= budget else spectral_norm(a)


def _frobenius(a, scale: float = 1.0) -> float:
    """``np.linalg.norm(a / scale)``, summed the same way but through vdot, which checks no
    floating-point flags. A complex a is scaled by parts: numpy divides a complex array by
    multiplying by 1 / scale, which overflows for a subnormal scale."""
    x = np.asarray(a).ravel(order="K")
    parts = [x.real, x.imag] if np.iscomplexobj(x) else [x]
    return math.sqrt(sum(np.vdot(p, p) for p in (q / scale if scale != 1.0 else q for q in parts)))
