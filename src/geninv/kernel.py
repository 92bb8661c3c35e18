"""Dense linear-algebra substrate: SVD, numerical rank, norms and Cayley transforms.

Everything downstream decides rank questions relative to the largest singular
value and works in the spectral norm. Real and complex matrices are both
supported; complex is the canonical path.
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, InputError, KernelError

_REAL = np.float64
_COMPLEX = np.complex128
FRO_LOW = 1e-150  # a Frobenius norm below it may have underflowed in its squares: rescale


def as_matrix(a, ndim: int = 2) -> np.ndarray:
    """Validate and promote input to a 2-d float64/complex128 array (ndim=3: a stack of them).

    Rejects non-finite entries and anything numpy cannot convert to numbers (ragged rows,
    non-numeric objects or strings); every public operation goes through here.
    """
    try:
        arr = np.asarray(a)
        if arr.ndim != ndim:
            kind = "matrix" if ndim == 2 else "stack"
            raise InputError(f"expected a {ndim}-d {kind}, got ndim={arr.ndim}")
        arr = arr.astype(_COMPLEX if arr.dtype.kind == "c" else _REAL, copy=False)
    except (TypeError, ValueError) as exc:  # numpy's conversion errors; not an InputError
        raise InputError(f"not a numeric matrix: {exc}") from None
    if not np.isfinite(arr).all():
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
        try:  # a string or None compares or converts with a TypeError or ValueError
            for name in ("rank_rel_tol", "residual_tol"):
                if not 0.0 <= getattr(self, name) < 1.0:
                    raise InputError(f"{name} must lie in [0, 1)")
            if isinstance(self.fd_step_sweep, str):  # its characters would read as steps
                raise InputError("fd_step_sweep must be a sequence of steps")
            steps = tuple(float(s) for s in self.fd_step_sweep)
        except (TypeError, ValueError) as exc:
            raise InputError(f"tolerances must be numbers: {exc}") from None
        if not steps or not all(0.0 < s < math.inf for s in steps):
            raise InputError("fd_step_sweep entries must be positive and finite")
        if any(b >= a for a, b in zip(steps, steps[1:])):
            raise InputError("fd_step_sweep must be strictly decreasing")
        object.__setattr__(self, "fd_step_sweep", steps)


DEFAULT_TOL = ToleranceConfig()


# Smallest stack whose SVD is split over two threads, in bytes (a complex entry counts twice).
# Sized on 2 cores, BLAS on one thread, serial -> split, medians of 41-61 interleaved runs:
#   with vectors, 51x20x20 real 3.6 -> 2.2 ms, complex 5.2 -> 3.0; 51x10x10 0.92 -> 0.58;
#   51x12x12 1.33 -> 0.95; 2x64x64 real 1.38 -> 1.00, complex 3.1 -> 1.8; 51x8x8 complex
#   0.89 -> 0.63; below it, 2x32x32 real 0.29 -> 0.38 and 2x40x40 0.58 -> 0.60;
#   values only, 150x20x20 5.7 -> 3.3 ms, 150x8x8 1.1 -> 0.87; below it, 252x4x4 0.63 -> 0.65.
SPLIT_MIN_BYTES = 40_000
# numpy's values-only gufunc holds the GIL through a call returning at most this many singular
# values (126x4x4 lets it go, 125x4x4 does not), so such halves run one after the other: 50x20x20
# 1.8 -> 1.9 ms, 104x8x8 0.72 -> 1.03, 2x256x256 12.4 -> 14.4.
GIL_HELD_MAX_VALUES = 500
_worker: list = [None, None]  # the one worker thread's executor and the pid that made it


def _lapack_svd(a: np.ndarray, **kwargs) -> list:
    """np.linalg.svd of a matrix or a stack as a list of results: one, or two for a stack of >= 2
    slices and at least SPLIT_MIN_BYTES whose halves each return vectors or more than
    GIL_HELD_MAX_VALUES singular values: its first half's, factored on the worker thread while
    this one factors the second. Each slice takes the same gufunc call, so its factors are bitwise
    the serial ones. A LinAlgError from either half becomes a KernelError."""
    svd = np.linalg.svd  # looked up per call, so a wrapper sees both halves
    try:
        if not (a.ndim == 3 and len(a) > 1 and a.nbytes >= SPLIT_MIN_BYTES and (
                kwargs.get("compute_uv", True) or len(a) // 2 * min(a.shape[1:]) > GIL_HELD_MAX_VALUES)):
            return [svd(a, **kwargs)]
        if _worker[1] != os.getpid():  # none yet, or inherited across a fork: it has no thread
            from concurrent.futures import ThreadPoolExecutor  # here: its import takes ~10 ms
            _worker[:] = ThreadPoolExecutor(1), os.getpid()
        half = len(a) // 2  # the worker runs in a copy of this context: numpy's error state
        first = _worker[0].submit(contextvars.copy_context().run, svd, a[:half], **kwargs)
        try:
            second = svd(a[half:], **kwargs)
        finally:  # every result is read, the worker's error too, and the worker is left idle
            first = first.result()
        return [first, second]
    except np.linalg.LinAlgError as exc:
        raise KernelError(f"svd did not converge on a {a.shape[-2]}x{a.shape[-1]} matrix") from exc


def _singular_values(a: np.ndarray) -> np.ndarray:
    """The singular values of a matrix, or of each slice of a stack, from both halves of a split."""
    parts = _lapack_svd(a, compute_uv=False)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


layout = operator.attrgetter("shape", "dtype.char", "strides")  # how BLAS reads a matrix


def stack(matrices) -> np.ndarray:
    """Matrices of one ``layout`` on a new axis 0 (one: a view), each slice with their strides: a
    BLAS product of a slice then rounds as one of the matrix alone."""
    first, k = matrices[0], len(matrices)
    if k == 1:
        return first[None]
    if first.flags.c_contiguous or min(first.strides) < 0:
        return np.stack(matrices)
    span = sum((d - 1) * s for d, s in zip(first.shape, first.strides)) // first.itemsize + 1
    return np.stack(matrices, out=np.ndarray((k, *first.shape), first.dtype, np.empty(
        k * span, first.dtype), strides=(span * first.itemsize, *first.strides)))


def groups(keys) -> list[list[int]]:
    """Indices of equal keys, each group in order, groups in order of first appearance."""
    found: dict = {}
    for i, key in enumerate(keys):
        found.setdefault(key, []).append(i)
    return list(found.values())


def cayley(k_mat: np.ndarray, t) -> np.ndarray:
    """Unitary Cayley transform of a skew-Hermitian matrix, smooth in t; for an array of t, the
    stack of transforms, from one batched solve."""
    half, eye = np.asarray(t, dtype=float)[..., None, None] / 2.0, np.eye(k_mat.shape[0])
    return np.linalg.solve(eye - half * k_mat, eye + half * k_mat)


def svd_stack(stack: np.ndarray, full: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, sigma, v), a = u diag(sigma) v* thin unless ``full`` and sigma nonincreasing, of each
    float slice a of a 3-d stack of the library's own products, from one batched LAPACK call.
    Inputs reach ``svds`` through ``as_matrix``, so an inf or NaN entry here is an overflow in a
    product, refused as a certificate is: LAPACK may not return on it."""
    if not np.isfinite(stack).all():
        raise CertificateError("an intermediate product is not finite")
    parts = _lapack_svd(stack, full_matrices=full)
    u, sigma, vh = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return u, sigma, vh.conj().swapaxes(-1, -2)


def svds(matrices, tol: ToleranceConfig, full: bool = True) -> list[tuple]:
    """(u, sigma, v, rank) of each matrix ``as_matrix`` validated, by one LAPACK call per shape and
    field with no second finiteness pass: its SVD as ``svd_stack`` gives it, and ``numerical_rank``.
    LAPACK reads each slice from its own C-ordered copy: the factors are bitwise the matrix's alone,
    any strides."""
    found: dict = {}
    for group in groups([(m.shape, m.dtype.char) for m in matrices]):
        slices = []  # each half of a split stack read where it lies
        for u, sigma, vh in _lapack_svd(np.array([matrices[i] for i in group]), full_matrices=full):
            slices += zip(u, sigma, vh.conj().swapaxes(-1, -2), numerical_rank(sigma, tol).tolist())
        found.update(zip(group, slices))
    return [found[i] for i in range(len(matrices))]


def complements(bases) -> np.ndarray:
    """Orthonormal columns completing each orthonormal basis of one ``layout`` to a unitary: the
    trailing columns of its complete QR, from one batched LAPACK call, as a 3-d stack."""
    return np.linalg.qr(stack(bases), mode="complete")[0][:, :, bases[0].shape[1]:]


def singular_values(a) -> np.ndarray:
    return _singular_values(as_matrix(a))


def numerical_rank(sigma, tol: ToleranceConfig = DEFAULT_TOL) -> int | np.ndarray:
    """Count singular values above ``rank_rel_tol * sigma_max``; 0 for sigma_max = 0.

    ``sigma`` is one nonincreasing row (an int is returned) or a stack of rows (one each), each
    counted by the one expression, against its own first entry.
    """
    s = np.asarray(sigma, dtype=float)
    ranks = (s > tol.rank_rel_tol * s[..., :1]).sum(axis=-1)
    return int(ranks) if s.ndim == 1 else ranks


def sigma_max(sigma) -> float:
    """First entry of a nonincreasing singular-value row; 0 for an empty one."""
    return float(sigma[0]) if sigma.size else 0.0


def spectral_norm(a) -> float:
    """Largest singular value; 0 exactly for empty or zero matrices."""
    return sigma_max(singular_values(a))


def stack_norms(*stacks: np.ndarray) -> np.ndarray:
    """``spectral_norm`` of each slice of the 3-d stacks, in order, from one LAPACK call per slice
    shape and field; inf for a slice with an inf or NaN entry (an overflowed product), as
    ``residual_norm`` gives."""
    norms = [None] * len(stacks)
    for group in groups([(s.shape[1:], s.dtype.char) for s in stacks]):
        whole = stacks[group[0]] if len(group) == 1 else np.concatenate([stacks[i] for i in group])
        finite = np.isfinite(whole).all(axis=(-2, -1))
        safe = whole if finite.all() else np.where(finite[:, None, None], whole, 0.0)
        found = _singular_values(safe)[:, 0] if whole.size else np.zeros(len(whole))
        found, start = np.where(finite, found, math.inf), 0
        for i in group:  # each stack's slices, where the group holds them
            norms[i], start = found[start:start + len(stacks[i])], start + len(stacks[i])
    return norms[0] if len(stacks) == 1 else np.concatenate(norms)


def frobenius_norms(stack: np.ndarray) -> list[float]:
    """``_frobenius`` of each C-ordered slice of a 3-d stack (as products are), bit for bit: one
    strided BLAS dot per slice and part (real, then imaginary), their sum and root on floats."""
    if stack.dtype.char == "D":  # the real and imaginary parts on a last axis
        parts = stack.reshape(len(stack), -1).view(np.float64).reshape(len(stack), -1, 2)
        return list(map(math.sqrt, map(sum, np.vecdot(parts, parts, axis=-2).tolist())))
    rows = stack.reshape(len(stack), -1)
    return list(map(math.sqrt, np.vecdot(rows, rows).tolist()))


def residual_norm(a, budget: float = math.inf, fro: float | None = None) -> float:
    """Frobenius norm of ``a`` (``fro``, where already taken) if within ``budget`` (none by
    default), else the exact spectral norm; the result exceeds ``budget`` exactly when the
    spectral norm does. An inf or NaN entry (an overflowed product) gives inf."""
    fro = _frobenius(a) if fro is None else fro
    if not FRO_LOW < fro < np.inf:  # the squares overflowed or may underflow: rescale
        scale = float(np.maximum.reduce(np.abs(a), axis=None, initial=0.0))
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
