"""Independent reference results for the benchmark's output checks.

Nothing here calls geninv. Outer inverses come from the full-rank
representation X = T (C A T)^{-1} C, where T spans the prescribed range and
the rows of C span the annihilator of the prescribed null space S; the
Moore-Penrose inverse comes from np.linalg.pinv. Rank decisions use the
library's default relative cutoff so both sides see the same subspaces.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-10


def _svd_rank(sigma: np.ndarray) -> int:
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > RANK_RTOL * sigma[0]))


def range_basis(x) -> np.ndarray:
    """Orthonormal basis of the column space of x."""
    u, sigma, _ = np.linalg.svd(x, full_matrices=False)
    return u[:, : _svd_rank(sigma)]


def complement_basis(x) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column space of x."""
    u, sigma, _ = np.linalg.svd(x, full_matrices=True)
    return u[:, _svd_rank(sigma):]


def outer_inverse(a, t, s_perp) -> np.ndarray:
    """Outer inverse of a with range span(t) and null space orthogonal to span(s_perp)."""
    c = np.asarray(s_perp).conj().T
    return t @ np.linalg.solve(c @ a @ t, c)


def bc_inverse(a, b, c) -> np.ndarray:
    """(b, c)-inverse: range R(b), null space N(c) = R(c*)^perp."""
    return outer_inverse(a, range_basis(b), range_basis(np.asarray(c).conj().T))


def pinv(a) -> np.ndarray:
    return np.linalg.pinv(a, rtol=RANK_RTOL)


def gap(m, n) -> float:
    """Gap between the column spaces of m and n in the spectral norm."""
    qm, qn = range_basis(m), range_basis(n)
    return max(
        np.linalg.norm(qm - qn @ (qn.conj().T @ qm), 2),
        np.linalg.norm(qn - qm @ (qm.conj().T @ qn), 2),
    )


def rel_error(x, ref) -> float:
    """Frobenius-norm error of x relative to ref (absolute when ref is zero)."""
    x = np.asarray(x)
    if x.shape != np.shape(ref):
        return float("inf")
    scale = np.linalg.norm(ref)
    return float(np.linalg.norm(x - ref) / (scale if scale > 0.0 else 1.0))
