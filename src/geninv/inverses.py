"""Generalized inverses with prescribed range and null space.

The central construction is the outer inverse of ``a`` that has a prescribed
range T (in the domain of ``a``) and a prescribed null space S (in its
codomain): it exists iff ``a`` restricted to T is injective and a(T) and S
decompose the codomain, in which case it inverts ``a`` on a(T) and kills S.
Every other inverse here is that construction with specific subspaces:

  moore_penrose   T = range(a*),  S = null(a*)
  bc_inverse      T = range(b),   S = null(c)
  bott_duffin     T = range(p),   S = null(q)   for idempotents p, q
  inverse_along   T = range(d),   S = null(d)

All are built as ``X = F (H A F)^{-1} H`` (Wei 1998; Sheng & Chen 2007), F an
orthonormal basis of T and H orthonormal rows spanning S's orthogonal complement;
existence clauses and certificates reuse its factorizations. A construction
whose residuals exceed tolerance is rejected rather than returned.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import kernel
from .errors import CertificateError, ExistenceError, InputError
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix, spectral_norm
from .subspace import (
    ObliqueProjector,
    Subspace,
    direct_sum_check,
    range_and_null_space,
    trivial_subspace,
)


@dataclass(frozen=True, eq=False)  # identity ==, hashable: fields are arrays
class InverseCertificate:
    """An inverse candidate bundled with the evidence that it is one.

    residuals maps each defining equation to the norm of its defect: the
    Frobenius norm (an upper bound on the spectral norm), or the exact
    spectral norm where that bound exceeded the budget. restricted_condition
    is the condition number of ``a`` restricted to the prescribed range;
    range_gap / nullspace_gap are containment upper bounds on the gaps between
    the computed inverse's subspaces and the prescribed ones;
    complement_margin is the smallest singular value of the direct-sum test
    [a(T) | S] that granted existence. operator_norm and inverse_norm are ||a|| and
    ||inverse||, read off the construction's own factorizations.
    """

    inverse: np.ndarray
    kind: str
    residuals: dict[str, float]
    restricted_condition: float
    range_gap: float
    nullspace_gap: float
    complement_margin: float
    operator: np.ndarray
    prescribed_range: Subspace
    prescribed_nullspace: Subspace
    operator_norm: float
    inverse_norm: float


def _certify(defects: dict[str, tuple[np.ndarray, float]], tol: ToleranceConfig, kind: str):
    """Norms of the (defect, scale) pairs, each accepted within ``residual_tol * scale``. A
    scale is the product of the norms of the equation's factors (||a|| ||b|| ||a|| for aba - a):
    a normwise backward error (Higham 2002, ch. 7), so no decision depends on the unit of a."""
    residuals = {}
    for name, (defect, scale) in defects.items():
        budget = tol.residual_tol * scale
        value = kernel.residual_norm(defect, budget)
        if value > budget:
            raise CertificateError(
                f"{kind} certificate rejected: residual {name}={value:.3e} "
                f"exceeds budget {budget:.3e}",
                margin=value,
            )
        residuals[name] = value
    return residuals


@contextmanager
def _existence_prefixed(prefix: str):
    """Re-raise an ExistenceError (not a CertificateError) with ``prefix`` on its message."""
    try:
        yield
    except ExistenceError as exc:
        if isinstance(exc, CertificateError):
            raise
        raise ExistenceError(f"{prefix}: {exc}", clause=exc.clause, margin=exc.margin) from exc


def _containment_gaps(x, f, s_basis, core_sigma, tol: ToleranceConfig) -> tuple[float, float]:
    """Upper bounds on gap(R(x), T) and gap(N(x), S) for ``x = F core^-1 H``.

    x has smallest nonzero singular value 1/||core||, so ||core|| times ||(I - FF*) x||
    or ||x S||, each plus 2 dim eps ||x||_F for the rounding of its two products, bounds
    how far R(x) leaves T or S leaves N(x). Past the rank cutoff the gap is 1.
    """
    if core_sigma.size == 0:
        return 0.0, 0.0
    if kernel.numerical_rank(core_sigma, tol) < core_sigma.size:
        return 1.0, 1.0
    rounding = 2 * max(x.shape) * np.finfo(float).eps * np.linalg.norm(x)
    off_range = (np.linalg.norm(x - f @ (f.conj().T @ x)) + rounding) * core_sigma[0]
    off_null = (np.linalg.norm(x @ s_basis) + rounding) * core_sigma[0]
    return min(1.0, float(off_range)), min(1.0, float(off_null))


def moore_penrose(a, tol: ToleranceConfig = DEFAULT_TOL) -> InverseCertificate:
    """Moore-Penrose inverse from one full SVD, inverting singular values above the cutoff.

    That SVD also gives T = range(a*), S = null(a*), ||a|| = sigma_1 and ||b|| = 1 / sigma_r.
    """
    a = as_matrix(a)
    m, n = a.shape
    u, sigma, v, r = kernel.svd_at_rank(a, tol, full=True)
    f, s_basis = v[:, :r], u[:, r:]
    b = (f / sigma[:r]) @ u[:, :r].conj().T
    anorm, bnorm = (float(sigma[0]), float(1.0 / sigma[r - 1])) if r else (0.0, 0.0)
    ab, ba = a @ b, b @ a
    defects = {
        "aba": (ab @ a - a, anorm * bnorm * anorm),
        "bab": (ba @ b - b, bnorm * anorm * bnorm),
        "ab_hermitian": (ab.conj().T - ab, anorm * bnorm),
        "ba_hermitian": (ba.conj().T - ba, anorm * bnorm),
    }
    condition = float(sigma[0] / sigma[r - 1]) if r else 1.0
    residuals = _certify(defects, tol, "moore_penrose")
    range_gap, nullspace_gap = _containment_gaps(b, f, s_basis, sigma[:r], tol)
    return InverseCertificate(
        inverse=b,
        kind="moore_penrose",
        residuals=residuals,
        restricted_condition=condition,
        range_gap=range_gap,
        nullspace_gap=nullspace_gap,
        complement_margin=1.0,
        operator=a,
        prescribed_range=Subspace(n, f, tol),
        prescribed_nullspace=Subspace(m, s_basis, tol),
        operator_norm=anorm,
        inverse_norm=bnorm,
    )


def outer_prescribed(
    a, t: Subspace, s: Subspace, tol: ToleranceConfig = DEFAULT_TOL
) -> InverseCertificate:
    """Outer inverse of ``a`` with range T and null space S.

    ``a`` may be rectangular (m x n); T lives in the domain C^n, S in the
    codomain C^m. Existence requires the restriction of ``a`` to T to be
    injective and a(T) (+) S to fill the codomain; each failure is reported
    with the violated clause and the deciding margin.
    """
    return _outer(a, t, s, tol, "outer_prescribed")


def _complement_failure(margin: float) -> ExistenceError:
    clause = "R(A*T) (+) S != Y"
    return ExistenceError(f"complement fails: {clause}", clause=clause, margin=margin)


def _outer(a, t: Subspace, s: Subspace, tol: ToleranceConfig, kind: str):
    """outer_prescribed's certificate, recorded as ``kind``; ||x|| = 1 / sigma_min(core)."""
    a = as_matrix(a)
    m, n = a.shape
    if t.ambient_dim != n:
        raise InputError("prescribed range does not live in the domain of a")
    if s.ambient_dim != m:
        raise InputError("prescribed null space does not live in the codomain of a")
    anorm = spectral_norm(a)

    if t.is_trivial:
        check = direct_sum_check(trivial_subspace(m), s, tol)
        if not check.holds:
            raise _complement_failure(check.margin)
        x, core_sigma = np.zeros((n, m), dtype=a.dtype), np.zeros(0)
        margin, condition = check.margin, 1.0
        xnorm, residuals = 0.0, {"xax_x": 0.0}
    else:
        restricted = a @ t.basis
        image, sig, _ = kernel.svd(restricted)
        smin = float(sig[t.dim - 1]) if sig.size >= t.dim else 0.0
        if t.dim > m or smin <= tol.rank_rel_tol * anorm:
            clause = "restriction not injective"
            raise ExistenceError(clause, clause=clause, margin=smin)
        if t.dim + s.dim != m:
            raise _complement_failure(direct_sum_check(Subspace(m, image, tol), s, tol).margin)
        q, _ = np.linalg.qr(s.basis, mode="complete")
        h = q[:, s.dim :].conj().T
        # sigma_min([image | S]) = sin / sqrt(1 + cos) at the smallest angle between a(T)
        # and S; cos is measured along that angle, as sqrt(1 - sin^2) cancels near sin = 1
        _, sines, w = kernel.svd(h @ image)
        cosine = np.linalg.norm(s.basis.conj().T @ (image @ w[:, -1]))
        margin = float(sines[-1] / np.sqrt(1.0 + cosine))
        if margin <= tol.rank_rel_tol:
            raise _complement_failure(margin)
        cu, core_sigma, cv = kernel.svd(h @ restricted)
        x = (t.basis @ (cv / core_sigma)) @ (cu.conj().T @ h)
        xnorm = float(1.0 / core_sigma[-1])
        residuals = _certify({"xax_x": (x @ a @ x - x, xnorm * anorm * xnorm)}, tol, kind)
        condition = float(sig[0] / smin)
    range_gap, nullspace_gap = _containment_gaps(x, t.basis, s.basis, core_sigma, tol)
    return InverseCertificate(
        inverse=x,
        kind=kind,
        residuals=residuals,
        restricted_condition=condition,
        range_gap=range_gap,
        nullspace_gap=nullspace_gap,
        complement_margin=margin,
        operator=a,
        prescribed_range=t,
        prescribed_nullspace=s,
        operator_norm=anorm,
        inverse_norm=xnorm,
    )


def bc_inverse(a, b, c, tol: ToleranceConfig = DEFAULT_TOL) -> InverseCertificate:
    """The (b, c)-inverse: outer inverse with range R(b) and null space N(c).

    Requires square operands of equal size. The certificate additionally
    records the residuals of the absorption equations b = x a b and c = c a x.
    R(b) and ||b|| come off one SVD of b, N(c) and ||c|| off one of c.
    """
    u, bsigma, _, br = kernel.svd_at_rank(b, tol)
    _, csigma, v, cr = kernel.svd_at_rank(c, tol, full=True)
    t, s = Subspace(u.shape[0], u[:, :br], tol), Subspace(v.shape[0], v[:, cr:], tol)
    return _bc(a, b, c, t, s, kernel.sigma_max(bsigma), kernel.sigma_max(csigma), tol)


def _bc(a, b, c, t: Subspace, s: Subspace, bnorm: float, cnorm: float, tol: ToleranceConfig):
    """bc_inverse's certificate, given T = R(b), S = N(c), ||b|| and ||c|| read by its caller."""
    a, b, c = (as_matrix(m) for m in (a, b, c))
    if a.shape[0] != a.shape[1] or a.shape != b.shape or a.shape != c.shape:
        raise InputError("bc_inverse needs square a, b, c of equal size")
    with _existence_prefixed("(B,C)-inverse does not exist"):
        cert = _outer(a, t, s, tol, "bc")
    x, anorm, xnorm = cert.inverse, cert.operator_norm, cert.inverse_norm
    defects = {
        "xab_b": (x @ a @ b - b, xnorm * anorm * bnorm),
        "cax_c": (c @ a @ x - c, cnorm * anorm * xnorm),
    }
    extra = _certify(defects, tol, "bc")
    return replace(cert, residuals={**cert.residuals, **extra})


def bott_duffin(
    a, p: ObliqueProjector, q: ObliqueProjector, tol: ToleranceConfig = DEFAULT_TOL
) -> InverseCertificate:
    """The (p, q)-inverse for idempotents p, q: range R(p), null space N(q), as p and q
    record them; x a p = p, p x = x and q a x = q tie those to the matrices."""
    cert = _bc(a, p.matrix, q.matrix, p.range, q.nullspace, p.norm, q.norm, tol)
    x, xnorm, pm, qm = cert.inverse, cert.inverse_norm, p.matrix, q.matrix
    defects = {"py_y": (pm @ x - x, p.norm * xnorm), "yq_y": (x @ qm - x, xnorm * q.norm)}
    extra = _certify(defects, tol, "bott_duffin")
    # y a p - p and q a y - q are the (p, q) absorption defects, certified by _bc
    extra.update(yap_p=cert.residuals["xab_b"], qay_q=cert.residuals["cax_c"])
    return replace(cert, kind="bott_duffin", residuals={**cert.residuals, **extra})


def inverse_along(a, d, tol: ToleranceConfig = DEFAULT_TOL) -> InverseCertificate:
    """Inverse of ``a`` along ``d``: the (d, d)-inverse, from one full SVD of d.

    Its defining equations x a d = d = d a x are the (d, d) absorption
    residuals, which ``_bc`` certifies.
    """
    t, s, dnorm = range_and_null_space(d, tol)
    with _existence_prefixed("not invertible along D"):
        cert = _bc(a, d, d, t, s, dnorm, dnorm, tol)
    along = {"xad_d": cert.residuals["xab_b"], "dax_d": cert.residuals["cax_c"]}
    return replace(cert, kind="along", residuals={**cert.residuals, **along})


def reflexive_inverse(
    f, n_complement: Subspace, m_complement: Subspace, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Reflexive generalized inverse of ``f`` with range N and null space M.

    N must complement the kernel of ``f`` in the domain and M must complement
    its range in the codomain; the result inverts ``f`` between N and R(f) and
    vanishes on M.
    """
    f = as_matrix(f)
    ran, kern, _ = range_and_null_space(f, tol)
    dom = direct_sum_check(kern, n_complement, tol)
    if not dom.holds:
        raise ExistenceError(
            "complement fails: N(F) (+) N != X",
            clause="N(F) (+) N != X",
            margin=dom.margin,
        )
    cod = direct_sum_check(ran, m_complement, tol)
    if not cod.holds:
        raise ExistenceError(
            "complement fails: R(F) (+) M != Y",
            clause="R(F) (+) M != Y",
            margin=cod.margin,
        )
    return outer_prescribed(f, n_complement, m_complement, tol).inverse


def left_regular(a, k: int) -> np.ndarray:
    """Matrix of x -> a x on k x k matrices under column-stacking vectorization."""
    a = as_matrix(a)
    if a.shape != (k, k):
        raise InputError(f"expected a {k}x{k} matrix, got {a.shape}")
    return np.kron(np.eye(k), a)


def right_regular(a, k: int) -> np.ndarray:
    """Matrix of x -> x a on k x k matrices under column-stacking vectorization."""
    a = as_matrix(a)
    if a.shape != (k, k):
        raise InputError(f"expected a {k}x{k} matrix, got {a.shape}")
    return np.kron(a.T, np.eye(k))
