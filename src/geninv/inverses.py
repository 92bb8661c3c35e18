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

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernel
from .errors import CertificateError, ExistenceError, InputError
# spectral_norm is not called here, but tracers that rebind it in this namespace expect it
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix, spectral_norm  # noqa: F401
from .subspace import (
    ObliqueProjector,
    Subspace,
    direct_sum_check,
    orthonormal_span,
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
    a normwise backward error (Higham 2002, ch. 7), so no decision depends on the unit of a.
    A defect that overflowed (an inf or NaN entry) is refused whatever its budget."""
    residuals = {}
    for name, (defect, scale) in defects.items():
        budget = tol.residual_tol * scale
        value = kernel.residual_norm(defect, budget)
        if value > budget or value == math.inf:
            excess = "is not finite" if value == math.inf else f"exceeds budget {budget:.3e}"
            raise CertificateError(
                f"{kind} certificate rejected: residual {name}={value:.3e} {excess}",
                margin=value,
            )
        residuals[name] = value
    return residuals


def _one(results: list):
    """The result of a stack of one: its certificate, or its ExistenceError raised."""
    if isinstance(results[0], ExistenceError):
        raise results[0]
    return results[0]


def _prefixed(prefix: str, results: list) -> list:
    """``results`` with ``prefix`` on each ExistenceError's message (not a CertificateError's)."""
    return [ExistenceError(f"{prefix}: {r}", clause=r.clause, margin=r.margin)
            if type(r) is ExistenceError else r for r in results]


def _certificate(defects: dict, tol, core_sigma, x, kind, condition, margin, a, t, s, *norms):
    """x's certificate (the fields in InverseCertificate's order, its residuals and gaps
    aside), or the CertificateError of the first defect over its budget.

    For ``x = F core^-1 H`` the gaps bound gap(R(x), T) and gap(N(x), S): x has smallest nonzero
    singular value 1/||core||, so ||core|| times ||(I - FF*) x|| or ||x S||, each plus 2 dim eps
    ||x||_F for the rounding of its two products, bounds how far R(x) leaves T or S leaves N(x).
    Past the rank cutoff the gap is 1."""
    try:
        residuals = _certify(defects, tol, kind)
    except CertificateError as exc:
        return exc
    gaps = (0.0, 0.0) if core_sigma.size == 0 else (1.0, 1.0)
    if core_sigma.size and kernel.numerical_rank(core_sigma, tol) == core_sigma.size:
        rounding = 2 * max(x.shape) * np.finfo(float).eps * np.linalg.norm(x)
        off_range = np.linalg.norm(x - t.basis @ (t.basis.conj().T @ x)) + rounding
        off_null = np.linalg.norm(x @ s.basis) + rounding
        gaps = min(1.0, float(off_range * core_sigma[0])), min(1.0, float(off_null * core_sigma[0]))
    return InverseCertificate(x, kind, residuals, condition, *gaps, margin, a, t, s, *norms)


def moore_penrose(a, tol: ToleranceConfig = DEFAULT_TOL) -> InverseCertificate:
    """Moore-Penrose inverse from one full SVD, inverting singular values above the cutoff.

    That SVD also gives T = range(a*), S = null(a*), ||a|| = sigma_1 and ||b|| = 1 / sigma_r.
    """
    return _one(moore_penrose_stack([a], tol))


def moore_penrose_stack(matrices, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """moore_penrose of each matrix: one SVD per ``kernel.layout``, one product per rank.
    Entry i is matrix i's certificate or the CertificateError that refuses it."""
    ops = [as_matrix(a) for a in matrices]
    results: list = [None] * len(ops)
    for group in kernel.groups(map(kernel.layout, ops)):
        stack = kernel.stack([ops[i] for i in group])
        u, sigma, v = kernel.svd_stack(stack, full=True)
        ranks = kernel.numerical_rank(sigma, tol).tolist()
        for sub in kernel.groups(ranks):
            r, live = ranks[sub[0]], [group[j] for j in sub]
            a, u_r, sig, v_r = (kernel.stack([m[j] for j in sub]) for m in (stack, u, sigma, v))
            f, s_basis = v_r[:, :, :r], u_r[:, :, r:]
            b = (f / sig[:, None, :r]) @ u_r[:, :, :r].conj().swapaxes(-1, -2)
            ab, ba = a @ b, b @ a
            aba, bab = ab @ a - a, ba @ b - b
            for k, (i, s) in enumerate(zip(live, sig.tolist())):
                anorm, bnorm = (s[0], 1.0 / s[r - 1]) if r else (0.0, 0.0)
                defects = {
                    "aba": (aba[k], anorm * bnorm * anorm),
                    "bab": (bab[k], bnorm * anorm * bnorm),
                    "ab_hermitian": (ab[k].conj().T - ab[k], anorm * bnorm),
                    "ba_hermitian": (ba[k].conj().T - ba[k], anorm * bnorm),
                }
                results[i] = _certificate(
                    defects, tol, sig[k, :r], b[k], "moore_penrose", s[0] / s[r - 1] if r else 1.0,
                    1.0, ops[i], orthonormal_span(f[k]), orthonormal_span(s_basis[k]), anorm, bnorm)
    return results


def outer_prescribed(
    a, t: Subspace, s: Subspace, tol: ToleranceConfig = DEFAULT_TOL
) -> InverseCertificate:
    """Outer inverse of ``a`` with range T and null space S.

    ``a`` may be rectangular (m x n); T lives in the domain C^n, S in the
    codomain C^m. Existence requires the restriction of ``a`` to T to be
    injective and a(T) (+) S to fill the codomain; each failure is reported
    with the violated clause and the deciding margin.
    """
    return _one(outer_prescribed_stack([(a, t, s)], tol))


def outer_prescribed_stack(problems, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """outer_prescribed of each (a, t, s): one construction per ``kernel.layout`` of a, of T's
    basis and of S's basis, so per shape, field, dim T and dim S. Entry i is problem i's
    certificate or the ExistenceError that refuses it."""
    probs = [(as_matrix(a), t, s) for a, t, s in problems]
    results: list = [None] * len(probs)
    for group in kernel.groups(tuple(map(kernel.layout, (a, t.basis, s.basis)))
                               for a, t, s in probs):
        ops, ts, ss = ([probs[i][j] for i in group] for j in range(3))
        for i, result in zip(group, _outer(ops, ts, ss, tol, "outer_prescribed")):
            results[i] = result
    return results


def _complement_failure(margin: float) -> ExistenceError:
    clause = "R(A*T) (+) S != Y"
    return ExistenceError(f"complement fails: {clause}", clause=clause, margin=margin)


def _outer(ops: list, ts: list, ss: list, tol: ToleranceConfig, kind: str, bc=()) -> list:
    """outer_prescribed of each ops[i] (of one ``kernel.layout``) with range ts[i] and null space
    ss[i] (of one dim each) as ``kind``, each factorization one LAPACK call over the stack. Entry
    i is slice i's certificate or the ExistenceError refusing it; ||x|| = 1 / sigma_min(core).
    bc[i] = (b, c, ||b||, ||c||) adds (b, c)-absorption residuals to x a x = x."""
    (m, n), k, dt, ds = ops[0].shape, len(ops), ts[0].dim, ss[0].dim
    if any(t.ambient_dim != n for t in ts):
        raise InputError("prescribed range does not live in the domain of a")
    if any(s.ambient_dim != m for s in ss):
        raise InputError("prescribed null space does not live in the codomain of a")
    a = kernel.stack(ops)
    anorm = kernel.stack_norms(a).tolist()
    if dt == 0:
        checks = [direct_sum_check(trivial_subspace(m), s, tol) for s in ss]
        refused = {i: _complement_failure(c.margin) for i, c in enumerate(checks) if not c.holds}
        margin, sig0, smin, xnorm = [c.margin for c in checks], [1.0] * k, [1.0] * k, [0.0] * k
        x, core_sigma = np.zeros((k, n, m), dtype=a.dtype), np.zeros((k, 0))
    else:
        f, sb = kernel.stack([t.basis for t in ts]), kernel.stack([s.basis for s in ss])
        restricted = a @ f
        image, sig, _ = kernel.svd_stack(restricted)
        sig0, smin = sig[:, 0].tolist(), sig[:, dt - 1].tolist() if dt <= m else [0.0] * k
        clause = "restriction not injective"
        refused = {i: ExistenceError(clause, clause=clause, margin=smin[i]) for i in range(k)
                   if dt > m or smin[i] <= tol.rank_rel_tol * anorm[i]}
        if dt + ds != m or len(refused) == k:  # every slice refused: no more factorizations
            for i in set(range(k)) - set(refused):
                check = direct_sum_check(orthonormal_span(image[i]), ss[i], tol)
                refused[i] = _complement_failure(check.margin)
            return [refused[i] for i in range(k)]
        h = np.linalg.qr(sb, mode="complete")[0][:, :, ds:].conj().swapaxes(-1, -2)
        # sigma_min([image | S]) = sin / sqrt(1 + cos) at the smallest angle between a(T)
        # and S; cos is measured along that angle, as sqrt(1 - sin^2) cancels near sin = 1
        _, sines, w = kernel.svd_stack(h @ image)
        cosines = map(np.linalg.norm, sb.conj().swapaxes(-1, -2) @ (image @ w[:, :, -1:]))
        margin = [sin / math.sqrt(1.0 + cos) for sin, cos in zip(sines[:, -1].tolist(), cosines)]
        bad = [i for i, low in enumerate(margin) if low <= tol.rank_rel_tol and i not in refused]
        refused.update({i: _complement_failure(margin[i]) for i in bad})
        if len(refused) == k:
            return [refused[i] for i in range(k)]
        cu, core_sigma, cv = kernel.svd_stack(h @ restricted)
        if refused:  # a refused slice's inverse is never read: keep it finite
            core_sigma[list(refused)] = 1.0
        x = (f @ (cv / core_sigma[:, None, :])) @ (cu.conj().swapaxes(-1, -2) @ h)
        xnorm = (1.0 / core_sigma[:, -1]).tolist()
    xa = x @ a
    defects = {"xax_x": xa @ x - x}
    if bc:
        b, c = (kernel.stack([p[j] for p in bc]) for j in (0, 1))
        defects.update(xab_b=xa @ b - b, cax_c=c @ a @ x - c)
    results: list = [refused.get(i) for i in range(k)]
    for i in sorted(set(range(k)) - set(refused)):
        xn, an = xnorm[i], anorm[i]
        scales = [xn * an * xn] + ([xn * an * bc[i][2], bc[i][3] * an * xn] if bc else [])
        checked = {name: (d[i], scale) for (name, d), scale in zip(defects.items(), scales)}
        results[i] = _certificate(checked, tol, core_sigma[i], x[i], kind, sig0[i] / smin[i],
                                  margin[i], ops[i], ts[i], ss[i], an, xn)
    return results


def bc_inverse(a, b, c, tol: ToleranceConfig = DEFAULT_TOL) -> InverseCertificate:
    """The (b, c)-inverse: outer inverse with range R(b) and null space N(c).

    Requires square operands of equal size. The certificate additionally
    records the residuals of the absorption equations b = x a b and c = c a x.
    R(b) and ||b|| come off one SVD of b, N(c) and ||c|| off one of c.
    """
    return _one(bc_inverse_stack([(a, b, c)], tol))


def bc_inverse_stack(problems, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """bc_inverse of each (a, b, c): one SVD of the b and one of the c per ``kernel.layout``,
    one construction per (rank b, rank c) in it. Entry i is problem i's certificate or the
    ExistenceError that refuses it."""
    probs = [_bc_operands(*p) for p in problems]
    results: list = [None] * len(probs)
    for group in kernel.groups(tuple(map(kernel.layout, p)) for p in probs):
        u, bsigma, _ = kernel.svd_stack(kernel.stack([probs[i][1] for i in group]))
        _, csigma, v = kernel.svd_stack(kernel.stack([probs[i][2] for i in group]), full=True)
        ranks = list(zip(*(kernel.numerical_rank(s, tol).tolist() for s in (bsigma, csigma))))
        for sub in kernel.groups(ranks):
            (br, cr), live = ranks[sub[0]], [group[j] for j in sub]
            t = [orthonormal_span(u[j][:, :br]) for j in sub]
            s = [orthonormal_span(v[j][:, cr:]) for j in sub]
            norms = [(kernel.sigma_max(bsigma[j]), kernel.sigma_max(csigma[j])) for j in sub]
            certs = _bc([(*probs[i], *norm) for i, norm in zip(live, norms)], t, s, tol)
            for i, cert in zip(live, certs):
                results[i] = cert
    return results


def _bc_operands(a, b, c) -> tuple:
    """(a, b, c) through ``as_matrix``; an InputError unless square and of one size."""
    b, c, a = (as_matrix(m) for m in (b, c, a))
    if a.shape[0] != a.shape[1] or a.shape != b.shape or a.shape != c.shape:
        raise InputError("bc_inverse needs square a, b, c of equal size")
    return a, b, c


def _bc(problems: list, ts: list, ss: list, tol: ToleranceConfig) -> list:
    """bc_inverse's results for checked (a, b, c, ||b||, ||c||) of one layout, given
    T = R(b) and S = N(c) (of one dim each)."""
    results = _outer([p[0] for p in problems], ts, ss, tol, "bc", [p[1:] for p in problems])
    return _prefixed("(B,C)-inverse does not exist", results)


def bott_duffin(
    a, p: ObliqueProjector, q: ObliqueProjector, tol: ToleranceConfig = DEFAULT_TOL
) -> InverseCertificate:
    """The (p, q)-inverse for idempotents p, q: range R(p), null space N(q), as p and q
    record them; x a p = p, p x = x and q a x = q tie those to the matrices."""
    problem = (*_bc_operands(a, p.matrix, q.matrix), p.norm, q.norm)
    cert = _one(_bc([problem], [p.range], [q.nullspace], tol))
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
    results = _bc([(*_bc_operands(a, d, d), dnorm, dnorm)], [t], [s], tol)
    cert = _one(_prefixed("not invertible along D", results))
    along = {"xad_d": cert.residuals["xab_b"], "dax_d": cert.residuals["cax_c"]}
    return replace(cert, kind="along", residuals={**cert.residuals, **along})


def reflexive_inverse(
    f, n_complement: Subspace, m_complement: Subspace, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Reflexive generalized inverse of ``f`` with range N and null space M.

    N must complement the kernel of ``f`` in the domain and M must complement
    its range in the codomain; the result inverts ``f`` between N and R(f) and
    vanishes on M. That is the outer inverse with T = N and S = M once dim N = rank f:
    then f is injective on N iff N(F) (+) N = X, and f(N) = R(f).
    """
    f = as_matrix(f)
    domain, rank = "N(F) (+) N != X", kernel.numerical_rank(kernel.singular_values(f), tol)
    # an N outside the domain is left to outer_prescribed's InputError
    if n_complement.ambient_dim == f.shape[1] and n_complement.dim != rank:
        raise ExistenceError(f"complement fails: {domain}", clause=domain, margin=0.0)
    try:
        return outer_prescribed(f, n_complement, m_complement, tol).inverse
    except CertificateError:
        raise
    except ExistenceError as exc:
        clause = domain if exc.clause == "restriction not injective" else "R(F) (+) M != Y"
        message = f"complement fails: {clause}"
        raise ExistenceError(message, clause=clause, margin=exc.margin) from exc


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
