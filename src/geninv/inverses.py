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
orthonormal basis of T and H orthonormal rows spanning S's orthogonal complement, the
complement the SVD that found S carries (a complete QR of S where it carries none);
existence clauses and certificates reuse its factorizations. A construction
whose residuals exceed tolerance is rejected rather than returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernel
from .errors import CertificateError, ExistenceError, InputError
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix, spectral_norm
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

    residuals maps each defining equation to the norm of its defect: the Frobenius norm (an
    upper bound on the spectral norm), or the exact spectral norm where that bound exceeded
    the budget. range_gap / nullspace_gap are containment upper bounds on the gaps between the
    computed inverse's subspaces and the prescribed ones. inverse_norm is ||inverse||. _memo
    keeps, from the construction or from their first read, restricted_condition (the condition
    number of ``a`` on the prescribed range) and complement_margin (the smallest singular value
    of the direct-sum test [a(T) | S]), both from two SVDs and one QR, and operator_norm, ||a||.
    """

    inverse: np.ndarray
    kind: str
    residuals: dict[str, float]
    range_gap: float
    nullspace_gap: float
    operator: np.ndarray
    prescribed_range: Subspace
    prescribed_nullspace: Subspace
    inverse_norm: float
    _memo: dict = field(repr=False)  # the numbers below, by name, once taken
    operator_norm, restricted_condition, complement_margin = (property(
        lambda self, name=name: _lazy(self._memo, name, self.operator, self.prescribed_range,
                                      self.prescribed_nullspace))
        for name in ("operator_norm", "restricted_condition", "complement_margin"))


def _lazy(memo: dict, name: str, a, t=None, s=None) -> float:
    """memo[name], taken on first read: ||a|| by one values-only SVD, the clause values by
    ``_clauses`` on (a, T, S) at rank_rel_tol 0, where a certificate's clauses hold."""
    if name not in memo and name == "operator_norm":
        memo[name] = spectral_norm(a)
    elif name not in memo:
        _clauses([a], [t], [s], [memo], ToleranceConfig(rank_rel_tol=0.0))
    return memo[name]


def _certify(defects: dict, tol: ToleranceConfig, kind: str, exact=None):
    """Norms of the (defect, scale) pairs, each accepted within ``residual_tol * scale``. A
    scale is the product of the norms of the equation's factors (||a|| ||b|| ||a|| for aba - a):
    a normwise backward error (Higham 2002, ch. 7), so no decision depends on the unit of a.
    With ``exact``, scales are at a lower bound on ||a||; one over budget is judged at exact().
    A defect that overflowed (an inf or NaN entry) is refused whatever its budget."""
    residuals = {}
    for name, (defect, scale) in defects.items():
        value, budget = kernel.residual_norm(defect), tol.residual_tol * scale
        budget = tol.residual_tol * exact()[name][1] if exact and not value <= budget else budget
        value = value if value <= budget else kernel.residual_norm(defect, budget)
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


def _certificate(defects, tol, core_sigma, x, kind, a, t, s, xnorm, memo, exact=None):
    """x's certificate (the fields in InverseCertificate's order, its residuals and gaps
    aside), or the CertificateError of the first defect ``_certify`` refuses given ``exact``.

    For ``x = F core^-1 H`` the gaps bound gap(R(x), T) and gap(N(x), S): x has smallest nonzero
    singular value 1/||core||, so ||core|| times ||(I - FF*) x|| or ||x S||, each plus 2 dim eps
    ||x||_F for the rounding of its two products, bounds how far R(x) leaves T or S leaves N(x).
    Past the rank cutoff the gap is 1; where T is the domain or S = {0}, that side's is 0."""
    try:
        residuals = _certify(defects, tol, kind, exact)
    except CertificateError as exc:
        return exc
    gaps = (0.0, 0.0) if core_sigma.size == 0 else (1.0, 1.0)
    if core_sigma.size and kernel.numerical_rank(core_sigma, tol) == core_sigma.size:
        rounding = 2 * max(x.shape) * np.finfo(float).eps * np.linalg.norm(x)
        off_range = 0.0 if t.dim == x.shape[0] else np.linalg.norm(
            x - t.basis @ (t.basis.conj().T @ x)) + rounding
        off_null = 0.0 if s.is_trivial else np.linalg.norm(x @ s.basis) + rounding
        gaps = min(1.0, float(off_range * core_sigma[0])), min(1.0, float(off_null * core_sigma[0]))
    return InverseCertificate(x, kind, residuals, *gaps, a, t, s, xnorm, memo)


def moore_penrose(a, tol: ToleranceConfig = DEFAULT_TOL) -> InverseCertificate:
    """Moore-Penrose inverse from one full SVD, inverting singular values above the cutoff.

    That SVD also gives T = range(a*), S = null(a*), ||a|| = sigma_1 and ||b|| = 1 / sigma_r.
    """
    return _one(moore_penrose_stack([a], tol))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
                memo = {"operator_norm": anorm, "complement_margin": 1.0,
                        "restricted_condition": s[0] / s[r - 1] if r else 1.0}
                spans = (orthonormal_span(f[k], v_r[k, :, r:]),
                         orthonormal_span(s_basis[k], u_r[k, :, :r]))
                results[i] = _certificate(
                    defects, tol, sig[k, :r], b[k], "moore_penrose", ops[i], *spans, bnorm, memo)
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
    basis and of S's basis and carried complement, so per shape, field, dim T and dim S. Entry
    i is problem i's certificate or the ExistenceError that refuses it."""
    probs = [(as_matrix(a), t, s) for a, t, s in problems]
    results: list = [None] * len(probs)
    for group in kernel.groups(tuple(kernel.layout(m) for m in (a, t.basis, s.basis, s._complement)
                                     if m is not None) for a, t, s in probs):
        ops, ts, ss = ([probs[i][j] for i in group] for j in range(3))
        for i, result in zip(group, _outer(ops, ts, ss, tol, "outer_prescribed")):
            results[i] = result
    return results


def _complement_failure(margin: float) -> ExistenceError:
    clause = "R(A*T) (+) S != Y"
    return ExistenceError(f"complement fails: {clause}", clause=clause, margin=margin)


def _complement_rows(ss: list) -> np.ndarray:
    """H: orthonormal rows spanning each S's orthogonal complement, the bases the S's carry
    (all of them carry one, or none does), else one complete QR of the S's."""
    if ss[0]._complement is not None:
        return kernel.stack([s._complement for s in ss]).conj().swapaxes(-1, -2)
    sb = kernel.stack([s.basis for s in ss])
    return np.linalg.qr(sb, mode="complete")[0][:, :, sb.shape[-1]:].conj().swapaxes(-1, -2)


def _clauses(ops: list, ts: list, ss: list, memos: list, tol: ToleranceConfig) -> dict:
    """Both existence clauses of each (a, T, S) of one layout and dims, decided exactly: the
    refused indices' ExistenceErrors; memos[i] gets restricted_condition and complement_margin.
    Injectivity, sigma_min(A F) > rank_rel_tol ||a||, is judged at sigma_max(A F) / 2 first."""
    (m, _), k, dt, ds = ops[0].shape, len(ops), ts[0].dim, ss[0].dim
    image, sig, _ = kernel.svd_stack(kernel.stack(ops) @ kernel.stack([t.basis for t in ts]))
    sig0, smin = sig[:, 0].tolist(), sig[:, dt - 1].tolist() if dt <= m else [0.0] * k

    def deficient(i: int) -> bool:  # smin_i <= rank_rel_tol ||a_i||, a_i factored last
        rel, low, high = tol.rank_rel_tol, 0.5 * sig0[i], 2.0 * kernel.residual_norm(ops[i])
        return (smin[i] <= rel * low or not smin[i] > rel * high
                and smin[i] <= rel * _lazy(memos[i], "operator_norm", ops[i]))
    clause = "restriction not injective"
    refused = {i: ExistenceError(clause, clause=clause, margin=smin[i]) for i in range(k)
               if dt > m or deficient(i)}
    live = [i for i in range(k) if i not in refused]
    if dt + ds != m:
        for i in live:
            check = direct_sum_check(orthonormal_span(image[i]), ss[i], tol)
            refused[i] = _complement_failure(check.margin)
    elif live:  # none live: no more factorizations
        # sigma_min([image | S]) = sin / sqrt(1 + cos) at the smallest angle between a(T)
        # and S; cos is measured along that angle, as sqrt(1 - sin^2) cancels near sin = 1
        sb = kernel.stack([s.basis for s in ss])
        _, sines, w = kernel.svd_stack(_complement_rows(ss) @ image)
        cosines = map(np.linalg.norm, sb.conj().swapaxes(-1, -2) @ (image @ w[:, :, -1:]))
        margin = [sin / math.sqrt(1.0 + cos) for sin, cos in zip(sines[:, -1].tolist(), cosines)]
        for i in live:
            memos[i].update(restricted_condition=sig0[i] / smin[i], complement_margin=margin[i])
            if margin[i] <= tol.rank_rel_tol:
                refused[i] = _complement_failure(margin[i])
    return refused


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _outer(ops: list, ts: list, ss: list, tol: ToleranceConfig, kind: str, bc=()) -> list:
    """outer_prescribed of each ops[i] (of one ``kernel.layout``) with range ts[i] and null space
    ss[i] (of one dim each) as ``kind``, each factorization one LAPACK call over the stack. Entry
    i is slice i's certificate or the ExistenceError refusing it; ||x|| = 1 / sigma_min(core).
    bc[i] = (b, c, ||b||, ||c||) adds (b, c)-absorption residuals to x a x = x. The core H A F is
    factored first: sigma_min(H A F) <= sigma_min(A F), and <= sin ||A F|| at the direct-sum
    test's sine (its margin >= sin / sqrt 2), so sigma_min(H A F) > (2 rank_rel_tol + 8 (m + n)
    eps) ||a||_F, the allowance for both SVDs' rounding, grants both clauses; ``_clauses``
    decides the rest exactly. Residual budgets use sigma_max(H A F) / 2 <= ||a|| first."""
    (m, n), k, dt, ds = ops[0].shape, len(ops), ts[0].dim, ss[0].dim
    if any(t.ambient_dim != n for t in ts):
        raise InputError("prescribed range does not live in the domain of a")
    if any(s.ambient_dim != m for s in ss):
        raise InputError("prescribed null space does not live in the codomain of a")
    a, memos = kernel.stack(ops), [{} for _ in ops]  # the lazily read numbers taken here
    if dt == 0:
        checks = [direct_sum_check(trivial_subspace(m), s, tol) for s in ss]
        refused = {i: _complement_failure(c.margin) for i, c in enumerate(checks) if not c.holds}
        memos = [{"restricted_condition": 1.0, "complement_margin": c.margin} for c in checks]
        x, core_sigma, xnorm = np.zeros((k, n, m), dtype=a.dtype), np.zeros((k, 0)), [0.0] * k
    else:
        undecided = list(range(k))  # all, where dim T + dim S != m: _clauses refuses them
        if dt + ds == m:
            h = _complement_rows(ss)
            f = kernel.stack([t.basis for t in ts])
            cu, core_sigma, cv = kernel.svd_stack(h @ (a @ f))
            floor = 2.0 * tol.rank_rel_tol + 8 * (m + n) * np.finfo(float).eps
            undecided = [i for i in range(k)
                         if not core_sigma[i, -1] > floor * kernel.residual_norm(ops[i])]
        picked = [[p[i] for i in undecided] for p in (ops, ts, ss, memos)]
        found = _clauses(*picked, tol) if undecided else {}
        refused = {undecided[j]: e for j, e in found.items()}
        if len(refused) == k:
            return [refused[i] for i in range(k)]
        core_sigma[list(refused)] = 1.0  # a refused slice's inverse is never read: keep it finite
        x = (f @ (cv / core_sigma[:, None, :])) @ (cu.conj().swapaxes(-1, -2) @ h)
        xnorm = (1.0 / core_sigma[:, -1]).tolist()
    xa = x @ a
    defects = {"xax_x": xa @ x - x}
    if bc:
        b, c = (kernel.stack([p[j] for p in bc]) for j in (0, 1))
        defects.update(xab_b=xa @ b - b, cax_c=c @ a @ x - c)

    def judged(i: int, an: float) -> dict:  # each defect, scale at ||a_i|| = an (0 if T = {0})
        xn, (bn, cn) = xnorm[i], bc[i][2:] if bc else (0.0, 0.0)
        scales = [xn * an * xn, xn * an * bn, cn * an * xn]
        return {name: (d[i], scale) for (name, d), scale in zip(defects.items(), scales)}
    results: list = [refused.get(i) for i in range(k)]
    for i in sorted(set(range(k)) - set(refused)):  # sigma_max(H A F) / 2 <= ||a||
        results[i] = _certificate(
            judged(i, 0.5 * kernel.sigma_max(core_sigma[i])), tol, core_sigma[i], x[i], kind,
            ops[i], ts[i], ss[i], xnorm[i], memos[i],
            exact=lambda i=i: judged(i, _lazy(memos[i], "operator_norm", ops[i])))
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
            s = [orthonormal_span(v[j][:, cr:], v[j][:, :cr]) for j in sub]
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
