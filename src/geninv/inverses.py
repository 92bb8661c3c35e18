"""Generalized inverses with prescribed range and null space.

The central construction is the outer inverse of ``a`` that has a prescribed
range T (in the domain of ``a``) and a prescribed null space S (in its
codomain): it exists iff ``a`` restricted to T is injective and a(T) and S
decompose the codomain, in which case it inverts ``a`` on a(T) and kills S.
Every other inverse here is that construction with a specific a, T or S:

  moore_penrose   T = range(a*),  S = null(a*)
  bc_inverse      T = range(b),   S = null(c)
  bott_duffin     T = range(p),   S = null(q)   for idempotents p, q
  inverse_along   T = range(d),   S = null(d)

All are built as ``X = F (H A F)^{-1} H`` (Wei 1998; Sheng & Chen 2007), F an
orthonormal basis of T and H orthonormal rows spanning S's orthogonal complement: the rest
of the SVD that found S, or one complete QR of a caller's S on its first read, kept on S;
existence clauses and certificates reuse these factorizations. A construction
whose residuals exceed tolerance is rejected rather than returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernel
from .errors import CertificateError, ExistenceError, InputError
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix, spectral_norm
from .subspace import ObliqueProjector, Subspace, complement_layout, complement_rows
from .subspace import orthonormal_span, range_and_null_spaces


@dataclass(frozen=True, eq=False)  # identity ==, hashable: fields are arrays
class InverseCertificate:
    """An inverse candidate bundled with the evidence that it is one.

    residuals maps each defining equation to the norm of its defect: the Frobenius norm (an
    upper bound on the spectral norm), or the exact spectral norm where that bound exceeded
    the budget. range_gap / nullspace_gap are containment upper bounds on the gaps between the
    computed inverse's subspaces and the prescribed ones. inverse_norm is ||inverse||. _memo
    keeps, from the construction or from their first read, restricted_condition (the condition
    number of ``a`` on the prescribed range) and complement_margin (the smallest singular value
    of the direct-sum test [a(T) | S]), both from two SVDs, and operator_norm, ||a||.
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


def _certify(defects: dict, tol: ToleranceConfig, kind: str, exact=None) -> dict:
    """Norms of one slice's (defect, scale) pairs, each with its Frobenius norm where taken, each
    accepted within ``residual_tol * scale``. A scale is the product of the norms of the
    equation's factors (||a|| ||b|| ||a|| for aba - a): a normwise backward error (Higham 2002,
    ch. 7), so no decision depends on the unit of a. With ``exact``, scales are at a lower bound
    on ||a||; one over budget is judged at its scale in exact(). A defect that overflowed (an inf
    or NaN entry) is refused whatever its budget."""
    residuals = {}
    for j, (name, (defect, scale, *fro)) in enumerate(defects.items()):
        value, budget = (fro[0] if fro and (kernel.FRO_LOW < fro[0] < math.inf  # as it is
                                            or fro[0] == 0.0 and not defect.any())
                         else kernel.residual_norm(defect, math.inf, *fro)), tol.residual_tol * scale
        budget = tol.residual_tol * exact()[j] if exact and not value <= budget else budget
        value = value if value <= budget else kernel.residual_norm(defect, budget, value)
        if value > budget or value == math.inf:
            excess = "is not finite" if value == math.inf else f"exceeds budget {budget:.3e}"
            raise CertificateError(f"{kind} certificate rejected: residual {name}={value:.3e} "
                                   f"{excess}", margin=value)
        residuals[name] = value
    return residuals


def _one(results: list):
    """The result of a stack of one: its certificate, or its ExistenceError raised."""
    if isinstance(results[0], ExistenceError):
        raise results[0]
    return results[0]


def _relabeled(results: list, message: str) -> list:
    """``results``, each ExistenceError in it but a CertificateError relabelled in place: message
    ``message`` formatted with the old error, the old clause and margin, and the old error as its
    __cause__."""
    for j, old in enumerate(results):
        if type(old) is ExistenceError:
            results[j] = ExistenceError(message.format(old), clause=old.clause, margin=old.margin)
            results[j].__cause__ = old
    return results


def _certificates(kind, x, defects, scales, tol, core_sigma, f, sb, fields, exact=None,
                  refused=None) -> list:
    """Slice i's certificate as ``kind`` (fields[i]: its operator, T, S, ||x||, memo), the
    CertificateError refusing it, or refused[i]. Norms are batched (``kernel.frobenius_norms``)
    and each slice is judged by ``_certify`` at scales[i] (at a lower bound on ||a|| if exact(i)
    gives the exact ones), which keeps norms in range and within budget as they are and takes
    nothing more for them. For x = F core^-1 H (f, sb stack F, S), ||core|| times ||(I - FF*) x|| or
    ||x S||, plus 2 dim eps ||x||_F for rounding, bounds gap(R(x), T) or gap(N(x), S); past the
    rank cutoff the gap is 1, and 0 where T is the domain or S = {0}."""
    (n, m), refused, gaps = x.shape[1:], refused or {}, [(0.0, 0.0)] * len(x)
    if core_sigma.shape[1]:
        allowance = 2 * max(n, m) * math.ulp(1.0)  # the two products' rounding per ||x||_F
        sides = (kernel.frobenius_norms(x - f @ (f.conj().swapaxes(-1, -2) @ x)) if f.shape[-1] < n
                 else None, kernel.frobenius_norms(x @ sb) if sb.shape[-1] else None)
        top, low = core_sigma[:, 0].tolist(), core_sigma[:, -1].tolist()  # full rank: low clears
        gaps = [tuple(0.0 if side is None else min(1.0, (side[i] + allowance * xf) * top[i])
                      for side in sides) if low[i] > tol.rank_rel_tol * top[i] else (1.0, 1.0)
                for i, xf in enumerate(kernel.frobenius_norms(x))]

    def judged(i: int, norms: tuple, scale: tuple, field: tuple):
        try:
            residuals = _certify({name: (defects[name][i], s, v) for name, s, v in zip(
                defects, scale, norms)}, tol, kind, exact and (lambda: exact(i)))
        except CertificateError as exc:
            return exc
        return InverseCertificate(x[i], kind, residuals, *gaps[i], *field)
    rows = zip(zip(*map(kernel.frobenius_norms, defects.values())), scales, fields)
    return [refused[i] if i in refused else judged(i, *row) for i, row in enumerate(rows)]


def moore_penrose(a, tol: ToleranceConfig = DEFAULT_TOL) -> InverseCertificate:
    """Moore-Penrose inverse from one full SVD, inverting singular values above the cutoff.

    That SVD also gives T = range(a*), S = null(a*), ||a|| = sigma_1 and ||b|| = 1 / sigma_r.
    """
    return _one(moore_penrose_stack([a], tol))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def moore_penrose_stack(matrices, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """moore_penrose of each matrix: one SVD per shape and field (``kernel.svds``), one product
    per ``kernel.layout`` and rank. Entry i is matrix i's certificate or the CertificateError
    that refuses it."""
    ops, results = [as_matrix(a) for a in matrices], {}
    svds = kernel.svds(ops, tol)
    for live in kernel.groups([(kernel.layout(a), r) for a, (*_, r) in zip(ops, svds)]):
        r, a = svds[live[0]][3], kernel.stack([ops[i] for i in live])
        u_r, sig, v_r = (kernel.stack([svds[i][j] for i in live]) for j in range(3))
        f, s_basis = v_r[:, :, :r], u_r[:, :, r:]
        b = (f / sig[:, None, :r]) @ u_r[:, :, :r].conj().swapaxes(-1, -2)
        ab, ba = a @ b, b @ a
        defects = {"aba": ab @ a - a, "bab": ba @ b - b,
                   "ab_hermitian": ab.conj().swapaxes(-1, -2) - ab,
                   "ba_hermitian": ba.conj().swapaxes(-1, -2) - ba}
        norms = [(s[0], 1.0 / s[r - 1], s[0] / s[r - 1]) if r else (0.0, 0.0, 1.0)
                 for s in sig.tolist()]  # ||a||, ||b|| and the condition number
        fields = [(ops[i], orthonormal_span(f[j], v_r[j, :, r:]),
                   orthonormal_span(s_basis[j], u_r[j, :, :r]), bn,
                   {"operator_norm": an, "complement_margin": 1.0, "restricted_condition": kn})
                  for j, (i, (an, bn, kn)) in enumerate(zip(live, norms))]
        scales = [(an * bn * an, bn * an * bn, an * bn, an * bn) for an, bn, _ in norms]
        results.update(zip(live, _certificates("moore_penrose", b, defects, scales, tol,
                                               sig[:, :r], f, s_basis, fields)))
    return [results[i] for i in range(len(ops))]


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
    """outer_prescribed of each (a, t, s), stacked as ``_stacked`` groups them. Entry i is
    problem i's certificate or the ExistenceError that refuses it."""
    return _stacked([(as_matrix(a), t, s) for a, t, s in problems], tol, "outer_prescribed")


def _stacked(problems: list, tol: ToleranceConfig, kind: str) -> list:
    """``_outer`` of each (a, T, S[, b, c, ||b||, ||c||]) as ``kind``: one construction per
    ``kernel.layout`` of every matrix it stacks (a, T's basis, S's basis, b, c and the complement
    S keeps or will keep), so per shape, field, strides, dim T and dim S. Entry i is problem i's."""
    found: dict = {}
    for group in kernel.groups([(*map(kernel.layout, (p[0], p[1].basis, p[2].basis, *p[3:5])),
                                 complement_layout(p[2])) for p in problems]):
        found.update(zip(group, _outer([problems[i] for i in group], tol, kind)))
    return [found[i] for i in range(len(problems))]


def _complement_failure(margin: float) -> ExistenceError:
    clause = "R(A*T) (+) S != Y"
    return ExistenceError(f"complement fails: {clause}", clause=clause, margin=margin)


def _svd_or_refuse(products: np.ndarray, refused: dict) -> tuple:
    """``kernel.svd_stack`` of the construction's products; where it refuses an overflow (an inf or
    NaN entry), each slice holding one is refused in ``refused`` and zeroed in place first."""
    try:
        return kernel.svd_stack(products)
    except CertificateError as exc:
        overflowed = np.flatnonzero(~np.isfinite(products).all(axis=(-2, -1))).tolist()
        refused.update((i, CertificateError(str(exc))) for i in overflowed)
        products[overflowed] = 0.0
        return kernel.svd_stack(products)


def _clauses(ops: list, ts: list, ss: list, memos: list, tol: ToleranceConfig) -> dict:
    """Both existence clauses of each (a, T, S) of one layout and dims, decided exactly: the
    refused indices' ExistenceErrors (a CertificateError where A F overflowed); memos[i] gets
    restricted_condition and complement_margin. Injectivity, sigma_min(A F) > rank_rel_tol ||a||,
    is judged at sigma_max(A F) / 2 first."""
    (m, _), k, dt, ds, refused = ops[0].shape, len(ops), ts[0].dim, ss[0].dim, {}
    image, sig, _ = _svd_or_refuse(kernel.stack(ops) @ kernel.stack([t.basis for t in ts]), refused)
    sig0, smin = sig[:, 0].tolist(), sig[:, dt - 1].tolist() if dt <= m else [0.0] * k

    def deficient(i: int) -> bool:  # smin_i <= rank_rel_tol ||a_i||, a_i factored last
        rel, low, high = tol.rank_rel_tol, 0.5 * sig0[i], 2.0 * kernel.residual_norm(ops[i])
        return (smin[i] <= rel * low or not smin[i] > rel * high
                and smin[i] <= rel * _lazy(memos[i], "operator_norm", ops[i]))
    clause = "restriction not injective"
    refused.update((i, ExistenceError(clause, clause=clause, margin=smin[i])) for i in range(k)
                   if i not in refused and (dt > m or deficient(i)))
    live = [i for i in range(k) if i not in refused]
    if dt + ds != m:  # dim a(T) = dim T on the live slices: the count decides
        refused.update((i, _complement_failure(0.0)) for i in live)
    elif live:  # none live: no more factorizations
        # sigma_min([image | S]) = sin / sqrt(1 + cos) at the smallest angle between a(T)
        # and S; cos is measured along that angle, as sqrt(1 - sin^2) cancels near sin = 1
        sb = kernel.stack([s.basis for s in ss])
        _, sines, w = kernel.svd_stack(complement_rows(ss) @ image)
        cosines = map(np.linalg.norm, sb.conj().swapaxes(-1, -2) @ (image @ w[:, :, -1:]))
        margin = [sin / math.sqrt(1.0 + cos) for sin, cos in zip(sines[:, -1].tolist(), cosines)]
        for i in live:
            memos[i].update(restricted_condition=sig0[i] / smin[i], complement_margin=margin[i])
            if margin[i] <= tol.rank_rel_tol:
                refused[i] = _complement_failure(margin[i])
    return refused


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _outer(problems: list, tol: ToleranceConfig, kind: str) -> list:
    """outer_prescribed of each (a, T, S[, b, c, ||b||, ||c||]) of ``_stacked``'s one group as
    ``kind``, each factorization one LAPACK call over the stack. Entry i is slice i's certificate
    or the ExistenceError refusing it; ||x|| = 1 / sigma_min(core). A problem's
    (b, c, ||b||, ||c||) adds (b, c)-absorption residuals to x a x = x. The core H A F is
    factored first: sigma_min(H A F) <= sigma_min(A F), and <= sin ||A F|| at the direct-sum
    test's sine (its margin >= sin / sqrt 2), so sigma_min(H A F) > (2 rank_rel_tol + 8 (m + n)
    eps) ||a||_F, the allowance for both SVDs' rounding, grants both clauses; ``_clauses``
    decides the rest exactly. Residual budgets use sigma_max(H A F) / 2 <= ||a|| first."""
    ops, ts, ss, *bc = zip(*problems)  # bc: the b's, c's, ||b||'s and ||c||'s, if given
    (m, n), k, (_, dt), (_, ds) = ops[0].shape, len(ops), ts[0].basis.shape, ss[0].basis.shape
    if ts[0].ambient_dim != n:  # a group's bases share their shapes
        raise InputError("prescribed range does not live in the domain of a")
    if ss[0].ambient_dim != m:
        raise InputError("prescribed null space does not live in the codomain of a")
    a, memos = kernel.stack(ops), [{} for _ in ops]  # the lazily read numbers taken here
    if dt == 0:  # a(T) = {0}: the sum fills Y iff S = Y, a count
        refused = {} if ds == m else {i: _complement_failure(0.0) for i in range(k)}
        memos = [{"restricted_condition": 1.0, "complement_margin": 1.0} for _ in ops]
        x, core_sigma, xnorm, f = np.zeros((k, n, m), a.dtype), np.zeros((k, 0)), [0.0] * k, None
    else:
        undecided, refused = list(range(k)), {}  # all, where dim T + dim S != m
        if dt + ds == m:
            h, f = complement_rows(ss), kernel.stack([t.basis for t in ts])
            cu, core_sigma, cv = _svd_or_refuse(h @ (a @ f), refused)
            floor = 2.0 * tol.rank_rel_tol + 8 * (m + n) * math.ulp(1.0)
            fro = kernel.frobenius_norms(a) if a.flags.c_contiguous else [0.0] * k  # ||a_i||_F
            undecided = [i for i in range(k) if i not in refused and not core_sigma[i, -1] > floor * (
                fro[i] if kernel.FRO_LOW < fro[i] < math.inf else kernel.residual_norm(ops[i]))]
        if undecided:  # the core-first bound granted the others
            found = _clauses(*[[p[i] for i in undecided] for p in (ops, ts, ss, memos)], tol)
            refused.update((undecided[j], e) for j, e in found.items())
        if len(refused) == k:
            return [refused[i] for i in range(k)]
        if refused:  # a refused slice's inverse is never read: keep it finite
            core_sigma[list(refused)] = 1.0
        x = (f @ (cv / core_sigma[:, None, :])) @ (cu.conj().swapaxes(-1, -2) @ h)
        xnorm = (1.0 / core_sigma[:, -1]).tolist()
    xa = x @ a
    defects = {"xax_x": xa @ x - x}
    if bc:
        b, c = map(kernel.stack, bc[:2])
        defects.update(xab_b=xa @ b - b, cax_c=c @ a @ x - c)

    def scales(i: int, an: float) -> tuple:  # slice i's budget scales at ||a_i|| = an
        xn, (bn, cn) = xnorm[i], (bc[2][i], bc[3][i]) if bc else (0.0, 0.0)
        return xn * an * xn, xn * an * bn, cn * an * xn
    return _certificates(  # at sigma_max(H A F) / 2 <= ||a|| first (0 if T = {0})
        kind, x, defects, [scales(i, 0.5 * kernel.sigma_max(s)) for i, s in enumerate(core_sigma)],
        tol, core_sigma, f, kernel.stack([s.basis for s in ss]), zip(ops, ts, ss, xnorm, memos),
        lambda i: scales(i, _lazy(memos[i], "operator_norm", ops[i])), refused)


def bc_inverse(a, b, c, tol: ToleranceConfig = DEFAULT_TOL) -> InverseCertificate:
    """The (b, c)-inverse: outer inverse with range R(b) and null space N(c).

    Requires square operands of equal size. The certificate additionally
    records the residuals of the absorption equations b = x a b and c = c a x.
    R(b), N(c), ||b|| and ||c|| come off one batched full SVD of b and c (of b alone if c is b).
    """
    return _one(bc_inverse_stack([(a, b, c)], tol))


def bc_inverse_stack(problems, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """bc_inverse of each (a, b, c): each distinct input object validated by ``as_matrix`` once,
    and each distinct b or c (equal copies are not merged) factored once per stack, by
    ``range_and_null_spaces``, into R(b) if a b, N(c) if a c, and its norm, shared by every
    problem using it; then stacked as ``_stacked`` groups them. Entry i is problem i's
    certificate or the ExistenceError that refuses it."""
    seen: dict = {}
    probs = [_bc_operands(*p, index=i, seen=seen) for i, p in enumerate(problems)]
    bs, cs = {id(b): b for _, b, _ in probs}, {id(c): c for *_, c in probs}
    spans = dict(zip({**bs, **cs}, range_and_null_spaces([*{**bs, **cs}.values()], bs, cs, tol)))
    return _relabeled(_stacked([(a, spans[id(b)][0], spans[id(c)][1], b, c, spans[id(b)][2],
                                 spans[id(c)][2]) for a, b, c in probs], tol, "bc"), _NO_BC)


def _bc_operands(*abc, index: int = 0, seen: dict | None = None) -> tuple:
    """(a, b, c) through ``as_matrix``, each object once per ``seen`` (its id -> the object, kept
    alive so its id is not reused, and its matrix); an InputError unless three matrices, square
    and of one size, naming the problem's ``index`` in its stack where it is not three."""
    if len(abc) != 3:
        raise InputError(f"problem {index} holds {len(abc)} matrices, not the 3 of (a, b, c)")
    seen = {} if seen is None else seen
    for x in (abc[1], abc[2], abc[0]):
        if id(x) not in seen:
            seen[id(x)] = x, as_matrix(x)
    a, b, c = [seen[id(x)][1] for x in abc]
    if a.shape[0] != a.shape[1] or a.shape != b.shape or a.shape != c.shape:
        raise InputError("bc_inverse needs square a, b, c of equal size")
    return a, b, c


_NO_BC = "(B,C)-inverse does not exist: {}"


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def bott_duffin(
    a, p: ObliqueProjector, q: ObliqueProjector, tol: ToleranceConfig = DEFAULT_TOL
) -> InverseCertificate:
    """The (p, q)-inverse for idempotents p, q: range R(p), null space N(q), as p and q
    record them; x a p = p, p x = x and q a x = q tie those to the matrices."""
    a, pm, qm = _bc_operands(a, p.matrix, q.matrix)
    problem = (a, p.range, q.nullspace, pm, qm, p.norm, q.norm)
    cert = _one(_relabeled(_stacked([problem], tol, "bc"), _NO_BC))
    x, xnorm = cert.inverse, cert.inverse_norm
    defects = {"py_y": (pm @ x - x, p.norm * xnorm), "yq_y": (x @ qm - x, xnorm * q.norm)}
    extra = _certify(defects, tol, "bott_duffin")
    # y a p - p and q a y - q are the (p, q) absorption defects, certified by _outer
    extra.update(yap_p=cert.residuals["xab_b"], qay_q=cert.residuals["cax_c"])
    return replace(cert, kind="bott_duffin", residuals={**cert.residuals, **extra})


def inverse_along(a, d, tol: ToleranceConfig = DEFAULT_TOL) -> InverseCertificate:
    """Inverse of ``a`` along ``d``: the (d, d)-inverse, from one full SVD of d.

    Its defining equations x a d = d = d a x are the (d, d) absorption
    residuals, which ``_outer`` certifies.
    """
    d = as_matrix(d)  # one object, so bc_inverse_stack factors it once
    cert = _one(_relabeled(bc_inverse_stack([(a, d, d)], tol), "not invertible along D: {}"))
    along = {"xad_d": cert.residuals["xab_b"], "dax_d": cert.residuals["cax_c"]}
    return replace(cert, kind="along", residuals={**cert.residuals, **along})
