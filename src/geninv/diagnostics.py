"""Empirical convergence diagnostics for sequences of inverse problems.

A sequence report evaluates, per index, every quantity appearing in the
equivalent characterizations of inverse convergence: inverse and product
errors, geometric gaps between prescribed subspaces, and the Moore-Penrose
projector terms that express those gaps algebraically. Each characterization
gets a boolean verdict under a finite-sequence convergence proxy; because the
characterizations are equivalent, a split verdict set is flagged as an alarm.

Verdict keys are grouped by prefix:

  gap_*  operator-norm / subspace-gap characterizations (six)
  mp_*   Moore-Penrose projector characterizations (eight)
  oip_*  prescribed-subspace characterizations (five)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import ExistenceError, InputError
from .inverses import InverseCertificate, bc_inverse_stack, moore_penrose_stack
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix
from .subspace import column_space, deviations


@dataclass(frozen=True, eq=False)  # identity ==, hashable: verdicts is a dict
class SequenceDiagnostics:
    """Per-index convergence measurements plus verdicts.

    All error entries are nonnegative, all gap entries lie in [0, 1]; failed
    indices (where the per-index inverse does not exist) hold NaN and are
    excluded from the verdicts.
    """

    inverse_error: tuple[float, ...]
    left_product_error: tuple[float, ...]
    right_product_error: tuple[float, ...]
    range_gap: tuple[float, ...]
    nullspace_gap: tuple[float, ...]
    inverse_range_gap: tuple[float, ...]
    inverse_nullspace_gap: tuple[float, ...]
    mp_range_terms: tuple[tuple[float, float], ...]
    mp_null_terms: tuple[tuple[float, float], ...]
    mp_cokernel_terms: tuple[tuple[float, float], ...]
    mp_corange_terms: tuple[tuple[float, float], ...]
    range_projector_error: tuple[float, ...]
    null_projector_error: tuple[float, ...]
    failed_indices: tuple[int, ...]
    verdicts: dict[str, bool]
    alarm: bool
    remark_gap_identity_mismatch: float | None = None


# The per-index records of SequenceDiagnostics; the *_terms records hold pairs.
RECORD_NAMES = (
    "inverse_error",
    "left_product_error",
    "right_product_error",
    "range_gap",
    "nullspace_gap",
    "inverse_range_gap",
    "inverse_nullspace_gap",
    "mp_range_terms",
    "mp_null_terms",
    "mp_cokernel_terms",
    "mp_corange_terms",
    "range_projector_error",
    "null_projector_error",
)

# verdict -> the records whose convergence it asserts; one prefix's verdicts are equivalent
CHARACTERIZATIONS = {
    "gap_inverse": ("inverse_error",),
    "gap_both_products": ("left_product_error", "right_product_error"),
    "gap_left_product_null_gap": ("left_product_error", "nullspace_gap"),
    "gap_right_product_range_gap": ("right_product_error", "range_gap"),
    "gap_subspace_gaps": ("range_gap", "nullspace_gap"),
    "gap_inverse_subspace_gaps": ("inverse_range_gap", "inverse_nullspace_gap"),
    "mp_inverse": ("inverse_error",),
    "mp_left_product_null_proj": ("left_product_error", "mp_null_terms"),
    "mp_right_product_range_proj": ("right_product_error", "mp_range_terms"),
    "mp_range_null_proj": ("mp_range_terms", "mp_null_terms"),
    "mp_right_product_cokernel_proj": ("right_product_error", "mp_cokernel_terms"),
    "mp_left_product_corange_proj": ("left_product_error", "mp_corange_terms"),
    "mp_cokernel_corange_proj": ("mp_cokernel_terms", "mp_corange_terms"),
    "mp_projector_products": ("range_projector_error", "null_projector_error"),
    "oip_inverse": ("inverse_error",),
    "oip_both_products": ("left_product_error", "right_product_error"),
    "oip_left_product_null_gap": ("left_product_error", "nullspace_gap"),
    "oip_right_product_range_gap": ("right_product_error", "range_gap"),
    "oip_subspace_gaps": ("range_gap", "nullspace_gap"),
}

# judged at err_scale = max(1, ||x|| max(1, ||a||)); the other records are dimensionless
_SCALED = frozenset({"inverse_error", "left_product_error", "right_product_error"})


def converged_by_final_index(
    values, tol: ToleranceConfig, scale: float = 1.0
) -> bool:
    """Finite-sequence convergence proxy.

    True iff the final value sits below ``10 * residual_tol * scale`` and the
    last third of the sequence shows no significant increase. NaN entries
    (failed indices) are skipped.
    """
    vals = [float(v) for v in values if not math.isnan(float(v))]
    if not vals:
        return False
    if vals[-1] > 10.0 * tol.residual_tol * scale:
        return False
    tail = vals[-max(2, len(vals) // 3):]
    slack = 1e-12 * max(1.0, scale)
    return all(b <= 1.05 * a + slack for a, b in zip(tail, tail[1:]))


def mp_gap_terms(b, bn, tol: ToleranceConfig = DEFAULT_TOL):
    """Projector-difference norms expressing subspace gaps through b b^+.

    Returns (range_terms, cokernel_terms): range_terms are
    ``(||(1 - b b^+) bn bn^+||, ||(1 - bn bn^+) b b^+||)`` and measure the gap
    between the column spaces; cokernel_terms are the complementary products
    ``(||b b^+ (1 - bn bn^+)||, ||bn bn^+ (1 - b b^+)||)`` and measure the gap
    between the row-annihilator spaces. b b^+ is the orthogonal projector onto
    the column space of b.
    """
    b = as_matrix(b)
    bn = as_matrix(bn)
    if b.shape != bn.shape or b.shape[0] != b.shape[1]:
        raise InputError("mp_gap_terms needs square matrices of equal size")
    p, pn = column_space(b, tol).projector(), column_space(bn, tol).projector()
    terms = kernel.spectral_norms(_projector_terms(p, pn))
    return (float(terms[0]), float(terms[1])), (float(terms[2]), float(terms[3]))


def _projector_terms(p, pn) -> tuple[np.ndarray, ...]:
    """The products of mp_gap_terms for orthogonal projectors p = b b^+ and pn = bn bn^+."""
    eye = np.eye(p.shape[0])
    p_perp, pn_perp = eye - p, eye - pn
    return p_perp @ pn, pn_perp @ p, p @ pn_perp, pn @ p_perp


def zero_limit_check(certificates) -> tuple[bool, int | None]:
    """Classify a sequence whose limit inverse is zero.

    Such a sequence converges iff the inverses are exactly zero from some
    index on; returns that first 1-based index, or (False, None). An inverse is
    exactly zero iff its prescribed range is {0}, that is, its inverse_norm is 0.
    """
    certs = list(certificates)
    if not certs:
        raise InputError("empty certificate sequence")
    nonzero = [i for i, c in enumerate(certs) if c.inverse_norm != 0.0]
    if not nonzero:
        return True, 1
    if nonzero[-1] == len(certs) - 1:
        return False, None
    return True, nonzero[-1] + 2


def sequence_report(
    limit_problem, sequence, tol: ToleranceConfig = DEFAULT_TOL
) -> SequenceDiagnostics:
    """Convergence diagnostics for a sequence (a_n, b_n, c_n) against a limit (a, b, c).

    The limit inverse must be nonzero (the zero-limit regime has its own
    dichotomy, see zero_limit_check). Indices where the per-index inverse does
    not exist are recorded and excluded from the verdicts.
    """
    problems = [tuple(limit_problem), *map(tuple, sequence)]
    _check_shapes([p[0] for p in problems])
    limit, *certs = bc_inverse_stack(problems, tol)
    if isinstance(limit, ExistenceError):
        raise limit
    if limit.inverse_norm == 0.0:
        raise InputError("limit inverse is zero; use zero_limit_check")
    return _diagnose(limit, certs, tol, mp_report=False)


def mp_continuity_report(
    a, sequence, tol: ToleranceConfig = DEFAULT_TOL
) -> SequenceDiagnostics:
    """Convergence diagnostics for a Moore-Penrose inverse sequence.

    Specializes the sequence diagnostics to b = c = a^+ per index, evaluates
    the eight projector characterizations, and cross-checks the algebraic gap
    identities against geometric gaps (the largest mismatch is recorded). An
    index whose certificate is refused is recorded as failed; a refused limit raises.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError("mp_continuity_report needs a square limit element")
    matrices = [a, *sequence]
    _check_shapes(matrices)
    limit, *certs = moore_penrose_stack(matrices, tol)
    if isinstance(limit, ExistenceError):
        raise limit
    if limit.operator_norm == 0.0:
        raise InputError("limit element must be nonzero")
    return _diagnose(limit, certs, tol, mp_report=True)


def _check_shapes(operators) -> None:
    """An InputError naming the first index (1-based) whose operator is not the limit's shape."""
    shapes = [np.shape(a) for a in operators]
    for k in (k for k, shape in enumerate(shapes) if shape != shapes[0]):
        raise InputError(f"index {k} has shape {shapes[k]}, the limit {shapes[0]}")


def _diagnose(
    limit: InverseCertificate,
    certs: list[InverseCertificate | ExistenceError],
    tol: ToleranceConfig,
    mp_report: bool,
) -> SequenceDiagnostics:
    """A report from the limit's certificate and each index's (or the error refusing it).

    Each quantity is measured for all indices at once: its spectral norms come
    from one batched SVD, the subspaces of the x_n from one batched full SVD,
    and the projectors b b^+ and c^+ c from the certificates' own bases.
    """
    live = [k for k, cert in enumerate(certs) if isinstance(cert, InverseCertificate)]
    certs_ok = [certs[k] for k in live]
    x, a = limit.inverse, limit.operator
    xa, ax = x @ a, a @ x
    norms = kernel.spectral_norms
    left = norms([c.inverse @ c.operator - xa for c in certs_ok])
    right = norms([c.operator @ c.inverse - ax for c in certs_ok])
    p, q = _mp_projectors(limit)
    projectors = [_mp_projectors(c) for c in certs_ok]
    b_terms = norms([t for pn, _ in projectors for t in _projector_terms(p, pn)]).reshape(-1, 4)
    c_terms = norms([t for _, qn in projectors for t in _projector_terms(q, qn)]).reshape(-1, 4)
    br, bk, cr, ck = b_terms[:, :2], b_terms[:, 2:], c_terms[:, :2], c_terms[:, 2:]
    # R(x), N(x), R(x*), N(x*), each over the limit (first) and every live index
    spaces = list(zip(*_inverse_subspaces([x] + [c.inverse for c in certs_ok], tol)))
    x_range, x_null = (_gaps(s[1:], s[0]) for s in spaces[:2])
    values = {
        "inverse_error": norms([c.inverse - x for c in certs_ok]),
        "left_product_error": left,
        "right_product_error": right,
        "inverse_range_gap": x_range,
        "inverse_nullspace_gap": x_null,
        "mp_range_terms": br,
        "mp_null_terms": ck,
        "mp_cokernel_terms": bk,
        "mp_corange_terms": cr,
    }
    mismatch = None
    if mp_report:
        values.update(
            range_gap=x_range,
            nullspace_gap=x_null,
            range_projector_error=left,
            null_projector_error=right,
        )
        x_corange, x_cokernel = (_gaps(s[1:], s[0]) for s in spaces[2:])
        identities = ((x_range, br), (x_null, ck), (x_cokernel, bk), (x_corange, cr))
        mismatch = float(np.max([abs(g - t.max(axis=1)) for g, t in identities], initial=0.0))
    else:
        t, s = limit.prescribed_range.basis, limit.prescribed_nullspace.basis
        values.update(
            range_gap=_gaps([c.prescribed_range.basis for c in certs_ok], t),
            nullspace_gap=_gaps([c.prescribed_nullspace.basis for c in certs_ok], s),
            range_projector_error=norms([pn - p for pn, _ in projectors]),
            null_projector_error=norms([qn - q for _, qn in projectors]),
        )
    records = {name: _record(values[name], live, len(certs)) for name in RECORD_NAMES}
    err_scale = max(1.0, limit.inverse_norm * max(1.0, limit.operator_norm))
    verdicts = _verdicts(records, tol, err_scale)
    if mp_report:
        verdicts = {k: v for k, v in verdicts.items() if k.startswith("mp_")}
    return SequenceDiagnostics(
        **records,
        failed_indices=tuple(k + 1 for k in sorted(set(range(len(certs))) - set(live))),
        verdicts=verdicts,
        alarm=_alarm(verdicts),
        remark_gap_identity_mismatch=mismatch,
    )


def _mp_projectors(cert: InverseCertificate) -> tuple[np.ndarray, np.ndarray]:
    """b b^+ = P_T and c^+ c = I - P_S from a certificate's orthonormal bases of T and S.

    For a (b, c)-inverse T = R(b) and S = N(c); for Moore-Penrose (b = c = a^+)
    these are a^+ a and a a^+.
    """
    s = cert.prescribed_nullspace
    return cert.prescribed_range.projector(), np.eye(s.ambient_dim) - s.projector()


def _inverse_subspaces(xs, tol: ToleranceConfig):
    """Bases of R(x), N(x), R(x*) and N(x*) for each x, from one batched full SVD.

    The rank of each x is decided as in column_space / null_space.
    """
    u, sigma, v = kernel.svd_stack(xs, full=True)
    ranks = kernel.numerical_rank(sigma, tol)
    return [(u[k, :, :r], v[k, :, r:], v[k, :, :r], u[k, :, r:]) for k, r in enumerate(ranks)]


def _gaps(bases, n: np.ndarray) -> np.ndarray:
    """subspace.gap between span(n) and the span of each basis, all orthonormal."""
    return deviations(bases, n).max(axis=1)


def _record(values: np.ndarray, live: list[int], count: int) -> tuple:
    """Per-index values scattered over ``count`` indices, NaN at the failed ones."""
    full = np.full((count, *values.shape[1:]), np.nan)
    full[live] = values
    return tuple(map(tuple, full.tolist())) if full.ndim == 2 else tuple(full.tolist())


def _verdicts(records: dict, tol: ToleranceConfig, err_scale: float) -> dict[str, bool]:
    """Each characterization holds when every record it asserts converges; a pair
    record converges when both of its components do (never when it is empty)."""
    converged = {}
    for name in RECORD_NAMES:
        parts = [records[name]]
        if name.endswith("_terms"):
            parts = [[pair[k] for pair in records[name]] for k in (0, 1)]
        scale = err_scale if name in _SCALED else 1.0
        converged[name] = all(converged_by_final_index(v, tol, scale) for v in parts)
    return {v: all(converged[name] for name in names) for v, names in CHARACTERIZATIONS.items()}


def _alarm(verdicts: dict[str, bool]) -> bool:
    for prefix in ("gap_", "mp_", "oip_"):
        group = [v for k, v in verdicts.items() if k.startswith(prefix)]
        if group and any(group) and not all(group):
            return True
    return False
