"""Empirical convergence diagnostics for sequences of inverse problems.

A sequence report evaluates, per index, every quantity appearing in the
equivalent characterizations of inverse convergence: inverse and product
errors, geometric gaps between prescribed subspaces, and the Moore-Penrose
projector terms that express those gaps algebraically. Every gap and projector
term is a one-sided deviation from ``subspace.deviations``: the projector terms
are those of the prescribed range T = R(b) and null space S = N(c), so no
projector is formed. Each characterization gets a boolean verdict under a
finite-sequence convergence proxy; because the characterizations are
equivalent, a split verdict set is flagged as an alarm.

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
from .subspace import column_spaces, deviations, gap


@dataclass(frozen=True, eq=False)  # identity ==, hashable: verdicts is a dict
class SequenceDiagnostics:
    """Per-index convergence measurements plus verdicts.

    All error entries are nonnegative, all gap entries lie in [0, 1]; failed
    indices (where the per-index inverse does not exist) hold NaN and are
    excluded from the verdicts. The mp_*_terms pairs and the projector errors
    are the one-sided deviations of T_n from T and of S_n from S, in the
    orders the projector products give them (see _diagnose).
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
    the column space of b, so the range terms are the one-sided deviations
    ``(delta(R(bn), R(b)), delta(R(b), R(bn)))`` and the cokernel terms, their
    adjoints, are the same pair swapped; both are read off one ``gap``.
    """
    b = as_matrix(b)
    bn = as_matrix(bn)
    if b.shape != bn.shape or b.shape[0] != b.shape[1]:
        raise InputError("mp_gap_terms needs square matrices of equal size")
    d_nb, d_bn, _ = gap(*column_spaces([bn, b], tol))
    return (d_nb, d_bn), (d_bn, d_nb)


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
    the eight projector characterizations, and cross-checks the gaps of R(x_n)
    and N(x_n), read off the SVD of each x_n = a_n^+, against those of T_n and
    S_n, read off the SVD of each a_n inside its certificate (the largest
    mismatch is recorded). An index whose certificate is refused is recorded as
    failed; a refused limit raises.
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
    and every projector record from two readings of ``deviations``: the
    prescribed ranges T_n against T and the prescribed null spaces S_n against S.
    """
    live = [k for k, cert in enumerate(certs) if isinstance(cert, InverseCertificate)]
    certs_ok = [certs[k] for k in live]
    x, a = limit.inverse, limit.operator
    xa, ax = x @ a, a @ x
    norms = kernel.spectral_norms
    left = norms([c.inverse @ c.operator - xa for c in certs_ok])
    right = norms([c.operator @ c.inverse - ax for c in certs_ok])
    # Orthogonal projectors P onto M and P_n onto M_n satisfy ||(I - P) P_n|| =
    # delta(M_n, M); taking adjoints swaps the pair; and ||P_n - P|| is the larger
    # of the two (Kato 1966, I §6.8). With b b^+ = P_T and c^+ c = I - P_S, every
    # projector record is read off the rows (delta(T_n, T), delta(T, T_n)) and
    # (delta(S_n, S), delta(S, S_n)).
    t, s = limit.prescribed_range.basis, limit.prescribed_nullspace.basis
    t_devs = deviations([c.prescribed_range.basis for c in certs_ok], t)
    s_devs = deviations([c.prescribed_nullspace.basis for c in certs_ok], s)
    t_gap, s_gap = t_devs.max(axis=1), s_devs.max(axis=1)
    # R(x) and N(x) over the limit (first) and every live index
    spaces = zip(*_inverse_subspaces([x] + [c.inverse for c in certs_ok], tol))
    x_range, x_null = (deviations(bases[1:], bases[0]).max(axis=1) for bases in spaces)
    values = {
        "inverse_error": norms([c.inverse - x for c in certs_ok]),
        "left_product_error": left,
        "right_product_error": right,
        "inverse_range_gap": x_range,
        "inverse_nullspace_gap": x_null,
        "mp_range_terms": t_devs,
        "mp_null_terms": s_devs,
        "mp_cokernel_terms": t_devs[:, ::-1],
        "mp_corange_terms": s_devs[:, ::-1],
    }
    mismatch = None
    if mp_report:
        values.update(
            range_gap=x_range,
            nullspace_gap=x_null,
            range_projector_error=left,
            null_projector_error=right,
        )
        mismatch = float(np.max([abs(x_range - t_gap), abs(x_null - s_gap)], initial=0.0))
    else:
        values.update(
            range_gap=t_gap,
            nullspace_gap=s_gap,
            range_projector_error=t_gap,
            null_projector_error=s_gap,
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


def _inverse_subspaces(xs, tol: ToleranceConfig):
    """Bases of R(x) and N(x) for each x, from one batched full SVD.

    The rank of each x is decided as in column_space / null_space.
    """
    u, sigma, v = kernel.svd_stack(xs, full=True)
    ranks = kernel.numerical_rank(sigma, tol)
    return [(u[k, :, :r], v[k, :, r:]) for k, r in enumerate(ranks)]


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
