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
from .subspace import deviations


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

# The keys of SequenceDiagnostics.records, in order of first assertion; the *_terms records
# hold pairs. Every other field of SequenceDiagnostics is a summary of them.
RECORD_NAMES = tuple(dict.fromkeys(name for names in CHARACTERIZATIONS.values() for name in names))


@dataclass(frozen=True, eq=False)  # identity ==, hashable: records and verdicts are dicts
class SequenceDiagnostics:
    """Per-index convergence measurements plus verdicts.

    All error entries are nonnegative, all gap entries lie in [0, 1]; failed
    indices (where the per-index inverse does not exist) hold NaN and are
    excluded from the verdicts. The mp_*_terms pairs and the projector errors
    are the one-sided deviations of T_n from T and of S_n from S, in the
    orders the projector products give them (see _diagnose).
    """

    records: dict[str, tuple]  # RECORD_NAMES, in order -> per-index values; also attributes
    failed_indices: tuple[int, ...]
    verdicts: dict[str, bool]
    alarm: bool
    remark_gap_identity_mismatch: float | None = None


for _name in RECORD_NAMES:  # read-only attribute views of the records
    setattr(SequenceDiagnostics, _name, property(lambda self, name=_name: self.records[name]))
del _name

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


def zero_limit_check(certificates) -> tuple[bool, int | None]:
    """Classify a sequence whose limit inverse is zero.

    Such a sequence converges iff the inverses are exactly zero from some
    index on; returns that first 1-based index, or (False, None). An inverse is
    exactly zero iff its prescribed range is {0}, that is, its inverse_norm is 0.
    """
    certs = list(certificates)
    if not certs:
        raise InputError("empty certificate sequence")
    for k, cert in enumerate(certs):
        if not isinstance(cert, InverseCertificate):
            raise InputError(f"entry {k + 1} is not a certificate: {cert!r}")
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
    # the limit (slice 0) and every live index: one stack of the inverses, one of the operators
    with_limit = (limit, *certs_ok)
    xs, ops = np.stack([c.inverse for c in with_limit]), np.stack([c.operator for c in with_limit])
    xn, an = xs[1:], ops[1:]
    # the left-product, right-product and inverse errors: one values-only SVD of every slice
    left, right, inverse_error = kernel.stack_norms(
        xn @ an - x @ a, an @ xn - a @ x, xn - x).reshape(3, len(xn))
    # Orthogonal projectors P onto M and P_n onto M_n satisfy ||(I - P) P_n|| =
    # delta(M_n, M); taking adjoints swaps the pair; and ||P_n - P|| is the larger
    # of the two (Kato 1966, I §6.8). With b b^+ = P_T and c^+ c = I - P_S, every
    # projector record is read off the rows (delta(T_n, T), delta(T, T_n)) and
    # (delta(S_n, S), delta(S, S_n)).
    t, s = limit.prescribed_range.basis, limit.prescribed_nullspace.basis
    t_devs = deviations([c.prescribed_range.basis for c in certs_ok], t)
    s_devs = deviations([c.prescribed_nullspace.basis for c in certs_ok], s)
    t_gap, s_gap = t_devs.max(axis=1), s_devs.max(axis=1)
    # bases of R(x) and N(x) for each x, its rank decided as in column_space / null_space
    spaces = zip(*[(u[:, :r], v[:, r:]) for u, _, v, r in kernel.svds(list(xs), tol)])
    x_range, x_null = (deviations(bases[1:], bases[0]).max(axis=1) for bases in spaces)
    # the MP report (b = c = x) reads its gaps off R(x_n) and N(x_n), and its projector errors
    # are the product errors; the (b, c) report reads both off T_n and S_n (Kato, as above)
    range_gap, null_gap = (x_range, x_null) if mp_report else (t_gap, s_gap)
    range_projector, null_projector = (left, right) if mp_report else (t_gap, s_gap)
    values = {
        "inverse_error": inverse_error,
        "left_product_error": left,
        "right_product_error": right,
        "range_gap": range_gap,
        "nullspace_gap": null_gap,
        "inverse_range_gap": x_range,
        "inverse_nullspace_gap": x_null,
        "mp_range_terms": t_devs,
        "mp_null_terms": s_devs,
        "mp_cokernel_terms": t_devs[:, ::-1],
        "mp_corange_terms": s_devs[:, ::-1],
        "range_projector_error": range_projector,
        "null_projector_error": null_projector,
    }
    mismatch = float(np.max([abs(x_range - t_gap), abs(x_null - s_gap)], initial=0.0))
    records = {name: _record(values[name], live, len(certs)) for name in RECORD_NAMES}
    err_scale = max(1.0, limit.inverse_norm * max(1.0, limit.operator_norm))
    verdicts = _verdicts(records, tol, err_scale)
    if mp_report:
        verdicts = {k: v for k, v in verdicts.items() if k.startswith("mp_")}
    return SequenceDiagnostics(
        records,
        failed_indices=tuple(k + 1 for k in sorted(set(range(len(certs))) - set(live))),
        verdicts=verdicts,
        alarm=_alarm(verdicts),
        remark_gap_identity_mismatch=mismatch if mp_report else None,
    )


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
    """Whether one family of equivalent verdicts (the key's text before its first _) splits."""
    families: dict[str, set] = {}
    for key, holds in verdicts.items():
        families.setdefault(key.partition("_")[0], set()).add(holds)
    return any(len(outcomes) == 2 for outcomes in families.values())
