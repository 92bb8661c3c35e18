"""Derivatives of parameter-dependent generalized inverses.

Every inverse here is the outer inverse with prescribed range T and null
space S, so one formula covers them all: with P_T and P_S any idempotents with
ranges T and S (the orthogonal projectors, say), the derivative is
``x (-P_S)' (I - a x) + (I - x a) (P_T)' x - x a' x``, which
``outer_derivative`` evaluates. A finite-difference harness checks
the formula against central differences of the inverse curve over a
decreasing step sweep and fits the observed convergence order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CertificateError, ExistenceError, InputError
from .inverses import bc_inverse_stack, moore_penrose_stack, outer_prescribed_stack
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix, spectral_norm, stack_norms
from .subspace import ObliqueProjector, column_spaces


@dataclass(frozen=True)
class MatrixCurve:
    """A matrix-valued function of one real parameter on an open interval."""

    evaluator: Callable[[float], np.ndarray]
    domain: tuple[float, float] = (-1.0, 1.0)
    label: str = ""

    def __call__(self, t: float) -> np.ndarray:
        lo, hi = self.domain
        if not lo < t < hi:
            raise InputError(f"curve {self.label or '<unnamed>'} evaluated outside {self.domain}")
        return as_matrix(self.evaluator(t))


@dataclass(frozen=True, eq=False)  # identity ==, hashable: fields are arrays
class DerivativeReport:
    t0: float
    formula_derivative: np.ndarray
    fd_errors: tuple[tuple[float, float], ...]
    observed_order: float | str  # "exact" when every error sits at rounding level


def outer_derivative(x, a, a_prime, range_prime, null_prime) -> np.ndarray:
    """Derivative of an outer-inverse curve with range T(t) and null space S(t) at the base point.

    x is the inverse (n x m) of ``a`` (m x n) there and a_prime the derivative of a;
    range_prime and null_prime are the derivatives of any idempotent curves whose ranges are
    T(t) and S(t). For (b, c)-inverses these are (b g)' and (I - h c)' = -(h c)' for inner
    inverses g, h of b, c; for Moore-Penrose (a^+ a)' and (I - a a^+)' = -(a a^+)'.
    """
    x, a, a_prime, range_prime, null_prime = map(
        as_matrix, (x, a, a_prime, range_prime, null_prime)
    )
    # m and n are the sizes most operands agree on, so a single misfit is the one named
    m, n = (max(sizes, key=sizes.count) for sizes in (
        [x.shape[1], a.shape[0], a_prime.shape[0], *null_prime.shape],
        [x.shape[0], a.shape[1], a_prime.shape[1], *range_prime.shape]))
    shapes = {"x": (x, (n, m)), "a": (a, (m, n)), "a_prime": (a_prime, (m, n)),
              "range_prime": (range_prime, (n, n)), "null_prime": (null_prime, (m, m))}
    for name, (operand, shape) in shapes.items():
        if operand.shape != shape:
            raise InputError(f"{name} has shape {operand.shape}, expected {shape}")
    return _sandwich(x, a, x, a, -null_prime, range_prime, a_prime)


def _sandwich(xl, al, xr, ar, left, right, delta) -> np.ndarray:
    """``xl L (I - ar xr) + (I - xl al) R xr - xl delta xr``: the derivative of x at xl = xr = x,
    al = ar = a, delta = a', and exactly y - x for outer inverses y of b and x of a at xl = y,
    al = b, xr = x, ar = a, delta = b - a."""
    m, n = ar.shape
    return xl @ left @ (np.eye(m) - ar @ xr) + (np.eye(n) - xl @ al) @ right @ xr - xl @ delta @ xr


def difference_identity_residual(
    a,
    b,
    a_inv,
    b_inv,
    pt: ObliqueProjector,
    pv: ObliqueProjector,
    ps: ObliqueProjector,
    pu: ObliqueProjector,
) -> float:
    """Residual of the exact identity expanding the difference of two outer inverses.

    a_inv and b_inv are prescribed-subspace outer inverses of a and b; the
    projectors have ranges equal to the four prescribed subspaces (T, V in the
    domain; S, U in the codomain). The identity is algebraic, so the residual
    must sit at rounding level.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    a_inv = as_matrix(a_inv)
    b_inv = as_matrix(b_inv)
    m, n = a.shape
    if b.shape != (m, n) or a_inv.shape != (n, m) or b_inv.shape != (n, m):
        raise InputError("operand shapes are inconsistent")
    rhs = _sandwich(b_inv, b, a_inv, a, ps.matrix - pu.matrix, pv.matrix - pt.matrix, b - a)
    return spectral_norm((b_inv - a_inv) - rhs)


def _fit_order(steps: Sequence[float], errors: Sequence[float]) -> float:
    slopes = []
    for i in range(len(steps) - 1):
        if errors[i] > 0.0 and errors[i + 1] > 0.0:
            slopes.append(
                float(np.log(errors[i] / errors[i + 1]) / np.log(steps[i] / steps[i + 1]))
            )
    if not slopes:
        return float("nan")
    if len(slopes) >= 3:
        # the finest pair is usually rounding-limited
        slopes = slopes[:-1]
    return float(np.mean(slopes))


def _oip_stack(points: list, tol: ToleranceConfig) -> list:
    """outer_prescribed at each (a, p, q), T = R(p) and S = R(q) from one SVD of the p's, one of
    the q's."""
    ops, ps, qs = zip(*points)
    return outer_prescribed_stack([*zip(ops, column_spaces(ps, tol), column_spaces(qs, tol))], tol)


# kind -> (number of curves, stacked construction from the curves' values at each point);
# each looks its stack up at call time, so a rebound name is the one called
_CONSTRUCTIONS = {
    "bc": (3, lambda points, tol: bc_inverse_stack(points, tol)),
    "mp": (1, lambda points, tol: moore_penrose_stack([a for (a,) in points], tol)),
    "oip": (3, _oip_stack),
}


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def finite_difference_check(
    curves: Sequence[MatrixCurve],
    t0: float,
    tol: ToleranceConfig = DEFAULT_TOL,
    kind: str = "bc",
) -> DerivativeReport:
    """Compare the derivative formula against central differences of the inverse curve.

    kind selects the construction: "bc" takes (a, b, c) curves, "mp" a single
    operator curve, "oip" an operator curve plus two curves whose column spans
    prescribe the inverse's range and null space. The curves are evaluated at
    t0 and at t0 +- each step, and the 1 + 2 len(steps) certificates are one
    stacked construction (``bc_inverse_stack``, ``moore_penrose_stack`` or
    ``outer_prescribed_stack``), each slice bit-identical to its single call;
    nothing else is constructed: a', (P_T)' and (P_S)' are central-differenced
    at the finest step from those certificates' operators and prescribed
    subspaces, and the errors of all steps are one batched norm. So the
    factorizations do not grow with the number of steps. The points are
    checked in sweep order (t0, t0 + h, t0 - h for each step in turn): the
    first one whose inverse does not exist, or whose prescribed subspaces
    differ in dimension from t0's (the inverse jumps there), raises
    ExistenceError; a refused certificate raises its CertificateError as it is,
    and so does a formula derivative that overflows.
    """
    if kind not in _CONSTRUCTIONS:
        raise InputError(f"unknown kind {kind!r}")
    expected, construct = _CONSTRUCTIONS[kind]
    if len(curves) != expected:
        raise InputError(f"kind {kind!r} takes {expected} curve(s), got {len(curves)}")
    steps = tol.fd_step_sweep
    hmax = max(steps)
    for curve in curves:
        lo, hi = curve.domain
        if not (lo < t0 - hmax and t0 + hmax < hi):
            raise InputError("curve domain does not cover the difference window")
    points = [t0, *(t for h in steps for t in (t0 + h, t0 - h))]
    certs = construct([tuple(curve(t) for curve in curves) for t in points], tol)
    for t, cert in zip(points, certs):
        if isinstance(cert, CertificateError):
            raise cert
        if isinstance(cert, ExistenceError):
            raise ExistenceError(
                f"curve leaves invertible set at t={t}: {cert}",
                clause="curve leaves invertible set",
                margin=cert.margin,
            ) from cert
        here, there = (
            (c.prescribed_range.dim, c.prescribed_nullspace.dim) for c in (cert, certs[0])
        )
        if here != there:  # the inverse jumps at t0, which differences across t0 never see
            raise ExistenceError(
                f"curve leaves invertible set at t={t}: prescribed range and null space "
                f"have dimensions {here} there against {there} at t0={t0}",
                clause="curve leaves invertible set",
            )
    base, sweep = certs[0], list(zip(steps, certs[1::2], certs[2::2]))
    h_ref, plus, minus = sweep[-1]  # the sweep decreases strictly: its last step is the finest

    def prime(read) -> np.ndarray:
        return (read(plus) - read(minus)) / (2.0 * h_ref)

    # every inverse here has L = -(P_S)' and R = (P_T)' in the shared sandwich
    x, a = base.inverse, base.operator
    deriv = _sandwich(x, a, x, a, -prime(lambda cert: cert.prescribed_nullspace.projector()),
                      prime(lambda cert: cert.prescribed_range.projector()),
                      prime(lambda cert: cert.operator))
    if not np.isfinite(deriv).all():
        raise CertificateError("formula derivative is not finite", margin=np.inf)
    misfits = [(fwd.inverse - back.inverse) / (2.0 * h) - deriv for h, fwd, back in sweep]
    errors = stack_norms(np.stack(misfits)).tolist()
    if max(errors) <= tol.residual_tol * max(1.0, base.inverse_norm):
        order: float | str = "exact"
    else:
        order = _fit_order(steps, errors)
    return DerivativeReport(
        t0=t0,
        formula_derivative=deriv,
        fd_errors=tuple(zip([float(s) for s in steps], errors)),
        observed_order=order,
    )
