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
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix, cayley, stack_norms
from .subspace import column_spaces


@dataclass(frozen=True, eq=False)
class CayleyQuadratic:
    """``t -> cayley(left, t) @ (c0 + t c1 + t t c2) @ cayley(right, t)``, c1, c2, left and right
    optional: every library curve. At an array of t, the stack of the values, one batched solve per
    Cayley factor, each slice bit for bit the value at its t (one LAPACK or BLAS call per slice)."""

    c0: np.ndarray
    c1: np.ndarray | None = None
    c2: np.ndarray | None = None
    left: np.ndarray | None = None
    right: np.ndarray | None = None

    def __call__(self, t) -> np.ndarray:
        s = np.asarray(t, dtype=float)[..., None, None]
        value = self.c0 if self.c1 is None else self.c0 + s * self.c1
        value = value if self.c2 is None else value + s * s * self.c2
        value = value if self.left is None else cayley(self.left, t) @ value
        value = value if self.right is None else value @ cayley(self.right, t)
        return value if value.ndim == s.ndim else np.repeat(value[None], len(s), axis=0)


@dataclass(frozen=True)
class MatrixCurve:
    """A matrix-valued function of one real parameter on an open interval; ``at(ts)`` stacks its
    values at the points ts, from one call of a ``CayleyQuadratic`` evaluator or one per point."""

    evaluator: Callable[[float], np.ndarray]
    domain: tuple[float, float] = (-1.0, 1.0)
    label: str = ""

    def _inside(self, t):
        lo, hi = self.domain
        if not lo < t < hi:
            raise InputError(f"curve {self.label or '<unnamed>'} evaluated outside {self.domain}")
        return t

    def __call__(self, t: float) -> np.ndarray:
        return as_matrix(self.evaluator(self._inside(t)))

    def at(self, ts: Sequence[float]) -> np.ndarray:
        ts = [self._inside(t) for t in ts]
        whole = isinstance(self.evaluator, CayleyQuadratic)
        return as_matrix(self.evaluator(np.array(ts)) if whole else [self(t) for t in ts], ndim=3)


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
    return _sandwich(x, a, -null_prime, range_prime, a_prime)


def _sandwich(x, a, left, right, delta) -> np.ndarray:
    """``x L (I - a x) + (I - x a) R x - x delta x``: the derivative of x at L = -(P_S)',
    R = (P_T)' and delta = a'."""
    m, n = a.shape
    return x @ left @ (np.eye(m) - a @ x) + (np.eye(n) - x @ a) @ right @ x - x @ delta @ x


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
    """outer_prescribed at each (a, p, q), T = R(p) and S = R(q) from one ``column_spaces`` of
    the p's and q's (one SVD where they share a shape and field)."""
    ops, ps, qs = zip(*points)
    spans = column_spaces([*ps, *qs], tol)
    return outer_prescribed_stack([*zip(ops, spans[:len(ps)], spans[len(ps):])], tol)


# kind -> (its curves' labels, stacked construction from the curves' values at each point):
# the one list of derivative kinds, read by finite_difference_check and the derivcheck CLI;
# each looks its stack up at call time, so a rebound name is the one called
KINDS = {
    "bc": ("abc", lambda points, tol: bc_inverse_stack(points, tol)),
    "mp": ("a", lambda points, tol: moore_penrose_stack([a for (a,) in points], tol)),
    "oip": ("ats", _oip_stack),
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
    prescribe the inverse's range and null space. Each curve is read once, with
    ``at`` on the points t0 and t0 +- each step (a library curve in one batched
    solve per Cayley factor), and the 1 + 2 len(steps) certificates are one
    stacked construction (``bc_inverse_stack``, ``moore_penrose_stack`` or
    ``outer_prescribed_stack``), each slice bit-identical to its single call;
    nothing else is constructed: a', (P_T)' and (P_S)' are central-differenced
    at the finest step from those certificates' operators and prescribed
    subspaces, and the errors of all steps are one batched norm. So neither the
    factorizations nor the curves' solves grow with the number of steps. The
    points are checked in sweep order (t0, t0 + h, t0 - h for each step): the
    first one whose inverse does not exist, or whose prescribed subspaces
    differ in dimension from t0's (the inverse jumps there), raises
    ExistenceError; a refused certificate raises its CertificateError as it is,
    and so does a formula derivative that overflows.
    """
    if kind not in KINDS:
        raise InputError(f"unknown kind {kind!r}")
    labels, construct = KINDS[kind]
    if len(curves) != len(labels):
        raise InputError(f"kind {kind!r} takes {len(labels)} curve(s), got {len(curves)}")
    steps = tol.fd_step_sweep
    points = [t0, *(t for h in steps for t in (t0 + h, t0 - h))]
    if not all(c.domain[0] < min(points) and max(points) < c.domain[1] for c in curves):
        raise InputError("curve domain does not cover the difference window")
    certs = construct(list(zip(*(curve.at(points) for curve in curves))), tol)
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
    deriv = _sandwich(x, a, -prime(lambda cert: cert.prescribed_nullspace.projector()),
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
