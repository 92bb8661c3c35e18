"""Derivatives of parameter-dependent generalized inverses.

Each closed-form derivative below consumes the inverse at the base point plus
derivatives of the operator curve and of two auxiliary projector-like product
curves. A finite-difference harness drives the formulas against central
differences of the inverse curve itself over a decreasing step sweep and fits
the observed convergence order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ExistenceError, InputError
from .inverses import bc_inverse, moore_penrose, outer_prescribed
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix, spectral_norm
from .subspace import ObliqueProjector, column_space


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


@dataclass(frozen=True)
class DerivativeReport:
    t0: float
    formula_derivative: np.ndarray
    fd_errors: tuple[tuple[float, float], ...]
    observed_order: float | str  # "exact" when every error sits at rounding level


def bc_derivative(ainv0, a0, aprime, hc_prime, bg_prime) -> np.ndarray:
    """Derivative of a (b, c)-inverse curve at the base point.

    hc_prime and bg_prime are the derivatives of the inner-inverse product
    curves h*c and b*g, where g and h are inner inverses of b and c. The
    hc term acts on the cokernel side, the bg term on the kernel side, and
    the operator term is the usual resolvent-style sandwich.
    """
    x = as_matrix(ainv0)
    a0 = as_matrix(a0)
    aprime, hc_prime, bg_prime = map(as_matrix, (aprime, hc_prime, bg_prime))
    if a0.shape[0] != a0.shape[1] or x.shape != a0.shape:
        raise InputError("bc_derivative needs square matrices of equal size")
    return _sandwich(x, a0, aprime, hc_prime, bg_prime)


def mp_derivative(a0, adag0, aprime, aadag_prime, adaga_prime) -> np.ndarray:
    """Derivative of a Moore-Penrose inverse curve at the base point.

    aadag_prime and adaga_prime are the derivatives of the projector curves
    a*adag and adag*a.
    """
    a0 = as_matrix(a0)
    x = as_matrix(adag0)
    aprime, aadag_prime, adaga_prime = map(as_matrix, (aprime, aadag_prime, adaga_prime))
    m, n = a0.shape
    if x.shape != (n, m):
        raise InputError("adag0 shape does not match a0")
    return _sandwich(x, a0, aprime, aadag_prime, adaga_prime)


def oip_derivative(ainv0, a0, aprime, pprime, qprime) -> np.ndarray:
    """Derivative of a prescribed-subspace outer inverse curve at the base point.

    pprime and qprime are the derivatives of the idempotent curves whose
    ranges prescribe the range and the null space of the inverse.
    """
    a0 = as_matrix(a0)
    x = as_matrix(ainv0)
    aprime, pprime, qprime = map(as_matrix, (aprime, pprime, qprime))
    m, n = a0.shape
    if x.shape != (n, m):
        raise InputError("ainv0 shape does not match a0")
    return _sandwich(x, a0, aprime, -qprime, pprime)


def _sandwich(x, a0, aprime, left, right) -> np.ndarray:
    """``x L (I - a x) + (I - x a) R x - x a' x``, the form all three derivatives share."""
    m, n = a0.shape
    return x @ left @ (np.eye(m) - a0 @ x) + (np.eye(n) - x @ a0) @ right @ x - x @ aprime @ x


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
    rhs = (
        b_inv @ (ps.matrix - pu.matrix) @ (np.eye(m) - a @ a_inv)
        + (np.eye(n) - b_inv @ b) @ (pv.matrix - pt.matrix) @ a_inv
        - b_inv @ (b - a) @ a_inv
    )
    return spectral_norm((b_inv - a_inv) - rhs)


def _central(curve, t0: float, h: float) -> np.ndarray:
    return (curve(t0 + h) - curve(t0 - h)) / (2.0 * h)


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


def finite_difference_check(
    curves: Sequence[MatrixCurve],
    t0: float,
    tol: ToleranceConfig = DEFAULT_TOL,
    kind: str = "bc",
    g_curve: MatrixCurve | None = None,
    h_curve: MatrixCurve | None = None,
) -> DerivativeReport:
    """Compare a derivative formula against central differences of the inverse curve.

    kind selects the formula and the curve family: "bc" takes (a, b, c) curves,
    "mp" a single operator curve, "oip" an operator curve plus two idempotent
    curves whose ranges prescribe the inverse's range and null space. Curve
    derivatives feeding the formula are central-differenced at the finest step
    of the sweep; the inner-inverse curves for "bc" default to Moore-Penrose
    and can be overridden with g_curve / h_curve.
    """
    if kind not in ("bc", "mp", "oip"):
        raise InputError(f"unknown kind {kind!r}")
    expected = {"bc": 3, "mp": 1, "oip": 3}[kind]
    if len(curves) != expected:
        raise InputError(f"kind {kind!r} takes {expected} curve(s), got {len(curves)}")
    steps = tol.fd_step_sweep
    hmax = max(steps)
    for curve in curves:
        lo, hi = curve.domain
        if not (lo < t0 - hmax and t0 + hmax < hi):
            raise InputError("curve domain does not cover the difference window")

    if kind == "bc":
        a_curve, b_curve, c_curve = curves
        g = g_curve or MatrixCurve(
            lambda t: moore_penrose(b_curve(t), tol).inverse, b_curve.domain, "b_pinv"
        )
        h = h_curve or MatrixCurve(
            lambda t: moore_penrose(c_curve(t), tol).inverse, c_curve.domain, "c_pinv"
        )

        def inverse_at(t: float) -> np.ndarray:
            return bc_inverse(a_curve(t), b_curve(t), c_curve(t), tol).inverse

        def formula(x0, h_ref):
            a0 = a_curve(t0)
            aprime = _central(a_curve, t0, h_ref)
            hc = MatrixCurve(lambda t: h(t) @ c_curve(t), c_curve.domain)
            bg = MatrixCurve(lambda t: b_curve(t) @ g(t), b_curve.domain)
            return bc_derivative(x0, a0, aprime, _central(hc, t0, h_ref), _central(bg, t0, h_ref))

    elif kind == "mp":
        (a_curve,) = curves

        def inverse_at(t: float) -> np.ndarray:
            return moore_penrose(a_curve(t), tol).inverse

        def formula(x0, h_ref):
            a0 = a_curve(t0)
            aprime = _central(a_curve, t0, h_ref)
            aad = MatrixCurve(lambda t: a_curve(t) @ inverse_at(t), a_curve.domain)
            ada = MatrixCurve(lambda t: inverse_at(t) @ a_curve(t), a_curve.domain)
            return mp_derivative(a0, x0, aprime, _central(aad, t0, h_ref), _central(ada, t0, h_ref))

    else:
        a_curve, p_curve, q_curve = curves

        def inverse_at(t: float) -> np.ndarray:
            t_space = column_space(p_curve(t), tol)
            s_space = column_space(q_curve(t), tol)
            return outer_prescribed(a_curve(t), t_space, s_space, tol).inverse

        def formula(x0, h_ref):
            a0 = a_curve(t0)
            aprime = _central(a_curve, t0, h_ref)
            return oip_derivative(
                x0, a0, aprime, _central(p_curve, t0, h_ref), _central(q_curve, t0, h_ref)
            )

    def inverse_or_raise(t: float) -> np.ndarray:
        try:
            return inverse_at(t)
        except ExistenceError as exc:
            raise ExistenceError(
                f"curve leaves invertible set at t={t}: {exc}",
                clause="curve leaves invertible set",
                margin=exc.margin,
            ) from exc

    x0 = inverse_or_raise(t0)
    deriv = formula(x0, min(steps))
    errors = []
    for h_step in steps:
        fd = (inverse_or_raise(t0 + h_step) - inverse_or_raise(t0 - h_step)) / (2.0 * h_step)
        errors.append(spectral_norm(fd - deriv))
    scale = max(1.0, spectral_norm(x0))
    if max(errors) <= tol.residual_tol * scale:
        order: float | str = "exact"
    else:
        order = _fit_order(steps, errors)
    return DerivativeReport(
        t0=t0,
        formula_derivative=deriv,
        fd_errors=tuple(zip([float(s) for s in steps], [float(e) for e in errors])),
        observed_order=order,
    )
