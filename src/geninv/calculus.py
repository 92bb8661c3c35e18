"""Derivatives of parameter-dependent generalized inverses.

Every inverse here is the outer inverse with prescribed range T and null
space S, so one formula covers them all: with P_T and P_S the orthogonal
projectors onto T and S, the derivative is
``x (-P_S)' (I - a x) + (I - x a) (P_T)' x - x a' x``. The public
``bc_derivative``, ``mp_derivative`` and ``oip_derivative`` take that formula's
inputs in each construction's own terms. A finite-difference harness checks
the formula against central differences of the inverse curve over a
decreasing step sweep and fits the observed convergence order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ExistenceError, InputError
from .inverses import InverseCertificate, bc_inverse, moore_penrose, outer_prescribed
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


@dataclass(frozen=True, eq=False)  # identity ==, hashable: fields are arrays
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


# kind -> (number of curves, construction from the curves' values at one t)
_CONSTRUCTIONS = {
    "bc": (3, lambda tol, a, b, c: bc_inverse(a, b, c, tol)),
    "mp": (1, lambda tol, a: moore_penrose(a, tol)),
    "oip": (
        3,
        lambda tol, a, p, q: outer_prescribed(a, column_space(p, tol), column_space(q, tol), tol),
    ),
}


def finite_difference_check(
    curves: Sequence[MatrixCurve],
    t0: float,
    tol: ToleranceConfig = DEFAULT_TOL,
    kind: str = "bc",
) -> DerivativeReport:
    """Compare the derivative formula against central differences of the inverse curve.

    kind selects the construction: "bc" takes (a, b, c) curves, "mp" a single
    operator curve, "oip" an operator curve plus two curves whose column spans
    prescribe the inverse's range and null space. The sweep builds one
    certificate at t0 and at t0 +- each step, 1 + 2 len(steps) in all, and
    nothing else: a', (P_T)' and (P_S)' are central-differenced at the finest
    step from those certificates' operators and prescribed subspaces. A sweep
    point whose prescribed subspaces differ in dimension from t0's raises
    ExistenceError: the inverse jumps there.
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

    def certificate(t: float, base: InverseCertificate | None = None) -> InverseCertificate:
        try:
            cert = construct(tol, *(curve(t) for curve in curves))
        except ExistenceError as exc:
            raise ExistenceError(
                f"curve leaves invertible set at t={t}: {exc}",
                clause="curve leaves invertible set",
                margin=exc.margin,
            ) from exc
        here, there = (
            (c.prescribed_range.dim, c.prescribed_nullspace.dim) for c in (cert, base or cert)
        )
        if here != there:  # the inverse jumps at t0, which differences across t0 never see
            raise ExistenceError(
                f"curve leaves invertible set at t={t}: prescribed range and null space "
                f"have dimensions {here} there against {there} at t0={t0}",
                clause="curve leaves invertible set",
            )
        return cert

    base = certificate(t0)
    sweep = [(h, certificate(t0 + h, base), certificate(t0 - h, base)) for h in steps]
    h_ref, plus, minus = sweep[-1]  # the sweep decreases strictly: its last step is the finest

    def prime(read) -> np.ndarray:
        return (read(plus) - read(minus)) / (2.0 * h_ref)

    # every inverse here has L = -(P_S)' and R = (P_T)' in the shared sandwich
    deriv = _sandwich(
        base.inverse,
        base.operator,
        prime(lambda cert: cert.operator),
        -prime(lambda cert: cert.prescribed_nullspace.projector()),
        prime(lambda cert: cert.prescribed_range.projector()),
    )
    errors = [
        spectral_norm((fwd.inverse - back.inverse) / (2.0 * h) - deriv) for h, fwd, back in sweep
    ]
    if max(errors) <= tol.residual_tol * max(1.0, base.inverse_norm):
        order: float | str = "exact"
    else:
        order = _fit_order(steps, errors)
    return DerivativeReport(
        t0=t0,
        formula_derivative=deriv,
        fd_errors=tuple(zip([float(s) for s in steps], [float(e) for e in errors])),
        observed_order=order,
    )
