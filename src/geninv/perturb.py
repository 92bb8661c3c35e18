"""Perturbation of prescribed-subspace outer inverses.

Inside the openness ball ``||e|| < 1 / ||x||`` the inverse of the perturbed
operator (with the same prescribed subspaces) exists and has the closed form

    (a + e)^- = (1 + x e)^{-1} x = x (1 + e x)^{-1},

where x is the unperturbed inverse. The report evaluates both factorizations,
recomputes the inverse from scratch, and attaches the quantitative error bound
when its smallness premises hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, ExistenceError, InputError
from .inverses import InverseCertificate, outer_prescribed
from .kernel import DEFAULT_TOL, ToleranceConfig, as_matrix, spectral_norm, stack_norms


@dataclass(frozen=True, eq=False)  # identity ==, hashable: fields are arrays
class PerturbationReport:
    radius: float
    formula_inverse: np.ndarray
    direct_inverse: np.ndarray | None
    discrepancy: float | None
    bound_value: float | None  # None means the bound premises do not hold
    actual_error: float | None
    factorization_discrepancy: float
    outside_ball: bool


def openness_radius(cert: InverseCertificate) -> float:
    """Radius of the ball around the operator inside which the inverse persists."""
    if cert.inverse_norm == 0.0:
        raise InputError("radius undefined for zero inverse")
    return 1.0 / cert.inverse_norm


def perturbation_bound(
    kappa: float, u: float, v: float, z: float, inv_norm: float
) -> float | None:
    """Quantitative error bound for a perturbed inverse, or None if inapplicable.

    kappa is ||a|| * ||x||, u and v the null-space and range gaps, z the scaled
    operator perturbation ||x|| * ||a - a_n||. The bound only holds under the
    smallness premises checked here; outside them None is returned.
    """
    if not all(0.0 <= value < np.inf for value in (kappa, u, v, z, inv_norm)):  # NaN too
        raise InputError("bound inputs must be nonnegative and finite")
    if not (
        u < 1.0 / (3.0 + kappa)
        and v < 1.0 / (1.0 + kappa) ** 2
        and z < 2.0 * kappa / ((1.0 + kappa) * (4.0 + kappa))
    ):
        return None
    den = 1.0 - (1.0 + kappa) * v - kappa * u - (1.0 + u) * z
    if den <= 0.0:
        return None
    return ((1.0 + kappa) * (v + u) + (1.0 + u) * z) / den * inv_norm


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def perturbed_bc_inverse(
    cert: InverseCertificate, e, tol: ToleranceConfig = DEFAULT_TOL
) -> PerturbationReport:
    """Closed-form inverse of ``a + e`` with the certificate's prescribed subspaces.

    Outside the openness ball the formula is still evaluated (the resolvent
    factor may remain invertible) but the report is flagged. A formula inverse
    that overflows is refused with a CertificateError.
    """
    a, x, xnorm = cert.operator, cert.inverse, cert.inverse_norm
    e = as_matrix(e)
    if e.shape != a.shape:
        raise InputError("perturbation shape does not match the operator")
    radius = openness_radius(cert)
    enorm = spectral_norm(e)
    outside = enorm >= radius

    n, m = x.shape
    try:
        left = np.linalg.solve(np.eye(n) + x @ e, x)
        right = x @ np.linalg.inv(np.eye(m) + e @ x)
    except np.linalg.LinAlgError as exc:
        raise ExistenceError(
            "resolvent factor 1 + x e is singular",
            clause="1 + x e not invertible",
            margin=enorm * xnorm,
        ) from exc
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        raise CertificateError("perturbation formula inverse is not finite", margin=np.inf)

    direct = None
    try:
        direct = outer_prescribed(
            a + e, cert.prescribed_range, cert.prescribed_nullspace, tol
        ).inverse
    except ExistenceError:
        if not outside:
            raise
    diffs = [left - right] + ([] if direct is None else [left - direct, direct - x])
    norms = stack_norms(np.stack(diffs)).tolist()
    factor_disc, discrepancy, actual = norms if direct is not None else (norms[0], None, None)

    kappa, z = cert.operator_norm * xnorm, xnorm * enorm  # an overflow fails the premises
    bound = perturbation_bound(kappa, 0.0, 0.0, z, xnorm) if max(kappa, z) < np.inf else None
    return PerturbationReport(
        radius=radius,
        formula_inverse=left,
        direct_inverse=direct,
        discrepancy=discrepancy,
        bound_value=bound,
        actual_error=actual,
        factorization_discrepancy=factor_disc,
        outside_ball=outside,
    )
