import numpy as np
import pytest

import geninv as gi
from geninv import families
from geninv.errors import CertificateError, ExistenceError, InputError


def test_openness_radius_scalar():
    cert = gi.bc_inverse(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert gi.openness_radius(cert) == pytest.approx(1.0)


def test_openness_radius_diagonal():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 1.0, 0.0])
    cert = gi.bc_inverse(a, b, b)
    assert gi.spectral_norm(cert.inverse) == pytest.approx(1.0)
    assert gi.openness_radius(cert) == pytest.approx(1.0)


def test_openness_radius_rejects_zero_inverse():
    cert = gi.bc_inverse(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(InputError, match="zero inverse"):
        gi.openness_radius(cert)


def test_perturbed_zero_perturbation_is_exact():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 1.0, 0.0])
    cert = gi.bc_inverse(a, b, b)
    report = gi.perturbed_bc_inverse(cert, np.zeros((3, 3)))
    assert np.array_equal(report.formula_inverse, cert.inverse)
    assert report.actual_error == pytest.approx(0.0, abs=1e-15)


def test_perturbed_scalar_case():
    cert = gi.bc_inverse(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    report = gi.perturbed_bc_inverse(cert, np.array([[0.5]]))
    assert report.formula_inverse[0, 0] == pytest.approx(2.0 / 3.0)
    assert report.direct_inverse[0, 0] == pytest.approx(2.0 / 3.0)


def test_perturbed_diagonal_closed_form():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 1.0, 0.0])
    cert = gi.bc_inverse(a, b, b)
    report = gi.perturbed_bc_inverse(cert, np.diag([0.1, 0.0, 0.0]))
    expected = np.diag([1.0 / 1.1, 0.5, 0.0])
    assert np.allclose(report.formula_inverse, expected, atol=1e-12)
    assert np.allclose(report.direct_inverse, expected, atol=1e-12)
    assert not report.outside_ball


def test_perturbation_bound_examples():
    assert gi.perturbation_bound(1.0, 0.0, 0.0, 0.0, 1.0) == pytest.approx(0.0)
    assert gi.perturbation_bound(1.0, 0.0, 0.0, 0.1, 1.0) == pytest.approx(1.0 / 9.0)
    # premise u < 1/(3 + kappa) fails
    assert gi.perturbation_bound(1.0, 0.5, 0.0, 0.0, 1.0) is None


def test_perturbation_bound_rejects_negative():
    with pytest.raises(InputError):
        gi.perturbation_bound(1.0, -0.1, 0.0, 0.0, 1.0)


def test_factorizations_agree(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        a, b, c = families.random_solvable_triple(rng, n, r, complex_=bool(rng.integers(2)))
        cert = gi.bc_inverse(a, b, c)
        radius = gi.openness_radius(cert)
        e = families.random_matrix(rng, n, n, np.iscomplexobj(a)) * (0.9 * radius * rng.random())
        report = gi.perturbed_bc_inverse(cert, e)
        scale = max(1.0, gi.spectral_norm(a) * gi.spectral_norm(cert.inverse))
        assert report.factorization_discrepancy <= 1e-12 * scale


def test_formula_matches_direct_recomputation(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        a, b, c = families.random_solvable_triple(rng, n, r, complex_=bool(rng.integers(2)))
        cert = gi.bc_inverse(a, b, c)
        radius = gi.openness_radius(cert)
        e = families.random_matrix(rng, n, n, np.iscomplexobj(a)) * (0.5 * radius * rng.random())
        report = gi.perturbed_bc_inverse(cert, e)
        scale = max(1.0, gi.spectral_norm(a) * gi.spectral_norm(cert.inverse))
        assert report.discrepancy <= 1e-8 * scale
        if report.bound_value is not None:
            assert report.actual_error <= report.bound_value * (1.0 + 1e-6)


def test_outer_inverse_persists_inside_ball(rng):
    # openness of the solvable set for prescribed subspaces
    for _ in range(15):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        rank = int(rng.integers(1, min(m, n) + 1))
        a, t, s = families.random_outer_instance(rng, m, n, rank)
        cert = gi.outer_prescribed(a, t, s)
        radius = gi.openness_radius(cert)
        e = families.random_matrix(rng, m, n) * (0.95 * radius)
        gi.outer_prescribed(a + e, t, s)  # must not raise


def test_outside_ball_is_flagged_not_fatal():
    cert = gi.bc_inverse(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    report = gi.perturbed_bc_inverse(cert, np.array([[1.5]]))
    assert report.outside_ball
    assert report.formula_inverse[0, 0] == pytest.approx(1.0 / 2.5)


def test_shape_mismatch_rejected():
    cert = gi.bc_inverse(np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(InputError):
        gi.perturbed_bc_inverse(cert, np.zeros((3, 3)))


def test_singular_resolvent_factor_is_an_existence_error():
    # x = diag(1, 0) and e = -I make 1 + x e = diag(0, 1) singular, at ||e|| ||x|| = 1
    b = np.diag([1.0, 0.0])
    cert = gi.bc_inverse(np.eye(2), b, b)
    with pytest.raises(ExistenceError, match="singular") as info:
        gi.perturbed_bc_inverse(cert, -np.eye(2))
    assert info.value.clause == "1 + x e not invertible"
    assert info.value.margin == 1.0


def test_an_overflowing_formula_inverse_is_refused_by_its_certificate():
    # x = 1e300 I and 1 + x e = 1e-11 I: the formula inverse overflows though a and e are
    # finite, which is a refused certificate, not bad input (warnings are errors here)
    cert = gi.bc_inverse(1e-300 * np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(CertificateError, match="formula inverse is not finite") as info:
        gi.perturbed_bc_inverse(cert, -9.99999999999e-301 * np.eye(2))
    assert info.value.clause == "residual exceeds tolerance"
    assert info.value.margin == np.inf
