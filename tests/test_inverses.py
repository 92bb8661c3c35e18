import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import families
from geninv.errors import CertificateError, ExistenceError, InputError

from conftest import (
    assert_same_subspace,
    outer_fullrank_oracle,
    outer_instance_at_angles,
    outer_projector_oracle,
)


def line(*coords):
    return gi.column_space(np.array(coords, dtype=float).reshape(-1, 1))


def test_moore_penrose_examples():
    assert np.allclose(gi.moore_penrose(np.diag([2.0, 0.0])).inverse, np.diag([0.5, 0.0]))
    assert np.allclose(gi.moore_penrose(np.zeros((2, 3))).inverse, np.zeros((3, 2)))
    cert = gi.moore_penrose(np.array([[1.0, 1.0]]))
    assert np.allclose(cert.inverse, [[0.5], [0.5]])
    assert max(cert.residuals.values()) <= 1e-12


def test_moore_penrose_penrose_equations(rng):
    for _ in range(20):
        m, n = rng.integers(1, 9, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        a = families.random_rank_matrix(rng, int(m), int(n), r, complex_=bool(rng.integers(2)))
        cert = gi.moore_penrose(a)
        b = cert.inverse
        scale = max(1.0, gi.spectral_norm(a) * gi.spectral_norm(b))
        assert gi.spectral_norm(a @ b @ a - a) <= 1e-12 * scale
        assert gi.spectral_norm(b @ a @ b - b) <= 1e-12 * scale
        assert gi.spectral_norm((a @ b).conj().T - a @ b) <= 1e-12 * scale
        assert gi.spectral_norm((b @ a).conj().T - b @ a) <= 1e-12 * scale


def test_outer_prescribed_identity_gives_projector():
    t = line(1, 0)
    s = line(1, 1)
    cert = gi.outer_prescribed(np.eye(2), t, s)
    assert np.allclose(cert.inverse, gi.oblique_projector(t, s).matrix, atol=1e-12)


def test_outer_prescribed_diagonal():
    t = gi.column_space(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    s = line(0, 0, 1)
    cert = gi.outer_prescribed(np.diag([1.0, 2.0, 3.0]), t, s)
    assert np.allclose(cert.inverse, np.diag([1.0, 0.5, 0.0]), atol=1e-12)
    assert cert.range_gap <= 1e-9 and cert.nullspace_gap <= 1e-9


def test_outer_prescribed_restriction_failure():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ExistenceError, match="restriction not injective"):
        gi.outer_prescribed(a, line(1, 0), line(1, 0))


def test_outer_prescribed_complement_failure():
    # a(T) = span(e1) and S = span(e1) cannot fill the plane
    a = np.eye(2)
    with pytest.raises(ExistenceError) as err:
        gi.outer_prescribed(a, line(1, 0), line(1, 0))
    assert err.value.clause == "R(A*T) (+) S != Y"
    assert err.value.margin is not None


def test_outer_prescribed_rectangular(rng):
    for _ in range(10):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        r = int(rng.integers(1, min(m, n) + 1))
        a, t, s = families.random_outer_instance(rng, m, n, r, complex_=bool(rng.integers(2)))
        cert = gi.outer_prescribed(a, t, s)
        x = cert.inverse
        assert gi.spectral_norm(x @ a @ x - x) <= 1e-10 * max(1.0, gi.spectral_norm(x))
        assert_same_subspace(gi.column_space(x), t)
        assert_same_subspace(gi.null_space(x), s)


def test_outer_prescribed_agrees_with_fullrank_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        complex_ = bool(rng.integers(2))
        a, t, s = families.random_outer_instance(rng, n, n, r, complex_)
        cert = gi.outer_prescribed(a, t, s)
        oracle = outer_fullrank_oracle(a, t, s)
        assert gi.spectral_norm(cert.inverse - oracle) <= 1e-9 * max(1.0, gi.spectral_norm(oracle))


def test_bc_inverse_classical():
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    cert = gi.bc_inverse(a, np.eye(2), np.eye(2))
    assert np.allclose(cert.inverse, np.linalg.inv(a), atol=1e-12)


def test_bc_inverse_diagonal_case():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 1.0, 0.0])
    cert = gi.bc_inverse(a, b, b)
    assert np.allclose(cert.inverse, np.diag([1.0, 0.5, 0.0]), atol=1e-12)
    assert cert.residuals["xab_b"] <= 1e-12
    assert cert.residuals["cax_c"] <= 1e-12


def test_bc_inverse_zero_pair():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    cert = gi.bc_inverse(a, np.zeros((2, 2)), np.zeros((2, 2)))
    assert np.array_equal(cert.inverse, np.zeros((2, 2)))


def test_bc_inverse_absorption(rng):
    for _ in range(15):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        a, b, c = families.random_solvable_triple(rng, n, r, complex_=bool(rng.integers(2)))
        cert = gi.bc_inverse(a, b, c)
        x = cert.inverse
        assert gi.spectral_norm(x @ a @ b - b) <= 1e-10
        assert gi.spectral_norm(c @ a @ x - c) <= 1e-10
        assert gi.spectral_norm(x @ a @ x - x) <= 1e-10 * max(1.0, gi.spectral_norm(x))


def test_bc_inverse_equal_subspaces_invariance(rng):
    # replacing (b, c) by (f, g) with the same range / null space keeps the inverse
    for _ in range(10):
        n = int(rng.integers(2, 8))
        r = int(rng.integers(1, n + 1))
        complex_ = bool(rng.integers(2))
        a, b, c = families.random_solvable_triple(rng, n, r, complex_)
        m1 = families.random_conditioned(rng, n, complex_)
        m2 = families.random_conditioned(rng, n, complex_)
        x1 = gi.bc_inverse(a, b, c).inverse
        x2 = gi.bc_inverse(a, b @ m1, m2 @ c).inverse
        assert gi.spectral_norm(x1 - x2) <= 1e-9 * max(1.0, gi.spectral_norm(x1))


def test_bc_error_is_relabeled():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ExistenceError, match=r"\(B,C\)-inverse does not exist"):
        gi.bc_inverse(a, a, a)


def test_bott_duffin_identity_projectors():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    eye = gi.ObliqueProjector.from_matrix(np.eye(2))
    cert = gi.bott_duffin(a, eye, eye)
    assert np.allclose(cert.inverse, np.linalg.inv(a), atol=1e-12)


def test_bott_duffin_zero_projectors():
    zero = gi.ObliqueProjector.from_matrix(np.zeros((2, 2)))
    cert = gi.bott_duffin(np.eye(2), zero, zero)
    assert np.array_equal(cert.inverse, np.zeros((2, 2)))


def test_bott_duffin_oblique_case(rng):
    n = 4
    t = families.random_subspace(rng, n, 2)
    s1 = families.random_subspace(rng, n, 2)
    s2 = families.random_subspace(rng, n, 2)
    p = gi.oblique_projector(t, s1)
    q_range = families.random_subspace(rng, n, 2)
    q = gi.oblique_projector(q_range, s2)
    cert = gi.bott_duffin(np.eye(n), p, q)
    expected = gi.outer_prescribed(np.eye(n), t, s2).inverse
    assert gi.spectral_norm(cert.inverse - expected) <= 1e-9
    for key in ("py_y", "yq_y", "yap_p", "qay_q"):
        assert cert.residuals[key] <= 1e-9
    # the projectors' prescribed subspaces are used as given
    assert cert.prescribed_range is t and cert.prescribed_nullspace is s2


@pytest.mark.parametrize("complex_", [False, True])
def test_bott_duffin_of_wrapped_projectors_is_the_bc_inverse(rng, complex_):
    # from_matrix reads R(p) and N(q) off the same factorizations bc_inverse takes
    n = 6
    a = families.random_conditioned(rng, n, complex_)
    p, q = (
        gi.oblique_projector(*(families.random_subspace(rng, n, 3, complex_) for _ in "ts"))
        for _ in "pq"
    )
    wrapped = (gi.ObliqueProjector.from_matrix(x.matrix) for x in (p, q))
    cert = gi.bott_duffin(a, *wrapped)
    assert np.array_equal(cert.inverse, gi.bc_inverse(a, p.matrix, q.matrix).inverse)


def test_inverse_along_identity():
    a = np.array([[2.0, 0.0], [1.0, 1.0]])
    cert = gi.inverse_along(a, np.eye(2))
    assert np.allclose(cert.inverse, np.linalg.inv(a), atol=1e-12)


def test_inverse_along_pseudoinverse_direction(rng):
    # along a^+ the inverse is a^+ itself
    for _ in range(8):
        a = families.random_rank_matrix(rng, 5, 5, 3, complex_=bool(rng.integers(2)))
        adag = gi.moore_penrose(a).inverse
        cert = gi.inverse_along(a, adag)
        assert gi.spectral_norm(cert.inverse - adag) <= 1e-9 * max(1.0, gi.spectral_norm(adag))


def test_inverse_along_nilpotent_rejected():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ExistenceError, match="not invertible along D"):
        gi.inverse_along(a, a)


def test_inverse_along_chain_is_bitwise(rng):
    a, b, _ = families.random_solvable_triple(rng, 5, 3)
    d = b
    via_along = gi.inverse_along(a, d).inverse
    via_bc = gi.bc_inverse(a, d, d).inverse
    via_outer = gi.outer_prescribed(a, gi.column_space(d), gi.null_space(d)).inverse
    assert np.array_equal(via_along, via_bc)
    assert np.array_equal(via_bc, via_outer)
    assert gi.spectral_norm(via_along @ a @ d - d) <= 1e-10
    assert gi.spectral_norm(d @ a @ via_along - d) <= 1e-10


def test_moore_penrose_is_bc_inverse_of_its_own_pair(rng):
    for _ in range(8):
        a = families.random_rank_matrix(rng, 6, 6, 4, complex_=bool(rng.integers(2)))
        adag = gi.moore_penrose(a).inverse
        x = gi.bc_inverse(a, adag, adag).inverse
        assert gi.spectral_norm(x - adag) <= 1e-9 * max(1.0, gi.spectral_norm(adag))


def test_reflexive_inverse_examples():
    f = np.diag([1.0, 0.0])
    assert np.allclose(gi.reflexive_inverse(f, line(1, 0), line(0, 1)), np.diag([1.0, 0.0]))
    s = gi.reflexive_inverse(f, line(1, 1), line(0, 1))
    assert np.allclose(s, np.array([[1.0, 0.0], [1.0, 0.0]]), atol=1e-12)
    a = np.array([[2.0, 1.0], [0.0, 1.0]])
    full = gi.full_subspace(2)
    zero = gi.trivial_subspace(2)
    assert np.allclose(gi.reflexive_inverse(a, full, zero), np.linalg.inv(a), atol=1e-12)


def test_reflexive_inverse_names_failing_decomposition():
    f = np.diag([1.0, 0.0])
    with pytest.raises(ExistenceError) as err:
        gi.reflexive_inverse(f, line(0, 1), line(0, 1))
    assert err.value.clause == "N(F) (+) N != X"
    with pytest.raises(ExistenceError) as err:
        gi.reflexive_inverse(f, line(1, 0), line(1, 0))
    assert err.value.clause == "R(F) (+) M != Y"


def test_range_factorization_criterion(rng):
    # two regular elements share a column space iff each factors through the other
    for _ in range(8):
        n = 5
        f = families.random_rank_matrix(rng, n, n, 3)
        g = f @ families.random_conditioned(rng, n)
        n_comp = gi.column_space(f.conj().T)
        m_comp = gi.orthogonal_complement(gi.column_space(f))
        s_f = gi.reflexive_inverse(f, n_comp, m_comp)
        assert gi.spectral_norm(g - f @ s_f @ g) <= 1e-9
        # and a matrix with a different column space does not factor
        other = families.random_rank_matrix(rng, n, n, 4)
        if gi.gap(gi.column_space(other), gi.column_space(f)).gap > 0.3:
            assert gi.spectral_norm(other - f @ s_f @ other) > 1e-6


def test_left_right_regular_examples():
    assert np.allclose(gi.left_regular(np.array([[3.0]]), 1), [[3.0]])
    assert np.allclose(gi.left_regular(np.eye(3), 3), np.eye(9))
    assert np.allclose(gi.right_regular(np.eye(3), 3), np.eye(9))
    a = np.diag([1.0, 2.0])
    assert np.allclose(gi.left_regular(a, 2), np.diag([1.0, 2.0, 1.0, 2.0]))
    assert np.allclose(gi.right_regular(a, 2), np.diag([1.0, 1.0, 2.0, 2.0]))


def test_regular_representations_act_by_multiplication(rng):
    k = 3
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    vec = lambda m: m.reshape(-1, order="F")
    assert np.allclose(gi.left_regular(a, k) @ vec(x), vec(a @ x))
    assert np.allclose(gi.right_regular(a, k) @ vec(x), vec(x @ a))


def test_regular_representation_of_bc_inverse(rng):
    # the left representation of the inverse is the prescribed outer inverse
    # of the left representation; mirrored on the right with roles swapped
    for k in (2, 3):
        for complex_ in (False, True):
            a, b, c = families.random_solvable_triple(rng, k, max(1, k - 1), complex_)
            x = gi.bc_inverse(a, b, c).inverse
            la, lb, lc = (gi.left_regular(m, k) for m in (a, b, c))
            lx = gi.outer_prescribed(la, gi.column_space(lb), gi.null_space(lc)).inverse
            assert gi.spectral_norm(gi.left_regular(x, k) - lx) <= 1e-8
            ra, rb, rc = (gi.right_regular(m, k) for m in (a, b, c))
            rx = gi.outer_prescribed(ra, gi.column_space(rc), gi.null_space(rb)).inverse
            assert gi.spectral_norm(gi.right_regular(x, k) - rx) <= 1e-8


def test_certificate_rejection_on_absurd_tolerance():
    tol = gi.ToleranceConfig(residual_tol=1e-300)
    with pytest.raises(CertificateError):
        gi.moore_penrose(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), tol)


def test_certificates_and_reports_compare_by_identity_and_hash():
    eye = np.eye(2)
    certs = [gi.moore_penrose(eye), gi.moore_penrose(eye)]
    reports = [gi.perturbed_bc_inverse(gi.bc_inverse(eye, eye, eye), 0.1 * eye) for _ in "ab"]
    curve = [gi.MatrixCurve(lambda t: eye + t * np.diag([1.0, 0.0]))]
    derivatives = [gi.finite_difference_check(curve, 0.0, kind="mp") for _ in "ab"]
    singular = np.diag([2.0, 0.0])
    sequences = [gi.mp_continuity_report(singular, [singular] * 3) for _ in "ab"]
    for first, second in (certs, reports, derivatives, sequences):
        assert first == first and first != second
        assert len({first, second, first}) == 2


def test_bc_inverse_requires_square():
    with pytest.raises(InputError):
        gi.bc_inverse(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)))


@st.composite
def outer_problems(draw):
    """(m, n, rank of a, dim T, complex, seed) with m, n <= 12."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    rank = draw(st.integers(1, min(m, n)))
    r = draw(st.integers(1, rank))
    return m, n, rank, r, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(outer_problems())
def test_outer_prescribed_property_against_oracles(problem):
    """Both oracles agree; the margin is the direct-sum test's; the gap bounds hold."""
    m, n, rank, r, complex_, seed = problem
    a, t, s = outer_instance_at_angles(np.random.default_rng(seed), m, n, r, complex_, rank)
    cert = gi.outer_prescribed(a, t, s)
    x = cert.inverse
    for oracle in (outer_fullrank_oracle(a, t, s), outer_projector_oracle(a, t, s)):
        assert gi.spectral_norm(x - oracle) <= 1e-9 * gi.spectral_norm(oracle)
    image = gi.column_space(a @ t.basis)
    assert abs(cert.complement_margin - gi.direct_sum_check(image, s).margin) <= 1e-12
    assert cert.range_gap >= gi.gap(gi.column_space(x), t).gap - 1e-14
    assert cert.nullspace_gap >= gi.gap(gi.null_space(x), s).gap - 1e-14


@settings(max_examples=100, deadline=None)
@given(outer_problems())
def test_moore_penrose_property_gap_bounds(problem):
    """T and S read off the one SVD have the right dimensions; the gap bounds hold."""
    m, n, rank, _, complex_, seed = problem
    a = families.random_rank_matrix(np.random.default_rng(seed), m, n, rank, complex_)
    cert = gi.moore_penrose(a)
    b, t, s = cert.inverse, cert.prescribed_range, cert.prescribed_nullspace
    assert gi.spectral_norm(b - np.linalg.pinv(a, rtol=1e-10)) <= 1e-9 * gi.spectral_norm(b)
    assert t.dim == rank and s.dim == m - rank
    assert cert.range_gap >= gi.gap(gi.column_space(b), t).gap - 1e-14
    assert cert.nullspace_gap >= gi.gap(gi.null_space(b), s).gap - 1e-14
