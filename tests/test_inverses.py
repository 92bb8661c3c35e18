import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import families, inverses, subspace
from geninv.errors import CertificateError, ExistenceError, InputError

from conftest import (
    assert_same_subspace,
    complement_rows,
    left_lift,
    outer_fullrank_oracle,
    oblique_projector_oracle,
    outer_instance_at_angles,
    outer_projector_oracle,
    right_lift,
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
    assert np.allclose(cert.inverse, oblique_projector_oracle(t, s), atol=1e-12)


def span(*cols):
    return gi.column_space(np.array(cols, dtype=float).T)


def _margin(call):
    with pytest.raises(ExistenceError) as err:
        call()
    assert type(err.value) is ExistenceError
    return err.value.clause, err.value.margin


def test_a_sum_whose_dimensions_do_not_add_up_is_refused_at_margin_zero():
    # span(e1, e2) and span(e2, e3) meet in span(e2); the columns of [T | S] are
    # orthonormal but for one pair, so their smallest singular value read 1.0
    e1, e2, e3 = np.eye(3)
    clause = "R(A*T) (+) S != Y"
    assert _margin(lambda: gi.outer_prescribed(np.eye(3), span(e1, e2), span(e2, e3))) == (
        clause, 0.0)
    assert _margin(lambda: gi.outer_prescribed(np.eye(3), span(e1), span(e2))) == (clause, 0.0)
    # a T = {0} whose S is not the whole codomain
    assert _margin(lambda: gi.outer_prescribed(
        np.eye(3), gi.trivial_subspace(3), span(e1, e2))) == (clause, 0.0)
    # rank b + dim N(c) = 1 + 1 != 3
    b, c = np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0])
    assert _margin(lambda: gi.bc_inverse(np.eye(3), b, c)) == (clause, 0.0)
    assert _margin(lambda: gi.oblique_projector(span(e1, e2), span(e2, e3))) == (
        "not complementary", 0.0)


def test_a_trivial_range_with_the_whole_codomain_has_complement_margin_one():
    # {0} (+) S = Y iff S = Y, whatever basis S has: the margin is the count's, not an SVD's
    whole = families.random_subspace(np.random.default_rng(1), 5, 5)
    cert = gi.outer_prescribed(np.ones((5, 4)), gi.trivial_subspace(4), whole)
    assert np.array_equal(cert.inverse, np.zeros((4, 5)))
    assert cert.complement_margin == 1.0 and cert.restricted_condition == 1.0


def test_reflexive_inverse_maps_a_dimension_refusal_to_the_codomain_clause():
    # rank f = dim N = 1, dim M = 2 in C^2: refused by the count, under reflexive's own clause
    f = np.diag([1.0, 0.0])
    assert _margin(lambda: gi.reflexive_inverse(f, line(1, 0), gi.full_subspace(2))) == (
        "R(F) (+) M != Y", 0.0)


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


def test_bott_duffin_chain_is_bitwise(rng):
    # the (p, q)-inverse is the outer inverse with range R(p) and null space N(q), as p and q
    # record them: the same construction, whether N(q) carries its complement or not
    a, t, s = families.random_outer_instance(rng, 5, 5, 3)
    built = gi.oblique_projector(t, gi.orthogonal_complement(t)), gi.oblique_projector(
        gi.column_space(a @ t.basis), s)
    for p, q in (built, [gi.ObliqueProjector.from_matrix(x.matrix) for x in built]):
        via_bott_duffin = gi.bott_duffin(a, p, q).inverse
        via_outer = gi.outer_prescribed(a, p.range, q.nullspace).inverse
        assert np.array_equal(via_bott_duffin, via_outer)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m, n", [(6, 6), (6, 4), (4, 6)])
def test_full_rank_moore_penrose_reads_exact_zero_gaps(m, n, complex_):
    # rank n makes T = R(a*) the whole domain, rank m makes S = N(a*) = {0}: there the gap
    # is 0 exactly, with no rounding term; a rank-deficient a measures both sides
    rng = np.random.default_rng(21)
    cert = gi.moore_penrose(families.random_rank_matrix(rng, m, n, min(m, n), complex_))
    assert (cert.range_gap == 0.0) == (n <= m)
    assert (cert.nullspace_gap == 0.0) == (m <= n)
    assert 0.0 < max(cert.range_gap, cert.nullspace_gap) < 1e-12 or m == n
    deficient = gi.moore_penrose(families.random_rank_matrix(rng, m, n, min(m, n) - 1, complex_))
    assert 0.0 < deficient.range_gap < 1e-12 and 0.0 < deficient.nullspace_gap < 1e-12
    square = families.random_conditioned(rng, n, complex_)
    outer = gi.outer_prescribed(square, gi.full_subspace(n), gi.trivial_subspace(n))
    assert (outer.range_gap, outer.nullspace_gap) == (0.0, 0.0)


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


def test_a_relabelled_refusal_keeps_the_construction_refusal_as_its_cause():
    # oblique_projector and reflexive_inverse refuse under their own clause; the outer
    # construction's refusal, with its clause and margin, stays on the error as __cause__
    e1, e2, e3 = np.eye(3)
    calls = {"reflexive": lambda: gi.reflexive_inverse(np.diag([1.0, 0.0]), line(0, 1), line(0, 1)),
             "oblique": lambda: gi.oblique_projector(span(e1, e2), span(e2, e3))}
    causes = {"reflexive": "restriction not injective", "oblique": "R(A*T) (+) S != Y"}
    for name, call in calls.items():
        with pytest.raises(ExistenceError) as err:
            call()
        cause = err.value.__cause__
        assert type(cause) is ExistenceError and cause.clause == causes[name]
        assert cause.margin == err.value.margin and err.value.clause != cause.clause


def test_reflexive_inverse_needs_dim_n_equal_to_the_rank():
    # no outer inverse of I has range and null space span(e1); with null space span(e2) one
    # exists (diag(1, 0)), but it is not reflexive: N(I) (+) span(e1) != X in both cases
    for m_complement in (line(1, 0), line(0, 1)):
        with pytest.raises(ExistenceError) as err:
            gi.reflexive_inverse(np.eye(2), line(1, 0), m_complement)
        assert err.value.clause == "N(F) (+) N != X"
    assert np.allclose(gi.outer_prescribed(np.eye(2), line(1, 0), line(0, 1)).inverse,
                       np.diag([1.0, 0.0]))


def test_reflexive_inverse_passes_a_refused_certificate_through(rng):
    f = families.random_rank_matrix(rng, 5, 5, 3)
    n_comp = gi.column_space(f.conj().T)
    m_comp = gi.orthogonal_complement(gi.column_space(f))
    with pytest.raises(CertificateError):
        gi.reflexive_inverse(f, n_comp, m_comp, gi.ToleranceConfig(residual_tol=0.0))


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
    assert np.allclose(left_lift(np.array([[3.0]])), [[3.0]])
    assert np.allclose(left_lift(np.eye(3)), np.eye(9))
    assert np.allclose(right_lift(np.eye(3)), np.eye(9))
    a = np.diag([1.0, 2.0])
    assert np.allclose(left_lift(a), np.diag([1.0, 2.0, 1.0, 2.0]))
    assert np.allclose(right_lift(a), np.diag([1.0, 1.0, 2.0, 2.0]))


def test_regular_representations_act_by_multiplication(rng):
    k = 3
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    vec = lambda m: m.reshape(-1, order="F")
    assert np.allclose(left_lift(a) @ vec(x), vec(a @ x))
    assert np.allclose(right_lift(a) @ vec(x), vec(x @ a))


def test_regular_representation_of_bc_inverse(rng):
    # the left representation of the inverse is the prescribed outer inverse
    # of the left representation; mirrored on the right with roles swapped
    for k in (2, 3):
        for complex_ in (False, True):
            a, b, c = families.random_solvable_triple(rng, k, max(1, k - 1), complex_)
            x = gi.bc_inverse(a, b, c).inverse
            la, lb, lc = (left_lift(m) for m in (a, b, c))
            lx = gi.outer_prescribed(la, gi.column_space(lb), gi.null_space(lc)).inverse
            assert gi.spectral_norm(left_lift(x) - lx) <= 1e-8
            ra, rb, rc = (right_lift(m) for m in (a, b, c))
            rx = gi.outer_prescribed(ra, gi.column_space(rc), gi.null_space(rb)).inverse
            assert gi.spectral_norm(right_lift(x) - rx) <= 1e-8


def test_certificate_rejection_on_absurd_tolerance():
    tol = gi.ToleranceConfig(residual_tol=1e-300)
    with pytest.raises(CertificateError):
        gi.moore_penrose(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), tol)


def test_an_overflowing_core_is_refused_by_the_certificate():
    # every entry of a is finite, but the core H A F overflows (4e308): an input check on the
    # core would blame the input
    a = np.full((4, 4), 1e308) - np.diag(np.full(4, 0.5e308))
    t, s = gi.Subspace(4, np.full((4, 1), 0.5)), gi.null_space(np.ones((1, 4)))
    with pytest.raises(CertificateError, match="^an intermediate product is not finite$"):
        gi.outer_prescribed(a, t, s)


def test_an_overflowing_slice_is_refused_alone():
    # in a stack, the slice whose core H A F (dim T + dim S = 4) or whose A F (a count refuses
    # the sum) overflows is refused as a stack of one is; the plain slices beside it are
    # decided as they are alone
    huge = np.full((4, 4), 1e308)
    t, s = gi.Subspace(4, np.full((4, 1), 0.5)), gi.null_space(np.ones((1, 4)))
    alone = gi.outer_prescribed(np.eye(4), t, s)
    for a, space in ((huge - np.diag(np.full(4, 0.5e308)), s), (huge, gi.trivial_subspace(4))):
        plain, overflowed = inverses.outer_prescribed_stack([(np.eye(4), t, space), (a, t, space)])
        assert type(overflowed) is CertificateError
        assert str(overflowed) == "an intermediate product is not finite"
        if space is s:
            assert plain.inverse.tobytes() == alone.inverse.tobytes()
            assert plain.residuals == alone.residuals
        else:
            assert type(plain) is ExistenceError and plain.clause == "R(A*T) (+) S != Y"


def _boundary_problem(complex_: bool, spread: float):
    """An 8x8 a, T and S (dim 4 each) with sigma_min(a F) / ||a|| about 1e-3 / spread, and the
    four constructions of its outer inverse, each ``construct(a, tol)``. ``spread`` scales a
    on the orthogonal complement of T: sigma_max(a F), the lower bound on ||a||, stays about
    1 while ||a|| grows, so at spread 1e3 the bounds are loose by that factor."""
    rng = np.random.default_rng(16)
    n, r = 8, 4
    a, t, s = outer_instance_at_angles(rng, n, n, r, complex_)
    f, h = t.basis, complement_rows(s)
    a = a - 0.999 * (a @ f[:, :1]) @ f[:, :1].conj().T  # a(T) keeps its span
    a = a + spread * families.random_matrix(rng, n, n, complex_) @ (np.eye(n) - f @ f.conj().T)
    constructions, norms = _constructions(rng, t, s, complex_)
    return a, f, constructions, norms


def _constructions(rng, t, s, complex_: bool):
    """outer, bc, along and Bott-Duffin with range T and null space S, each ``construct(a, tol)``
    beside its refusal's message prefix, and the norms of their b, c, d, p and q."""
    (n, r), f, h = t.basis.shape, t.basis, complement_rows(s)
    b = f @ families.random_matrix(rng, r, n, complex_)
    c = families.random_matrix(rng, n, r, complex_) @ h
    d = f @ families.random_conditioned(rng, r, complex_) @ h
    p = gi.ObliqueProjector.from_matrix(f @ f.conj().T)
    q = gi.ObliqueProjector.from_matrix(h.conj().T @ h)
    constructions = {
        "outer": (lambda a, tol: gi.outer_prescribed(a, t, s, tol), ""),
        "bc": (lambda a, tol: gi.bc_inverse(a, b, c, tol), "(B,C)-inverse does not exist: "),
        "along": (lambda a, tol: gi.inverse_along(a, d, tol),
                  "not invertible along D: (B,C)-inverse does not exist: "),
        "bott_duffin": (lambda a, tol: gi.bott_duffin(a, p, q, tol),
                        "(B,C)-inverse does not exist: "),
    }
    norms = {"b": gi.svd(b)[1][0], "c": gi.svd(c, full=True)[1][0],
             "d": gi.svd(d, full=True)[1][0], "p": p.norm, "q": q.norm}
    return constructions, norms


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("spread", [1.0, 1e3])
@pytest.mark.parametrize("kind", ["outer", "bc", "along", "bott_duffin"])
def test_injectivity_is_decided_at_the_exact_norm(monkeypatch, kind, spread, complex_):
    # rank_rel_tol a relative 1e-6 either side of sigma_min(a F) / ||a||: no bound on ||a||
    # decides there, so the construction must factor a and refuse above, accept below
    a, f, constructions, _ = _boundary_problem(complex_, spread)
    construct, prefix = constructions[kind]
    anorm = gi.spectral_norm(a)
    smin = np.linalg.svd(a @ f, compute_uv=False)[-1]
    factored = []
    monkeypatch.setattr(inverses, "spectral_norm",
                        lambda m: factored.append(m.shape) or gi.spectral_norm(m))
    with pytest.raises(ExistenceError) as refused:
        construct(a, gi.ToleranceConfig(rank_rel_tol=smin / anorm * (1 + 1e-6)))
    assert str(refused.value) == prefix + "restriction not injective"
    assert refused.value.clause == "restriction not injective"
    assert refused.value.margin == pytest.approx(smin, rel=1e-10)
    assert factored == [a.shape]
    factored.clear()
    cert = construct(a, gi.ToleranceConfig(rank_rel_tol=smin / anorm * (1 - 1e-6)))
    assert factored == [a.shape]
    assert _bits(cert.operator_norm) == _bits(anorm) and factored == [a.shape]
    if spread > 1.0:  # sigma_max(a F) << ||a||: refusing even 100x past the threshold needs ||a||
        factored.clear()
        with pytest.raises(ExistenceError, match="restriction not injective"):
            construct(a, gi.ToleranceConfig(rank_rel_tol=smin / anorm * 100))
        assert factored == [a.shape]


def _residual_scales(kind: str, xnorm: float, anorm: float, norms: dict) -> dict:
    """Each residual's scale, in the construction's own order of products."""
    b, c = ("p", "q") if kind == "bott_duffin" else ("d", "d") if kind == "along" else ("b", "c")
    return {
        "xax_x": xnorm * anorm * xnorm,
        "xab_b": xnorm * anorm * norms[b],
        "cax_c": norms[c] * anorm * xnorm,
        "py_y": norms["p"] * xnorm,
        "yq_y": xnorm * norms["q"],
    }


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("spread", [1.0, 1e3])
@pytest.mark.parametrize("kind", ["outer", "bc", "along", "bott_duffin"])
def test_residuals_are_decided_at_the_exact_norm(kind, spread, complex_):
    # residual_tol a relative 1e-6 either side of the deciding residual's spectral norm over
    # its scale (found by raising residual_tol to each refused residual's own threshold)
    a, _, constructions, norms = _boundary_problem(complex_, spread)
    construct, _ = constructions[kind]
    anorm = gi.spectral_norm(a)
    cert = construct(a, gi.DEFAULT_TOL)
    scales = _residual_scales(kind, cert.inverse_norm, anorm, norms)
    residual_tol, deciding = 1e-300, None
    for _ in range(10):
        try:
            cert = construct(a, gi.ToleranceConfig(residual_tol=residual_tol))
            break
        except CertificateError as exc:
            name = re.search(r"residual (\w+)=", str(exc)).group(1)
            deciding = name, exc.margin, exc.margin / scales[name]
            residual_tol = deciding[2] * (1 + 1e-6)
    name, value, ratio = deciding
    assert _bits(cert.residuals[name]) == _bits(value)  # its spectral norm, as before
    assert _bits(cert.operator_norm) == _bits(anorm)
    below = gi.ToleranceConfig(residual_tol=ratio * (1 - 1e-6))
    with pytest.raises(CertificateError) as refused:
        construct(a, below)
    budget = below.residual_tol * scales[name]
    assert str(refused.value).endswith(
        f"certificate rejected: residual {name}={value:.3e} exceeds budget {budget:.3e}")
    assert _bits(refused.value.margin) == _bits(value)


def _clause_problem(complex_: bool, shape: str):
    """An 8x8 a and the four constructions of an outer inverse of it (see ``_constructions``),
    with the core H A F's bounds on the existence clauses at one of four shapes:

      loose   ``_boundary_problem`` at spread 1e3: ||a||_F is about 1e3 ||A F||;
      tight   dim T = 1, a 20 times smaller off T, S at angle 0.05 to a(T): sigma_min(H A F) is
              sin ||A F|| and ||a||_F about ||A F||, so the bound on the complement clause
              nearly holds with equality;
      meets   dim T = 4, S at angle 1e-4 to a(T) along A F's least-stretched direction, of
              sigma 1e-3: sigma_min(H A F) ~ 1e-7 << margin ||A F||, so near the complement
              clause no bound decides and the exact path runs;
      narrow  as meets with that sigma 1e-6, below margin ||a||: near the injectivity clause.
    """
    if shape == "loose":
        a, _, constructions, _ = _boundary_problem(complex_, 1e3)
        return a, constructions
    rng = np.random.default_rng(18)
    (r, angle, least), n = {"tight": (1, 0.05, None), "meets": (4, 1e-4, 1e-3),
                            "narrow": (4, 1e-4, 1e-6)}[shape], 8
    f = families.random_subspace(rng, n, r, complex_).basis
    a = families.random_matrix(rng, n, n, complex_)
    u, sigma, v = gi.svd(a @ f)
    if shape == "tight":
        a = a @ (f @ f.conj().T) + 0.05 * a @ (np.eye(n) - f @ f.conj().T)
    else:
        a = a + (least - sigma[-1]) * u[:, -1:] @ (f @ v[:, -1:]).conj().T
        u = u[:, ::-1]  # the least-stretched direction first
    q, _ = np.linalg.qr(np.hstack([u, families.random_matrix(rng, n, n - r, complex_)]))
    turned = np.cos(angle) * u[:, :1] + np.sin(angle) * q[:, r:r + 1]
    s = gi.Subspace(n, np.hstack([turned, q[:, r + 1:]]))
    constructions, _ = _constructions(rng, gi.Subspace(n, f), s, complex_)
    return a, constructions


CLAUSE_KINDS = ["outer", "bc", "along", "bott_duffin"]


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("shape", ["loose", "narrow"])
@pytest.mark.parametrize("kind", CLAUSE_KINDS)
def test_injectivity_near_its_threshold_is_decided_exactly(kind, shape, complex_):
    # rank_rel_tol a relative 1e-6 either side of sigma_min(A F) / ||a||: the core's bound
    # cannot grant injectivity there, so the call refuses above with the exact clause's
    # message and margin, and accepts below with the clause values a first read gives
    a, constructions = _clause_problem(complex_, shape)
    construct, prefix = constructions[kind]
    lazy = construct(a, gi.DEFAULT_TOL)
    f = lazy.prescribed_range.basis
    sigma = np.linalg.svd(a[None] @ f[None], full_matrices=False)[1][0]  # as a stack of one
    ratio = sigma[-1] / gi.spectral_norm(a)
    with pytest.raises(ExistenceError) as refused:
        construct(a, gi.ToleranceConfig(rank_rel_tol=ratio * (1 + 1e-6)))
    assert str(refused.value) == prefix + "restriction not injective"
    assert refused.value.clause == "restriction not injective"
    assert _bits(refused.value.margin) == _bits(sigma[-1])
    cert = construct(a, gi.ToleranceConfig(rank_rel_tol=ratio * (1 - 1e-6)))
    assert _bits(cert.restricted_condition) == _bits(sigma[0] / sigma[-1])
    assert _bits(lazy.restricted_condition) == _bits(cert.restricted_condition)
    assert _bits(lazy.complement_margin) == _bits(cert.complement_margin)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("shape", ["tight", "meets"])
@pytest.mark.parametrize("kind", CLAUSE_KINDS)
def test_complement_near_its_threshold_is_decided_exactly(kind, shape, complex_):
    # rank_rel_tol a relative 1e-6 either side of the direct-sum margin sin / sqrt(1 + cos)
    # at S's angle to a(T): the core's bound (margin >= sin / sqrt 2) cannot decide there
    a, constructions = _clause_problem(complex_, shape)
    construct, prefix = constructions[kind]
    angle = 0.05 if shape == "tight" else 1e-4
    lazy = construct(a, gi.DEFAULT_TOL)
    margin = lazy.complement_margin
    assert margin == pytest.approx(np.sin(angle) / np.sqrt(1 + np.cos(angle)), rel=1e-5)
    with pytest.raises(ExistenceError) as refused:
        construct(a, gi.ToleranceConfig(rank_rel_tol=margin * (1 + 1e-6)))
    assert str(refused.value) == prefix + "complement fails: R(A*T) (+) S != Y"
    assert refused.value.clause == "R(A*T) (+) S != Y"
    assert _bits(refused.value.margin) == _bits(margin)
    cert = construct(a, gi.ToleranceConfig(rank_rel_tol=margin * (1 - 1e-6)))
    assert _bits(cert.complement_margin) == _bits(margin)
    assert _bits(cert.restricted_condition) == _bits(lazy.restricted_condition)


def _count_exact_clauses(monkeypatch) -> list:
    """A list that grows by one at each call of the exact clause checks, ``inverses._clauses``."""
    calls, clauses = [], inverses._clauses
    monkeypatch.setattr(inverses, "_clauses", lambda *args: calls.append(1) or clauses(*args))
    return calls


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("kind", ["outer", "bott_duffin"])  # T and S not read at the tolerance
def test_zero_rank_rel_tol_grants_a_clear_core_as_the_exact_clauses_would(
        monkeypatch, kind, complex_):
    # at rank_rel_tol 0 a core clear of rounding grants both clauses, and the certificate is
    # bitwise the one the exact clauses give (forced at 0.99 times the complement margin)
    a, constructions = _clause_problem(complex_, "tight")
    construct, _ = constructions[kind]
    exact = _count_exact_clauses(monkeypatch)
    granted = construct(a, gi.ToleranceConfig(rank_rel_tol=0.0))
    assert exact == []
    tol = gi.ToleranceConfig(rank_rel_tol=granted.complement_margin * 0.99)  # a first read
    exact.clear()
    judged = construct(a, tol)
    assert exact == [1]
    assert granted.inverse.tobytes() == judged.inverse.tobytes()
    for name in ("restricted_condition", "complement_margin", "inverse_norm"):
        assert _bits(getattr(granted, name)) == _bits(getattr(judged, name)), name
    assert {k: _bits(v) for k, v in granted.residuals.items()} == {
        k: _bits(v) for k, v in judged.residuals.items()}


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("kind", CLAUSE_KINDS)
def test_zero_rank_rel_tol_sends_a_core_singular_to_rounding_to_the_exact_clauses(
        monkeypatch, kind, complex_):
    # a kills T up to rounding: the core's sigma_min is within rounding of 0, which the
    # bound's allowance leaves to the exact clauses even at rank_rel_tol 0
    a, constructions = _clause_problem(complex_, "tight")
    construct, _ = constructions[kind]
    f = construct(a, gi.DEFAULT_TOL).prescribed_range.basis
    exact = _count_exact_clauses(monkeypatch)
    try:
        construct(a - (a @ f) @ f.conj().T, gi.ToleranceConfig(rank_rel_tol=0.0))
    except ExistenceError:  # CertificateError included: the outcome is not at issue here
        pass
    assert exact == [1]


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


def _carried_spans(kind: str, m: int, n: int, r: int, complex_: bool, seed: int) -> list:
    """The subspaces one constructor reads off a full SVD, for a rank-r instance."""
    rng = np.random.default_rng(seed)
    a = families.random_rank_matrix(rng, m, n, r, complex_)
    if kind == "null_space":
        return [gi.null_space(a)]
    if kind == "range_and_null_space":
        return list(subspace.range_and_null_space(a, gi.DEFAULT_TOL)[:2])
    if kind == "moore_penrose_stack":
        cert, = inverses.moore_penrose_stack([a])
        return [cert.prescribed_range, cert.prescribed_nullspace]
    t = families.random_subspace(rng, n, r, complex_)
    if kind == "from_matrix":  # R(p) = T and N(p) = T's orthogonal complement
        p = gi.ObliqueProjector.from_matrix(t.projector())
        return [p.range, p.nullspace]
    # bc_inverse_stack: R(b) = T and N(c) = T's orthogonal complement, a = I
    cert, = inverses.bc_inverse_stack([(np.eye(n), t.projector(), t.projector())])
    return [cert.prescribed_nullspace]


@st.composite
def carried_problems(draw):
    """(constructor, m, n, rank, complex, seed): shapes up to 8, every rank 0..min(m, n)."""
    kind = draw(st.sampled_from(["null_space", "range_and_null_space", "moore_penrose_stack",
                                 "from_matrix", "bc_inverse_stack"]))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8)) if kind in ("null_space", "range_and_null_space",
                                           "moore_penrose_stack") else n
    r = draw(st.one_of(st.just(0), st.just(min(m, n)), st.integers(0, min(m, n))))
    return kind, m, n, r, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(carried_problems())
def test_carried_complement_completes_an_orthonormal_basis(problem):
    # a subspace read off a full SVD carries the rest of its singular vectors: with them its
    # basis is a unitary [S | H*], so H is orthonormal rows spanning S's orthogonal complement
    kind, m, n, r, complex_, seed = problem
    for space in _carried_spans(kind, m, n, r, complex_, seed):
        basis, rest = space.basis, space._complement
        assert rest is not None and space.dim + rest.shape[1] == space.ambient_dim
        q = np.hstack([basis, rest])
        defect = q.conj().T @ q - np.eye(space.ambient_dim)
        assert np.linalg.norm(defect, 2) <= 10 * space.ambient_dim * np.finfo(float).eps
