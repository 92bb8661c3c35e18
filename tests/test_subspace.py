import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import families, subspace
from geninv.errors import CertificateError, ExistenceError, InputError

from conftest import assert_same_subspace, oblique_projector_oracle, projector


def line(*coords):
    v = np.array(coords, dtype=float).reshape(-1, 1)
    return gi.column_space(v)


def direct_sum(t, s, tol=gi.DEFAULT_TOL):
    """Whether T (+) S fills the space, and the margin deciding it: the complement clause of the
    projector onto T along S, the outer inverse of I."""
    try:
        return True, gi.outer_prescribed(np.eye(t.ambient_dim), t, s, tol).complement_margin
    except ExistenceError as exc:
        return False, exc.margin


def test_column_space_examples():
    s = gi.column_space(np.diag([1.0, 0.0]))
    assert_same_subspace(s, line(1, 0))
    assert gi.column_space(np.zeros((3, 3))).dim == 0
    s = gi.column_space(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert_same_subspace(s, line(1, 1))


def test_null_space_examples():
    assert gi.null_space(np.eye(3)).dim == 0
    assert_same_subspace(gi.null_space(np.diag([1.0, 0.0])), line(0, 1))
    assert_same_subspace(gi.null_space(np.array([[1.0, 1.0]])), line(1, -1))


def test_oblique_projector_orthogonal_case():
    p = projector(line(1, 0), line(0, 1))
    assert np.allclose(p.matrix, np.diag([1.0, 0.0]))


def test_oblique_projector_skew_case():
    p = projector(line(1, 0), line(1, 1))
    assert np.allclose(p.matrix, np.array([[1.0, -1.0], [0.0, 0.0]]), atol=1e-12)


def test_oblique_projector_overlapping_rejected():
    with pytest.raises(ExistenceError, match="complement fails: R\\(A\\*T\\)"):
        projector(line(1, 0), line(1, 0))


def test_oblique_projector_trivial_and_full():
    n = 4
    assert np.allclose(
        projector(gi.trivial_subspace(n), gi.full_subspace(n)).matrix,
        np.zeros((n, n)),
    )
    assert np.allclose(
        projector(gi.full_subspace(n), gi.trivial_subspace(n)).matrix,
        np.eye(n),
    )


@pytest.mark.parametrize("complex_", [False, True])
def test_oblique_projector_matches_the_stacked_basis_oracle(complex_):
    # every dim T from 0 to n: the outer inverse of I against B E B^{-1}, B = [T | S]
    rng, eps = np.random.default_rng(31), np.finfo(float).eps
    for n in range(1, 9):
        for dim in range(n + 1):
            t = families.random_subspace(rng, n, dim, complex_)
            s = families.random_subspace(rng, n, n - dim, complex_)
            p, want = projector(t, s), oblique_projector_oracle(t, s)
            assert gi.spectral_norm(p.matrix - want) <= 100 * n * p.norm * eps
            assert abs(p.norm - gi.spectral_norm(want)) <= 100 * n * p.norm * eps
            assert p.range is t and p.nullspace is s


def test_oblique_projector_recovers_subspaces(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, n))
        t = families.random_subspace(rng, n, d)
        s = families.random_subspace(rng, n, n - d)
        if direct_sum(t, s)[1] < 0.1:
            continue
        p = projector(t, s)
        assert gi.gap(gi.column_space(p.matrix), t).gap <= 1e-9
        assert gi.gap(gi.null_space(p.matrix), s).gap <= 1e-9


def test_projector_from_matrix_validates():
    gi.ObliqueProjector.from_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(InputError, match="idempotent"):
        gi.ObliqueProjector.from_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_gap_examples():
    m = line(1, 0)
    assert gi.gap(m, m) == (0.0, 0.0, 0.0)
    assert gi.gap(m, line(0, 1)) == (1.0, 1.0, 1.0)
    theta = 0.3
    result = gi.gap(m, line(np.cos(theta), np.sin(theta)))
    assert result.gap == pytest.approx(np.sin(theta), abs=1e-12)


def test_gap_trivial_conventions():
    m = line(1, 0)
    zero = gi.trivial_subspace(2)
    assert gi.gap(zero, m).delta_mn == 0.0
    assert gi.gap(m, zero).delta_mn == 1.0
    assert gi.gap(zero, zero).gap == 0.0


def test_gap_symmetry(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = families.random_subspace(rng, n, int(rng.integers(0, n + 1)))
        s = families.random_subspace(rng, n, int(rng.integers(0, n + 1)))
        assert gi.gap(m, s).gap == gi.gap(s, m).gap


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 7), complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_deviations_count_the_larger_side_and_measure_the_other(data, n, complex_, seed):
    # bases of drawn dimensions 0..n against one N: a side from the larger subspace is exactly
    # 1; every other side is ||(I - P_N) P_M|| (or ||(I - P_M) P_N||) from explicit projectors
    rng = np.random.default_rng(seed)
    dims = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=4))
    ms = [families.random_subspace(rng, n, d, complex_) for d in dims]
    other = families.random_subspace(rng, n, data.draw(st.integers(0, n)), complex_)
    eye = np.eye(n)
    for m, (d_mn, d_nm) in zip(ms, subspace.deviations([m.basis for m in ms], other.basis)):
        for side, larger, p, q in ((d_mn, m.dim > other.dim, other, m),
                                   (d_nm, other.dim > m.dim, m, other)):
            want = gi.spectral_norm((eye - p.projector()) @ q.projector())
            assert side == 1.0 if larger else abs(side - want) <= 1e-12


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), fields=st.sampled_from(["real", "complex", "mixed"]),
       seed=st.integers(0, 2**32 - 1))
def test_equal_dimension_deviations_measure_one_side_for_both(data, n, fields, seed):
    # bases of drawn dimensions 0..n against one N, some of them N turned by a small rotation,
    # each of its own field where fields are mixed: an equal-dimension row holds one number
    # twice, bit for bit, and every row's larger side is the two-sided deviation from explicit
    # projectors; gap of the pair either way round is the same row, sides swapped, bit for bit
    rng = np.random.default_rng(seed)

    def field() -> bool:
        return fields == "complex" or fields == "mixed" and data.draw(st.booleans())

    other = families.random_subspace(rng, n, data.draw(st.integers(0, n)), field())
    ms = []
    for dim in data.draw(st.lists(st.integers(-1, n), min_size=1, max_size=4)):
        if dim >= 0:  # -1: N turned by a rotation through an angle of 10^-k
            ms.append(families.random_subspace(rng, n, dim, field()))
            continue
        turn = families.cayley(families.random_skew(rng, n, field()), 10.0 ** -data.draw(
            st.integers(1, 12)))
        ms.append(gi.Subspace(n, turn @ other.basis))
    eye = np.eye(n)
    for m, row in zip(ms, subspace.deviations([m.basis for m in ms], other.basis)):
        if m.dim == other.dim:
            assert _bits(row[0]) == _bits(row[1])
        p_m, p_n = m.projector(), other.projector()
        two_sided = max(gi.spectral_norm((eye - p_n) @ p_m), gi.spectral_norm((eye - p_m) @ p_n))
        assert abs(row.max() - two_sided) <= 1e-13
        forward, backward = gi.gap(m, other), gi.gap(other, m)
        swapped = (backward.delta_nm, backward.delta_mn, backward.gap)
        assert _bits(forward) == _bits(swapped)


def test_gap_equal_dimension_rigidity(rng):
    # equal-dimension pairs with deviation < 1 have equal one-sided deviations
    for _ in range(20):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n))
        m = families.random_subspace(rng, n, d)
        k = families.random_skew(rng, n)
        s = gi.Subspace(n, families.cayley(k, 0.4) @ m.basis)
        result = gi.gap(m, s)
        assert result.delta_mn < 1.0
        assert abs(result.delta_mn - result.delta_nm) <= 1e-10


def test_gap_sampling_oracle_examples():
    m = line(1, 0)
    assert gi.gap_sampling_oracle(m, m, 10, 0) <= 1e-12
    assert gi.gap_sampling_oracle(m, line(0, 1), 1, 0) == pytest.approx(1.0)
    theta = 0.3
    n = line(np.cos(theta), np.sin(theta))
    assert gi.gap_sampling_oracle(m, n, 1000, 5) == pytest.approx(np.sin(theta), abs=1e-6)


def test_gap_sampling_oracle_is_lower_bound(rng):
    for trial in range(10):
        n = int(rng.integers(2, 7))
        m = families.random_subspace(rng, n, int(rng.integers(1, n + 1)))
        s = families.random_subspace(rng, n, int(rng.integers(1, n + 1)))
        sampled = gi.gap_sampling_oracle(m, s, 200, trial)
        assert sampled <= gi.gap(m, s).delta_mn + 1e-9


def test_gap_sampling_oracle_converges_for_lines(rng):
    # every unit vector of a 1-dim subspace attains the sup distance
    for trial in range(5):
        m = families.random_subspace(rng, 5, 1)
        s = families.random_subspace(rng, 5, 3)
        sampled = gi.gap_sampling_oracle(m, s, 10_000, trial)
        assert sampled == pytest.approx(gi.gap(m, s).delta_mn, abs=1e-6)


def test_direct_sum_check_examples():
    ok, margin = direct_sum(line(1, 0), line(0, 1))
    assert ok and margin == pytest.approx(1.0)
    ok, margin = direct_sum(line(1, 0), line(1, 0))
    assert not ok and margin == pytest.approx(0.0, abs=1e-12)
    theta = 0.3
    ok, margin = direct_sum(line(1, 0), line(np.cos(theta), np.sin(theta)))
    assert ok
    assert margin == pytest.approx(np.sin(theta / 2) * np.sqrt(2.0), abs=1e-12)


def test_direct_sum_dimension_mismatch_fails():
    ok, _ = direct_sum(gi.full_subspace(3), line(1, 0, 0))
    assert not ok


def test_ambient_mismatch_rejected():
    with pytest.raises(InputError):
        gi.gap(line(1, 0), line(1, 0, 0))


LOOSE_RANK = gi.ToleranceConfig(rank_rel_tol=0.5)
# span(e1) and span((1, 0.1)) meet at an angle of atan(0.1): margin sqrt(2) sin(atan(0.1) / 2)
NEAR_MARGIN = np.sqrt(2.0) * np.sin(np.arctan(0.1) / 2)


def test_oblique_projector_decides_complementarity_with_the_tol_it_is_passed():
    t, s = line(1, 0), line(1, 0.1)
    assert np.allclose(projector(t, s).matrix, [[1.0, -10.0], [0.0, 0.0]])
    with pytest.raises(ExistenceError, match="complement fails") as info:
        projector(t, s, LOOSE_RANK)
    assert info.value.clause == "R(A*T) (+) S != Y"
    assert info.value.margin == pytest.approx(0.0704, abs=5e-5)
    assert info.value.margin == pytest.approx(NEAR_MARGIN, abs=1e-12)


def test_oblique_projector_passes_a_refused_certificate_through():
    # the x I x - x residual is the idempotency test: a rounding-level defect over a zero
    # budget is the certificate's refusal, not a failure of complementarity
    rng = np.random.default_rng(5)
    t, s = families.random_subspace(rng, 6, 3), families.random_subspace(rng, 6, 3)
    with pytest.raises(CertificateError) as err:
        projector(t, s, gi.ToleranceConfig(residual_tol=0.0))
    assert err.value.clause == "residual exceeds tolerance" and "xax_x" in str(err.value)


def test_direct_sum_check_decides_with_the_tol_it_is_passed():
    t, s = line(1, 0), line(1, 0.1)
    assert direct_sum(t, s)[0]
    ok, margin = direct_sum(t, s, LOOSE_RANK)
    assert not ok and margin == pytest.approx(NEAR_MARGIN, abs=1e-12)
    # the decision is the argument's even for subspaces built under another tolerance
    loose_t = gi.column_space(np.array([[1.0], [0.0]]), LOOSE_RANK)
    assert direct_sum(loose_t, s)[0]


def test_direct_sum_check_holds_exactly_where_the_projector_exists():
    # 400 pairs (T, S), each probed at rank tolerances a hair either side of the projector's
    # existence threshold, 1,600 probes: the core H I F's sigma_min over ||I|| = 1, the sine of
    # the smallest angle between T and S, 1 / ||P||. The direct-sum check holds and the
    # projector exists exactly where that sine exceeds the tolerance
    rng = np.random.default_rng(27)
    for i in range(400):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(1, n))
        t, s = (families.random_subspace(rng, n, d, bool(i % 2)) for d in (dim, n - dim))
        core = subspace.complement_rows([s]) @ (np.eye(n)[None] @ t.basis[None])
        sine = np.linalg.svd(core, full_matrices=False)[1][0, -1]  # as the construction takes it
        for factor in (1 - 1e-13, 1 + 1e-13, 1 - 1e-15, 1 + 1e-15):
            tol = gi.ToleranceConfig(rank_rel_tol=sine * factor)
            try:
                exists = projector(t, s, tol) is not None
            except ExistenceError:
                exists = False
            assert direct_sum(t, s, tol)[0] == exists == (sine > tol.rank_rel_tol), (i, factor)


def test_orthogonal_complement_decides_rank_with_the_tol_it_is_passed():
    # a basis orthonormal only to 8e-4, accepted under residual_tol 1e-3, whose second
    # singular value 0.9996 falls under a rank cutoff of 0.9999
    basis = np.array([[1.0, 0.0], [0.0, 0.9996], [0.0, 0.0]])
    s = gi.Subspace(3, basis, gi.ToleranceConfig(residual_tol=1e-3))
    assert gi.orthogonal_complement(s).dim == 1
    cut = gi.ToleranceConfig(rank_rel_tol=0.9999)
    assert gi.orthogonal_complement(s, cut).dim == 2


def test_subspace_stores_no_tolerance():
    s = gi.Subspace(2, np.eye(2)[:, :1], gi.ToleranceConfig(residual_tol=1e-3))
    assert [f.name for f in dataclasses.fields(s)] == ["ambient_dim", "basis"]
    assert set(vars(s)) == {"ambient_dim", "basis"}
    with pytest.raises(InputError, match="orthonormal"):
        gi.Subspace(2, np.array([[1.0], [0.01]]))  # the tolerance still checks the basis
    gi.Subspace(2, np.array([[1.0], [0.01]]), gi.ToleranceConfig(residual_tol=1e-3))


def test_subspace_has_no_tolerance_attribute():
    # the tolerance only checks the basis; nothing reads back a default in its place
    s = gi.Subspace(2, np.eye(2)[:, :1], gi.ToleranceConfig(residual_tol=0.5))
    with pytest.raises(AttributeError):
        s.tol
    assert gi.Subspace(2, np.eye(2)[:, :1]).dim == 1


def test_subspace_and_projector_compare_by_identity_and_hash():
    s, t = gi.Subspace(2, np.eye(2)), gi.Subspace(2, np.eye(2))
    assert s == s and s != t
    assert len({s, t, s}) == 2
    p = projector(line(1, 0), line(0, 1))
    assert p == p and p != projector(line(1, 0), line(0, 1))
    assert {p: 1}[p] == 1


def test_gap_conventions_for_trivial_and_full_subspaces():
    for n in (1, 3):
        zero, full = gi.trivial_subspace(n), gi.full_subspace(n)
        assert gi.gap(zero, full) == (0.0, 1.0, 1.0)
        assert gi.gap(full, zero) == (1.0, 0.0, 1.0)
        assert gi.gap(full, full) == (0.0, 0.0, 0.0)
        assert gi.gap(zero, zero) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("m, n", [(3, 0), (0, 3), (0, 0)])
def test_subspaces_of_empty_matrices(m, n):
    # numpy's SVD of an empty operand already gives R = {0} and N = the whole domain
    a = np.zeros((m, n))
    col, null = gi.column_space(a), gi.null_space(a)
    assert (col.ambient_dim, col.dim) == (m, 0)
    assert (null.ambient_dim, null.dim) == (n, n)
    assert np.array_equal(null.projector(), np.eye(n))


def test_gap_sampling_oracle_with_complex_coefficients():
    # complex bases draw complex coefficients; the sample stays a lower bound of delta(M, N),
    # and on a complex line every unit vector attains it
    rng = np.random.default_rng(3)
    for trial in range(5):
        m, n = (families.random_subspace(rng, 3, 2, True) for _ in range(2))
        sampled = gi.gap_sampling_oracle(m, n, 200, trial)
        assert 0.0 <= sampled <= gi.gap(m, n).delta_mn + 1e-12
    m, n = families.random_subspace(rng, 4, 1, True), families.random_subspace(rng, 4, 2, True)
    assert gi.gap_sampling_oracle(m, n, 3, 0) == pytest.approx(gi.gap(m, n).delta_mn, abs=1e-12)


def test_gap_sampling_oracle_of_the_zero_subspace():
    n = families.random_subspace(np.random.default_rng(4), 3, 2, True)
    assert gi.gap_sampling_oracle(gi.trivial_subspace(3), n, 50, 0) == 0.0


def test_oblique_projector_across_ambient_spaces_names_the_subspaces():
    for t, s in ((gi.trivial_subspace(2), gi.trivial_subspace(3)), (line(1, 0, 0), line(0, 1))):
        with pytest.raises(InputError, match="^prescribed null space does not live in the co"):
            projector(t, s)


def test_the_empty_ambient_space_is_a_direct_sum():
    # C^0 = {0} (+) {0}: the projector exists, the empty matrix, at complement margin 1
    zero = gi.trivial_subspace(0)
    assert direct_sum(zero, zero) == (True, 1.0)
    assert projector(zero, zero).matrix.shape == (0, 0)
    for n in (1, 2, 5):
        assert direct_sum(gi.trivial_subspace(n), gi.full_subspace(n)) == (True, 1.0)
        assert direct_sum(gi.full_subspace(n), gi.trivial_subspace(n)) == (True, 1.0)
