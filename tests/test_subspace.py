import dataclasses

import numpy as np
import pytest

import geninv as gi
from geninv import families
from geninv.errors import ExistenceError, InputError

from conftest import assert_same_subspace


def line(*coords):
    v = np.array(coords, dtype=float).reshape(-1, 1)
    return gi.column_space(v)


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
    p = gi.oblique_projector(line(1, 0), line(0, 1))
    assert np.allclose(p.matrix, np.diag([1.0, 0.0]))


def test_oblique_projector_skew_case():
    p = gi.oblique_projector(line(1, 0), line(1, 1))
    assert np.allclose(p.matrix, np.array([[1.0, -1.0], [0.0, 0.0]]), atol=1e-12)


def test_oblique_projector_overlapping_rejected():
    with pytest.raises(ExistenceError, match="not complementary"):
        gi.oblique_projector(line(1, 0), line(1, 0))


def test_oblique_projector_trivial_and_full():
    n = 4
    assert np.allclose(
        gi.oblique_projector(gi.trivial_subspace(n), gi.full_subspace(n)).matrix,
        np.zeros((n, n)),
    )
    assert np.allclose(
        gi.oblique_projector(gi.full_subspace(n), gi.trivial_subspace(n)).matrix,
        np.eye(n),
    )


def test_oblique_projector_recovers_subspaces(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, n))
        t = families.random_subspace(rng, n, d)
        s = families.random_subspace(rng, n, n - d)
        if gi.direct_sum_check(t, s).margin < 0.1:
            continue
        p = gi.oblique_projector(t, s)
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
    ok, margin = gi.direct_sum_check(line(1, 0), line(0, 1))
    assert ok and margin == pytest.approx(1.0)
    ok, margin = gi.direct_sum_check(line(1, 0), line(1, 0))
    assert not ok and margin == pytest.approx(0.0, abs=1e-12)
    theta = 0.3
    ok, margin = gi.direct_sum_check(line(1, 0), line(np.cos(theta), np.sin(theta)))
    assert ok
    assert margin == pytest.approx(np.sin(theta / 2) * np.sqrt(2.0), abs=1e-12)


def test_direct_sum_dimension_mismatch_fails():
    ok, _ = gi.direct_sum_check(gi.full_subspace(3), line(1, 0, 0))
    assert not ok


def test_ambient_mismatch_rejected():
    with pytest.raises(InputError):
        gi.gap(line(1, 0), line(1, 0, 0))


LOOSE_RANK = gi.ToleranceConfig(rank_rel_tol=0.5)
# span(e1) and span((1, 0.1)) meet at an angle of atan(0.1): margin sqrt(2) sin(atan(0.1) / 2)
NEAR_MARGIN = np.sqrt(2.0) * np.sin(np.arctan(0.1) / 2)


def test_oblique_projector_decides_complementarity_with_the_tol_it_is_passed():
    t, s = line(1, 0), line(1, 0.1)
    assert np.allclose(gi.oblique_projector(t, s).matrix, [[1.0, -10.0], [0.0, 0.0]])
    with pytest.raises(ExistenceError, match="not complementary") as info:
        gi.oblique_projector(t, s, LOOSE_RANK)
    assert info.value.clause == "not complementary"
    assert info.value.margin == pytest.approx(0.0704, abs=5e-5)
    assert info.value.margin == pytest.approx(NEAR_MARGIN, abs=1e-12)


def test_direct_sum_check_decides_with_the_tol_it_is_passed():
    t, s = line(1, 0), line(1, 0.1)
    assert gi.direct_sum_check(t, s).holds
    ok, margin = gi.direct_sum_check(t, s, LOOSE_RANK)
    assert not ok and margin == pytest.approx(NEAR_MARGIN, abs=1e-12)
    # the decision is the argument's even for subspaces built under another tolerance
    loose_t = gi.column_space(np.array([[1.0], [0.0]]), LOOSE_RANK)
    assert gi.direct_sum_check(loose_t, s).holds


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


def test_gap_conventions_for_trivial_and_full_subspaces():
    for n in (1, 3):
        zero, full = gi.trivial_subspace(n), gi.full_subspace(n)
        assert gi.gap(zero, full) == (0.0, 1.0, 1.0)
        assert gi.gap(full, zero) == (1.0, 0.0, 1.0)
        assert gi.gap(full, full) == (0.0, 0.0, 0.0)
        assert gi.gap(zero, zero) == (0.0, 0.0, 0.0)
