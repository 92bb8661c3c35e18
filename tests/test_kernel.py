import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import kernel
from geninv.errors import InputError


def test_svd_diagonal():
    _, sigma, _ = gi.svd(np.diag([3.0, 1.0]))
    assert np.allclose(sigma, [3.0, 1.0])


def test_svd_zero():
    _, sigma, _ = gi.svd(np.zeros((2, 2)))
    assert np.allclose(sigma, [0.0, 0.0])


def test_svd_swap():
    # eigenvalues of A*A are both 1 for the exchange matrix
    _, sigma, _ = gi.svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(sigma, [1.0, 1.0])


def test_svd_orthonormal_factors(rng):
    a = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    u, sigma, v = gi.svd(a)
    assert gi.spectral_norm(u.conj().T @ u - np.eye(4)) <= 1e-12
    assert gi.spectral_norm(v.conj().T @ v - np.eye(4)) <= 1e-12
    assert gi.spectral_norm(u @ np.diag(sigma) @ v.conj().T - a) <= 1e-12 * max(sigma)


def test_svd_reconstruction_bulk(rng):
    eps = np.finfo(float).eps
    for m, n in ((3, 3), (20, 11), (50, 50), (100, 40), (100, 100)):
        for complex_ in (False, True):
            a = rng.standard_normal((m, n))
            if complex_:
                a = a + 1j * rng.standard_normal((m, n))
            u, sigma, v = gi.svd(a)
            err = gi.spectral_norm(a - u @ np.diag(sigma) @ v.conj().T)
            assert err <= 10 * eps * max(m, n) * sigma[0]


def test_numerical_rank_examples():
    tol = gi.ToleranceConfig(rank_rel_tol=1e-10)
    assert gi.numerical_rank([3.0, 1e-14], tol) == 1
    assert gi.numerical_rank([0.0, 0.0], tol) == 0
    assert gi.numerical_rank([1.0, 0.5, 1e-12], tol) == 2


@settings(max_examples=50, deadline=None)
@given(
    sigma=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=12),
    t1=st.floats(min_value=1e-14, max_value=0.99),
    t2=st.floats(min_value=1e-14, max_value=0.99),
)
def test_numerical_rank_monotone_in_tolerance(sigma, t1, t2):
    sigma = sorted(sigma, reverse=True)
    lo, hi = sorted((t1, t2))
    rank_lo = gi.numerical_rank(sigma, gi.ToleranceConfig(rank_rel_tol=lo))
    rank_hi = gi.numerical_rank(sigma, gi.ToleranceConfig(rank_rel_tol=hi))
    assert rank_hi <= rank_lo


def test_spectral_norm_examples():
    assert gi.spectral_norm(np.eye(5)) == pytest.approx(1.0)
    assert gi.spectral_norm(np.diag([2.0, -5.0])) == pytest.approx(5.0)
    assert gi.spectral_norm(np.array([[1.0, 1.0]])) == pytest.approx(np.sqrt(2.0))
    assert gi.spectral_norm(np.zeros((3, 2))) == 0.0


def test_spectral_norm_submultiplicative(rng):
    for _ in range(25):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 5))
        assert gi.spectral_norm(a @ b) <= gi.spectral_norm(a) * gi.spectral_norm(b) + 1e-10


def test_as_matrix_rejects_non_finite():
    with pytest.raises(InputError):
        gi.as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(InputError):
        gi.as_matrix(np.array([[np.inf, 1.0]]))


def test_tolerance_config_validation():
    with pytest.raises(InputError):
        gi.ToleranceConfig(rank_rel_tol=1.5)
    with pytest.raises(InputError):
        gi.ToleranceConfig(residual_tol=-0.1)
    with pytest.raises(InputError):
        gi.ToleranceConfig(fd_step_sweep=(1e-3, 1e-2))
    with pytest.raises(InputError):
        gi.ToleranceConfig(fd_step_sweep=())


def test_residual_norm_does_not_overflow_on_huge_entries():
    # the squared entries overflow; the spectral norm of the all-1e160 3x3 is 3e160
    a = np.full((3, 3), 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel.residual_norm(a, 1.0) == pytest.approx(3e160, rel=1e-12)
        assert kernel.residual_norm(a, 1e161) == pytest.approx(3e160, rel=1e-12)
        assert kernel.residual_norm(1j * a, 1.0) == pytest.approx(3e160, rel=1e-12)


def test_residual_norm_within_budget_is_numpy_frobenius_norm(rng):
    for shape in ((1, 1), (7, 4), (30, 30)):
        a = rng.standard_normal(shape)
        for x in (a, a.T, np.asfortranarray(a), a + 1j * a[::-1], (a + 1j * a[::-1]).T):
            assert kernel.residual_norm(x, 1e300) == float(np.linalg.norm(x))


def test_batched_svd_and_norms_match_per_matrix_calls(rng):
    mats = [rng.standard_normal((5, 3)) for _ in range(4)]
    mats += [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)]
    mats += [rng.standard_normal((4, 4)), np.zeros((4, 0)), np.zeros((4, 4))]
    norms = kernel.spectral_norms(mats)
    assert norms.tolist() == [gi.spectral_norm(m) for m in mats]
    for full in (False, True):
        u, sigma, v = kernel.svd_stack(mats[:4], full=full)
        for k, m in enumerate(mats[:4]):
            single = gi.svd(m, full=full)
            assert all(np.array_equal(x[k], y) for x, y in zip((u, sigma, v), single))
    assert kernel.spectral_norms([]).shape == (0,)
    with pytest.raises(InputError):
        kernel.spectral_norms([np.array([[np.inf]])])


def test_numerical_rank_of_a_stack_is_the_rank_of_each_row():
    rng = np.random.default_rng(3)
    rows = -np.sort(-rng.random((40, 6)) ** 8, axis=1)
    rows[::7] = 0.0
    rows[1::5, 3:] = 1e-13 * rows[1::5, :1]
    for rel in (1e-10, 1e-3, 0.5):
        tol = gi.ToleranceConfig(rank_rel_tol=rel)
        ranks = gi.numerical_rank(rows, tol)
        assert ranks.shape == (40,)
        assert ranks.tolist() == [gi.numerical_rank(row, tol) for row in rows]
    assert gi.numerical_rank(np.zeros((3, 0))).tolist() == [0, 0, 0]
