"""Factorization counts per call of the main constructions never go up.

Every O(n^3) factorization goes through a numpy.linalg entry point; these
tests count the calls made inside one construction at n = 64 (r = n / 2) and
hold each count to the value of the full-rank construction as an upper bound.
The sequence reports are held to their per-index construction: 30 more
indices may add no more calls than 30 more bc_inverse (6 SVD + 1 QR) or
moore_penrose (1 SVD) calls, so every diagnostic is batched over the indices.
perturbed_bc_inverse takes the norm of the unperturbed inverse once.
"""

import numpy as np
import pytest

import geninv as gi
from geninv import families

from conftest import complement_rows, outer_instance_at_angles

N = 64
ENTRY_POINTS = ("svd", "qr", "inv", "solve", "lstsq")


@pytest.fixture
def linalg_calls(monkeypatch):
    """List of (entry point, operand shape) filled by every numpy.linalg call."""
    calls = []
    for name in ENTRY_POINTS:
        original = getattr(np.linalg, name)

        def counted(x, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(x)))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _counts(calls):
    return {name: sum(1 for n, _ in calls if n == name) for name in ENTRY_POINTS}


@pytest.mark.parametrize("complex_", [False, True])
def test_moore_penrose_takes_one_svd(linalg_calls, complex_):
    a = families.random_rank_matrix(np.random.default_rng(1), N, N, N, complex_)
    linalg_calls.clear()
    gi.moore_penrose(a)
    assert _counts(linalg_calls) == {"svd": 1, "qr": 0, "inv": 0, "solve": 0, "lstsq": 0}


@pytest.mark.parametrize("complex_", [False, True])
def test_outer_prescribed_counts(linalg_calls, complex_):
    a, t, s = outer_instance_at_angles(np.random.default_rng(2), N, N, N // 2, complex_)
    linalg_calls.clear()
    gi.outer_prescribed(a, t, s)
    counts = _counts(linalg_calls)
    assert counts["svd"] <= 4 and counts["qr"] <= 1 and counts["inv"] <= 1
    assert counts["solve"] == 0 and counts["lstsq"] == 0


@pytest.mark.parametrize("complex_", [False, True])
def test_bc_inverse_counts(linalg_calls, complex_):
    rng = np.random.default_rng(3)
    a, t, s = outer_instance_at_angles(rng, N, N, N // 2, complex_)
    b = t.basis @ families.random_matrix(rng, N // 2, N, complex_)
    c = families.random_matrix(rng, N, N // 2, complex_) @ complement_rows(s)
    linalg_calls.clear()
    gi.bc_inverse(a, b, c)
    counts = _counts(linalg_calls)
    assert counts["svd"] <= 6 and counts["qr"] <= 1 and counts["inv"] <= 1
    assert counts["solve"] == 0 and counts["lstsq"] == 0
    square = [shape for name, shape in linalg_calls if name in ("svd", "qr") and shape == (N, N)]
    assert len(square) <= 3


@pytest.mark.parametrize("complex_", [False, True])
def test_perturbed_bc_inverse_counts(linalg_calls, complex_):
    # ||x|| is one SVD shared by the radius, kappa, z and the bound's scale;
    # the rest is ||a||, ||e||, three discrepancy norms and the recomputation
    rng = np.random.default_rng(7)
    a, t, s = outer_instance_at_angles(rng, N, N, N // 2, complex_)
    b = t.basis @ families.random_matrix(rng, N // 2, N, complex_)
    c = families.random_matrix(rng, N, N // 2, complex_) @ complement_rows(s)
    cert = gi.bc_inverse(a, b, c)
    e = families.random_matrix(rng, N, N, complex_) * (0.3 / gi.spectral_norm(cert.inverse))
    linalg_calls.clear()
    report = gi.perturbed_bc_inverse(cert, e)
    assert not report.outside_ball and report.direct_inverse is not None
    counts = _counts(linalg_calls)
    assert counts["svd"] <= 10 and counts["qr"] <= 1
    assert counts["inv"] <= 1 and counts["solve"] <= 1 and counts["lstsq"] == 0


@pytest.mark.parametrize("complex_", [False, True])
def test_sequence_report_per_index_cost_is_the_bc_inverse(linalg_calls, complex_):
    # per index only bc_inverse's own factorizations (<= 6 SVD + 1 QR); every
    # diagnostic norm and subspace is one batched call per quantity
    n = 20
    rng = np.random.default_rng(4)
    a, t, s = outer_instance_at_angles(rng, n, n, n // 2, complex_)
    b = t.basis @ families.random_matrix(rng, n // 2, n, complex_)
    c = families.random_matrix(rng, n, n // 2, complex_) @ complement_rows(s)
    tol = gi.ToleranceConfig(residual_tol=1e-2)
    calls = {}
    for count in (10, 40):
        seq = families.additive_family(a, b, c, count, np.random.default_rng(5), tol)
        linalg_calls.clear()
        report = gi.sequence_report((a, b, c), seq, tol)
        calls[count] = len(linalg_calls)
        assert not report.failed_indices
    assert calls[40] - calls[10] <= 30 * (6 + 1)


@pytest.mark.parametrize("complex_", [False, True])
def test_mp_continuity_report_per_index_cost_is_one_svd(linalg_calls, complex_):
    calls = {}
    for count in (10, 40):
        a, seq = families.mp_convergent_sequence(np.random.default_rng(6), 20, 10, count, complex_)
        linalg_calls.clear()
        gi.mp_continuity_report(a, seq)
        calls[count] = len(linalg_calls)
    assert calls[40] - calls[10] <= 30


@pytest.mark.parametrize("complex_", [False, True])
def test_projector_from_matrix_takes_one_svd(linalg_calls, complex_):
    # ||p||, R(p) and N(p) come off one full SVD; the idempotency defect of an
    # exact projector is decided by its Frobenius norm
    rng = np.random.default_rng(8)
    t = families.random_subspace(rng, N, N // 2, complex_)
    s = families.random_subspace(rng, N, N - N // 2, complex_)
    linalg_calls.clear()
    p = gi.oblique_projector(t, s)
    assert _counts(linalg_calls) == {"svd": 2, "qr": 0, "inv": 1, "solve": 0, "lstsq": 0}
    linalg_calls.clear()
    wrapped = gi.ObliqueProjector.from_matrix(p.matrix)
    assert _counts(linalg_calls) == {"svd": 1, "qr": 0, "inv": 0, "solve": 0, "lstsq": 0}
    assert wrapped.range.dim == N // 2 and wrapped.nullspace.dim == N - N // 2
