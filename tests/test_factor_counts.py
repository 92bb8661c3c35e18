"""Factorization counts per call of the main constructions never go up.

Every O(n^3) factorization goes through a numpy.linalg entry point; these
tests count the calls made inside one construction at n = 64 (r = n / 2) and
hold each count to the value of the full-rank construction as an upper bound.
The outer construction (outer_prescribed: 1 SVD + 1 QR) factors only its core
H A F: both existence clauses and the checks scaled by ||a|| are decided at
bounds read off the core's singular values. H, orthonormal rows spanning the
orthogonal complement of the prescribed null space S, takes the complete QR of
S only where S was built by the caller: a null space read off a full SVD (of c,
d or q for bc_inverse, inverse_along and bott_duffin) carries its complement,
so those three take no QR. A certificate's restricted_condition and
complement_margin are the SVD of A F, H and one more SVD, taken together on the
first read of either, and its operator_norm is one values-only SVD of a on first
read (none of these for moore_penrose, whose SVD gives them).
The sequence reports are held to their per-index construction: 30 more
indices may add no more calls than 30 more bc_inverse (3 SVD) or
moore_penrose (1 SVD) calls, so every diagnostic is batched over the indices,
and a 20x20, 10-index report takes at most 16 SVD (sequence_report) or
13 SVD (mp_continuity_report): its projector records are read off the
deviations of the prescribed subspaces, with no projector formed.
bc_inverse, inverse_along, bott_duffin and reflexive_inverse take one SVD per
operand (none for a projector, which carries its own subspaces and norm; values
only for reflexive_inverse's f, whose rank is all it reads) before the
construction's own factorizations.
perturbed_bc_inverse and zero_limit_check read ||a|| and ||x|| off the
certificate; ||x|| costs nothing and ||a|| at most its first read.
finite_difference_check builds one inverse per point of its sweep, all of them one
stacked construction, so its factorizations do not grow with the steps.
"""

import numpy as np
import pytest

import geninv as gi
from geninv import calculus, families, kernel

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
    assert counts["svd"] <= 1 and counts["qr"] <= 1 and counts["inv"] <= 1
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
    assert counts["svd"] <= 3 and counts["qr"] == 0 and counts["inv"] <= 1
    assert counts["solve"] == 0 and counts["lstsq"] == 0
    # b and c are the only N x N operands factored (each a stack of one); a is not
    square = [shape for name, shape in linalg_calls if shape[-2:] == (N, N)]
    assert len(square) <= 2


@pytest.mark.parametrize("complex_", [False, True])
def test_inverse_along_counts(linalg_calls, complex_):
    # R(d), N(d) and ||d|| come off one full SVD of d; the rest is the outer construction
    rng = np.random.default_rng(11)
    a, t, s = outer_instance_at_angles(rng, N, N, N // 2, complex_)
    d = t.basis @ families.random_conditioned(rng, N // 2, complex_) @ complement_rows(s)
    linalg_calls.clear()
    gi.inverse_along(a, d)
    counts = _counts(linalg_calls)
    assert counts["svd"] <= 2 and counts["qr"] == 0 and counts["inv"] <= 1
    assert counts["solve"] == 0 and counts["lstsq"] == 0


@pytest.mark.parametrize("complex_", [False, True])
def test_bott_duffin_counts(linalg_calls, complex_):
    # R(p), N(q) (with its complement), ||p|| and ||q|| are the projectors' own: only the
    # outer construction's core is factored
    rng = np.random.default_rng(12)
    a, t, s = outer_instance_at_angles(rng, N, N, N // 2, complex_)
    h = complement_rows(s)
    p = gi.ObliqueProjector.from_matrix(t.basis @ t.basis.conj().T)
    q = gi.ObliqueProjector.from_matrix(h.conj().T @ h)
    linalg_calls.clear()
    gi.bott_duffin(a, p, q)
    counts = _counts(linalg_calls)
    assert counts["svd"] <= 1 and counts["qr"] == 0 and counts["inv"] <= 1
    assert counts["solve"] == 0 and counts["lstsq"] == 0


@pytest.mark.parametrize("complex_", [False, True])
def test_reflexive_inverse_counts(linalg_calls, complex_):
    # rank f comes off one values-only SVD of f, then only the construction factors
    f = families.random_rank_matrix(np.random.default_rng(13), N, N, N // 2, complex_)
    n_complement = gi.column_space(f.conj().T)
    m_complement = gi.orthogonal_complement(gi.column_space(f))
    linalg_calls.clear()
    gi.reflexive_inverse(f, n_complement, m_complement)
    counts = _counts(linalg_calls)
    assert counts["svd"] <= 2 and counts["qr"] <= 1 and counts["inv"] <= 1
    assert counts["solve"] == 0 and counts["lstsq"] == 0


@pytest.mark.parametrize("complex_", [False, True])
def test_perturbed_bc_inverse_counts(linalg_calls, complex_):
    # ||x|| and ||a|| come off the certificate; the SVDs are ||e||, the first read
    # of ||a||, three discrepancy norms and the recomputation's one; the recomputation's H is
    # the complement the certificate's N(c) carries
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
    assert counts["svd"] <= 6 and counts["qr"] == 0
    assert counts["inv"] <= 1 and counts["solve"] <= 1 and counts["lstsq"] == 0


@pytest.mark.parametrize("complex_", [False, True])
def test_operator_norm_costs_one_svd_on_first_read(linalg_calls, complex_):
    # the outer kinds factor a for ||a|| only when it is read, and once;
    # moore_penrose reads it off its own SVD
    rng = np.random.default_rng(15)
    a, t, s = outer_instance_at_angles(rng, N, N, N // 2, complex_)
    want = gi.spectral_norm(a)
    for cert in (gi.outer_prescribed(a, t, s), gi.inverse_along(a, a)):
        linalg_calls.clear()
        assert np.float64(cert.operator_norm).tobytes() == np.float64(want).tobytes()
        assert linalg_calls == [("svd", (N, N))]
        linalg_calls.clear()
        assert np.float64(cert.operator_norm).tobytes() == np.float64(want).tobytes()
        assert linalg_calls == []
    cert = gi.moore_penrose(a)
    linalg_calls.clear()
    assert cert.operator_norm == pytest.approx(want, rel=1e-14)
    assert linalg_calls == []


@pytest.mark.parametrize("complex_", [False, True])
def test_clause_record_costs_two_svds_and_one_qr_on_first_read(linalg_calls, complex_):
    # the construction decides both clauses off its core; restricted_condition and
    # complement_margin are taken together, on the first read of either, and kept; the QR of
    # S is outer_prescribed's alone, as bott_duffin's N(q) carries its complement
    rng = np.random.default_rng(16)
    a, t, s = outer_instance_at_angles(rng, N, N, N // 2, complex_)
    h = complement_rows(s)
    p = gi.ObliqueProjector.from_matrix(t.basis @ t.basis.conj().T)
    q = gi.ObliqueProjector.from_matrix(h.conj().T @ h)
    for first, second in (("restricted_condition", "complement_margin"),
                          ("complement_margin", "restricted_condition")):
        for cert, qr in ((gi.outer_prescribed(a, t, s), 1), (gi.bott_duffin(a, p, q), 0)):
            linalg_calls.clear()
            getattr(cert, first)
            assert _counts(linalg_calls) == {"svd": 2, "qr": qr, "inv": 0, "solve": 0, "lstsq": 0}
            linalg_calls.clear()
            getattr(cert, second), getattr(cert, first), cert.operator_norm
            assert linalg_calls == [("svd", (N, N))]  # operator_norm's own, kept apart
    cert = gi.moore_penrose(a)
    linalg_calls.clear()
    cert.restricted_condition, cert.complement_margin, cert.operator_norm
    assert linalg_calls == []


def test_zero_limit_check_factors_nothing(linalg_calls):
    # 12 certificates, zero from index 5 on: "exactly zero" is inverse_norm == 0
    rng = np.random.default_rng(10)
    a, b, c = families.random_solvable_triple(rng, 6, 3)
    certs = [gi.bc_inverse(a, b * (k < 4), c * (k < 4)) for k in range(12)]
    linalg_calls.clear()
    assert gi.zero_limit_check(certs) == (True, 5)
    assert linalg_calls == []


def _additive_sequence(complex_, count):
    """A 20x20 (b, c) limit with rank-10 b and c, its additive family and the tolerance."""
    n = 20
    rng = np.random.default_rng(4)
    a, t, s = outer_instance_at_angles(rng, n, n, n // 2, complex_)
    b = t.basis @ families.random_matrix(rng, n // 2, n, complex_)
    c = families.random_matrix(rng, n, n // 2, complex_) @ complement_rows(s)
    tol = gi.ToleranceConfig(residual_tol=1e-2)
    return (a, b, c), families.additive_family(a, b, c, count, np.random.default_rng(5), tol), tol


@pytest.mark.parametrize("complex_", [False, True])
def test_sequence_report_per_index_cost_is_the_bc_inverse(linalg_calls, complex_):
    # per index only bc_inverse's own factorizations (<= 3 SVD); every
    # diagnostic norm and subspace is one batched call per quantity
    calls = {}
    for count in (10, 40):
        limit, seq, tol = _additive_sequence(complex_, count)
        linalg_calls.clear()
        report = gi.sequence_report(limit, seq, tol)
        calls[count] = len(linalg_calls)
        assert not report.failed_indices
    assert calls[40] - calls[10] <= 30 * 3


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
def test_sequence_report_calls_do_not_grow_with_the_indices(linalg_calls, complex_):
    # every index shares the limit's (shape, field, rank b, rank c) group: the
    # inverses are one stacked construction, so no numpy.linalg call is per index
    calls = {}
    for count in (10, 40):
        limit, seq, tol = _additive_sequence(complex_, count)
        linalg_calls.clear()
        report = gi.sequence_report(limit, seq, tol)
        calls[count] = len(linalg_calls)
        assert not report.failed_indices
    assert calls[40] == calls[10]


@pytest.mark.parametrize("complex_", [False, True])
def test_mp_continuity_report_calls_do_not_grow_with_the_indices(linalg_calls, complex_):
    calls = {}
    for count in (10, 40):
        a, seq = families.mp_convergent_sequence(np.random.default_rng(6), 20, 10, count, complex_)
        linalg_calls.clear()
        gi.mp_continuity_report(a, seq)
        calls[count] = len(linalg_calls)
    assert calls[40] == calls[10]


@pytest.mark.parametrize("complex_", [False, True])
def test_sequence_report_counts(linalg_calls, complex_):
    # the stacked construction (3 SVD), the limit's ||a|| for the error
    # scale, the inverse and two product errors (one SVD each), R(x_n) and
    # N(x_n) (one full SVD), and four deviations readings (R(x_n), N(x_n), T_n
    # and S_n; two SVDs each)
    limit, seq, tol = _additive_sequence(complex_, 10)
    linalg_calls.clear()
    assert not gi.sequence_report(limit, seq, tol).failed_indices
    counts = _counts(linalg_calls)
    assert counts["svd"] <= 16
    assert counts["qr"] == counts["inv"] == counts["solve"] == counts["lstsq"] == 0


def test_stack_norms_of_empty_slices_factor_nothing(linalg_calls):
    # the deviations from a trivial subspace are n x 0 slices, whose norms are 0 without an SVD
    for stack in (np.zeros((3, 4, 0)), np.zeros((3, 0, 4))):
        assert kernel.stack_norms(stack).tolist() == [0.0, 0.0, 0.0]
    assert linalg_calls == []


@pytest.mark.parametrize("complex_", [False, True])
def test_mp_continuity_report_counts(linalg_calls, complex_):
    # as test_sequence_report_counts with the one-SVD Moore-Penrose construction
    a, seq = families.mp_convergent_sequence(np.random.default_rng(6), 20, 10, 10, complex_)
    linalg_calls.clear()
    assert not gi.mp_continuity_report(a, seq).failed_indices
    counts = _counts(linalg_calls)
    assert counts["svd"] <= 13
    assert counts["qr"] == counts["inv"] == counts["solve"] == counts["lstsq"] == 0


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


@pytest.mark.parametrize("kind", ["bc", "mp", "oip"])
def test_finite_difference_check_builds_one_inverse_per_point(monkeypatch, kind):
    # a', (P_T)' and (P_S)' come off the sweep's own certificates: one
    # construction at t0 and one at t0 +- each step, nothing more, counted as
    # the slices of the stacked constructions
    rng = np.random.default_rng(9)
    curves = {
        "bc": lambda: families.bc_curves(rng, 6, 3),
        "mp": lambda: [families.mp_curve(rng, 6, 5, 3)],
        "oip": lambda: families.oip_curves(rng, 6, 5, 3),
    }[kind]()
    slices = []
    for name in ("bc_inverse_stack", "moore_penrose_stack", "outer_prescribed_stack"):

        def counted(problems, *args, _original=getattr(calculus, name), **kwargs):
            slices.append(len(problems))
            return _original(problems, *args, **kwargs)

        monkeypatch.setattr(calculus, name, counted)
    gi.finite_difference_check(curves, 0.0, kind=kind)
    assert sum(slices) == 1 + 2 * len(gi.DEFAULT_TOL.fd_step_sweep)


def _affine_curves(kind: str, complex_: bool):
    """Curves x0 + t x1 whose ranks hold near t = 0, so evaluating them calls no numpy.linalg:
    each rank-deficient x0 moves as (I + t L) x0 or x0 (I + t L)."""
    n, r = 8, 4
    rng = np.random.default_rng(14)

    def move():
        return 0.1 * families.random_matrix(rng, n, n, complex_)

    if kind == "bc":
        a, b, c = families.random_solvable_triple(rng, n, r, complex_)
        pairs = [(a, move()), (b, move() @ b), (c, c @ move())]
    elif kind == "mp":
        a = families.random_rank_matrix(rng, n, n, r, complex_)
        pairs = [(a, move() @ a)]
    else:
        a, t, s = outer_instance_at_angles(rng, n, n, r, complex_)
        p = t.basis @ families.random_conditioned(rng, r, complex_)
        q = s.basis @ families.random_conditioned(rng, n - r, complex_)
        pairs = [(a, move()), (p, move() @ p), (q, move() @ q)]
    return [gi.MatrixCurve(lambda t, x0=x0, x1=x1: x0 + t * x1) for x0, x1 in pairs]


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("kind, svd, qr", [("bc", 4, 0), ("mp", 2, 0), ("oip", 4, 1)])
def test_finite_difference_check_calls_do_not_grow_with_the_steps(linalg_calls, kind, svd, qr,
                                                                  complex_):
    # the sweep's certificates are one stacked construction and its errors one
    # batched norm, so a longer sweep adds no numpy.linalg call
    curves = _affine_curves(kind, complex_)
    counts = {}
    for steps in (4, 8):
        tol = gi.ToleranceConfig(fd_step_sweep=tuple(10.0 ** -(2 + k / 2) for k in range(steps)))
        linalg_calls.clear()
        gi.finite_difference_check(curves, 0.0, tol, kind)
        counts[steps] = _counts(linalg_calls)
    assert counts[4] == counts[8]
    assert counts[4]["svd"] <= svd and counts[4]["qr"] <= qr
    assert sum(counts[4].values()) == counts[4]["svd"] + counts[4]["qr"]
