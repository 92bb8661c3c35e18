"""Factorization counts per call of the main constructions never go up.

Every O(n^3) factorization goes through a numpy.linalg entry point; these
tests count the calls made inside one construction at n = 64 (r = n / 2) and
hold each count to the value of the full-rank construction as an upper bound.
Where a call factors a stack, its slices (the operand's leading dimension) are
counted beside the calls: a stack factors each distinct operand object once.
The outer construction (outer_prescribed: 1 SVD, and 1 QR of a caller's S on
its first read) factors only its core H A F: existence, sigma_min(H A F) >
rank_rel_tol ||a||, and the checks scaled by ||a|| are decided at bounds read
off the core's singular values; only a refusal takes the clause checks, which
name it (2 SVDs, or 3 where injectivity holds). H, orthonormal rows spanning the
orthogonal complement of the prescribed null space S, is the complement S keeps:
a null space read off a full SVD (of c, d or q for bc_inverse, inverse_along
and bott_duffin) carries it, so those three take no QR, and an S built by the
caller takes one complete QR on its first read and keeps it. So a second
construction on the same S object takes no QR, nor does an exact clause check
that refuses its complement, and a stack of problems sharing one S takes one QR
slice; a complement clause decided by counting (dim T = 0, or dim T + dim S !=
m) reads no H. A certificate's restricted_condition and complement_margin are
the SVD of A F, the kept H and one more SVD (2 SVDs, no QR), taken together on
the first read of either, and its operator_norm is one values-only SVD of a on
first read (none of these for moore_penrose, whose SVD gives them).
The sequence reports are held to their per-index construction: 30 more
indices may add no more calls than 30 more bc_inverse (2 SVD) or
moore_penrose (1 SVD) calls, so every diagnostic is batched over the indices,
and a 20x20, 10-index report takes at most 9 SVD (sequence_report) or
7 SVD (mp_continuity_report): its inverse, left-product and right-product errors
are one values-only SVD of all three stacks, and its projector records are read
off the deviations of the prescribed subspaces, with no projector formed. Every
row of the deviations measures one side: a side from the larger of two subspaces
is 1 by counting, and at equal dimensions both sides are one measured number. So a
20x20, 10-index sequence_report takes 9 SVD calls (77 slices) for an additive
family and 9 (115) for a rotating one, and an 8x8 convergent
mp_continuity_report 7 (92); a rank-drop family, whose indices differ in rank
from its limit, takes 8 SVD calls (84 slices) for a 20x20, 10-index
sequence_report and 5 (72 slices) for an 8x8 one of mp_continuity_report. Its b and c
are factored as one slice per distinct operand object: 2 slices for an
additive family, whose indices share the limit's b and c, and 11 for a
rank-drop family of (a_n, a_n, a_n), where one b and one c slice per problem
made 22; deviations measure a basis object shared by every index once.
A stack that kernel splits over two threads (from kernel.SPLIT_MIN_BYTES on) counts as
one call, its slices summed over both threads: bc_inverse factors b and c as one stack of
two slices, at n = 64 one slice on each thread, and inverse_along d as
one slice, read for R(d) and N(d) alike; bott_duffin takes none for its
projectors, which carry their own subspaces and norms, before the
construction's own factorizations.
perturbed_bc_inverse and zero_limit_check read ||a|| and ||x|| off the
certificate; ||x|| costs nothing and ||a|| at most its first read.
The fixed cost around one construction is held too, in Python frames run inside geninv
(conftest.python_frames): a 6x6 bc_inverse runs at most 68 (51 with b = c = 0),
moore_penrose 46 and outer_prescribed on subspaces already read 43, and each problem added
to a bc_inverse_stack at most 12 more (an additive family) or 17 (a rotating one, a new b
and c per problem): only the spans a problem reads are built, a problem's stacking key
reads its layouts through a C getter, not a Python call per matrix, each distinct operand
object is validated once per stack, the existence rule reads every ||a_i||_F from one
batched norm, and an all-zero defect is taken as 0 with no rescale.
finite_difference_check builds one inverse per point of its sweep, all of them one
stacked construction, so its factorizations do not grow with the steps. It reads each
curve once, at every point of the sweep: a library curve (families.bc_curves, mp_curve,
oip_curves) takes one batched solve per Cayley factor, so a (b, c) check makes 4 solve
calls and a Moore-Penrose or prescribed-outer check 2, however many steps it has.
"""

import threading

import numpy as np
import pytest

import geninv as gi
from geninv import calculus, families, kernel, subspace
from geninv.inverses import bc_inverse_stack, outer_prescribed_stack

import replay
from conftest import complement_rows, outer_instance_at_angles, projector, python_frames

N = 64
ENTRY_POINTS = ("svd", "qr", "inv", "solve", "lstsq")


class _Calls(list):
    """(entry point, operand shape) of each numpy.linalg call on the test's thread; ``worker``
    holds those on kernel's SVD worker thread, the first halves of split stacks. So a stack split
    over two threads counts as one call, and its slices over both threads."""

    def __init__(self):
        super().__init__()
        self.worker = []

    def clear(self):
        super().clear()
        self.worker.clear()

    def both(self) -> list:
        """The calls of both threads."""
        return [*self, *self.worker]


@pytest.fixture
def linalg_calls(monkeypatch):
    """``_Calls`` filled by every numpy.linalg call."""
    calls, here = _Calls(), threading.get_ident()
    for name in ENTRY_POINTS:
        original = getattr(np.linalg, name)

        def counted(x, *args, _name=name, _original=original, **kwargs):
            (calls if threading.get_ident() == here else calls.worker).append((_name, np.shape(x)))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _counts(calls):
    return {name: sum(1 for n, _ in calls if n == name) for name in ENTRY_POINTS}


def _svd_calls_and_slices(calls):
    """(number of calls, number of slices factored) of calls that are all SVDs, a split stack one
    call with its slices summed over both threads."""
    every = calls.both() if isinstance(calls, _Calls) else calls
    assert {name for name, _ in every} == {"svd"}
    return len(calls), sum(int(np.prod(shape[:-2])) for _, shape in every)


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
    assert counts["svd"] <= 2 and counts["qr"] == 0 and counts["inv"] <= 1
    assert counts["solve"] == 0 and counts["lstsq"] == 0
    # b and c are the only N x N operands factored, one stack of two slices, in halves on two
    # threads (from kernel.SPLIT_MIN_BYTES on): one call here, one on the worker; a is not
    square = sorted(shape for name, shape in linalg_calls.both() if shape[-2:] == (N, N))
    assert square == [(1, N, N), (1, N, N)]
    assert [shape for name, shape in linalg_calls if shape[-2:] == (N, N)] == [(1, N, N)]


@pytest.mark.parametrize("complex_", [False, True])
def test_a_large_bc_inverse_factors_b_and_c_as_two_one_slice_calls(linalg_calls, complex_):
    # the (b, c) stack is factored in halves, one per thread: the same two slices in one call
    # here and one on the worker, then the core H A F, as at N
    n = 2 * N
    rng = np.random.default_rng(3)
    a, t, s = outer_instance_at_angles(rng, n, n, n // 2, complex_)
    b = t.basis @ families.random_matrix(rng, n // 2, n, complex_)
    c = families.random_matrix(rng, n, n // 2, complex_) @ complement_rows(s)
    linalg_calls.clear()
    gi.bc_inverse(a, b, c)
    assert _counts(linalg_calls) == {"svd": 2, "qr": 0, "inv": 0, "solve": 0, "lstsq": 0}
    assert linalg_calls.worker == [("svd", (1, n, n))]
    assert sorted(shape for _, shape in linalg_calls.both()) == [(1, n // 2, n // 2), (1, n, n),
                                                                 (1, n, n)]


@pytest.mark.parametrize("complex_", [False, True])
def test_bc_inverse_stack_factors_b_and_c_of_two_layouts_in_one_call(linalg_calls, complex_):
    # the SVD groups operands by shape and field, not by strides: a C-ordered b and a
    # Fortran-ordered c of one shape are one stack of two slices, split over two threads
    rng = np.random.default_rng(3)
    a, t, s = outer_instance_at_angles(rng, N, N, N // 2, complex_)
    b = np.ascontiguousarray(t.basis @ families.random_matrix(rng, N // 2, N, complex_))
    c = np.asfortranarray(families.random_matrix(rng, N, N // 2, complex_) @ complement_rows(s))
    linalg_calls.clear()
    (cert,) = bc_inverse_stack([(a, b, c)])
    assert isinstance(cert, gi.InverseCertificate)
    assert [shape for name, shape in linalg_calls if shape[-2:] == (N, N)] == [(1, N, N)]
    assert [shape for name, shape in linalg_calls.worker if shape[-2:] == (N, N)] == [(1, N, N)]


@pytest.mark.parametrize("complex_", [False, True])
def test_inverse_along_counts(linalg_calls, complex_):
    # R(d), N(d) and ||d|| come off one full SVD of d, one slice, whether d comes as an array
    # or as nested lists; the rest is the outer construction
    rng = np.random.default_rng(11)
    a, t, s = outer_instance_at_angles(rng, N, N, N // 2, complex_)
    d = t.basis @ families.random_conditioned(rng, N // 2, complex_) @ complement_rows(s)
    for operand in (d, d.tolist()):
        linalg_calls.clear()
        gi.inverse_along(a, operand)
        counts = _counts(linalg_calls)
        assert counts["svd"] <= 2 and counts["qr"] == 0 and counts["inv"] <= 1
        assert counts["solve"] == 0 and counts["lstsq"] == 0
        assert [shape for name, shape in linalg_calls if shape[-2:] == (N, N)] == [(1, N, N)]


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
def test_perturbed_bc_inverse_counts(linalg_calls, complex_):
    # ||x|| and ||a|| come off the certificate; the SVDs are ||e||, the first read
    # of ||a||, the three discrepancy norms as one stack and the recomputation's one; the
    # recomputation's H is the complement the certificate's N(c) carries
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
    assert counts["svd"] <= 4 and counts["qr"] == 0
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
def test_clause_record_costs_two_svds_on_first_read(linalg_calls, complex_):
    # the construction decides both clauses off its core; restricted_condition and
    # complement_margin are taken together, on the first read of either, and kept; H is the
    # complement S keeps: the construction's QR of outer_prescribed's S, bott_duffin's N(q)'s own
    rng = np.random.default_rng(16)
    a, t, s = outer_instance_at_angles(rng, N, N, N // 2, complex_)
    h = complement_rows(s)
    p = gi.ObliqueProjector.from_matrix(t.basis @ t.basis.conj().T)
    q = gi.ObliqueProjector.from_matrix(h.conj().T @ h)
    for first, second in (("restricted_condition", "complement_margin"),
                          ("complement_margin", "restricted_condition")):
        for cert in (gi.outer_prescribed(a, t, s), gi.bott_duffin(a, p, q)):
            linalg_calls.clear()
            getattr(cert, first)
            assert _counts(linalg_calls) == {"svd": 2, "qr": 0, "inv": 0, "solve": 0, "lstsq": 0}
            linalg_calls.clear()
            getattr(cert, second), getattr(cert, first), cert.operator_norm
            assert linalg_calls == [("svd", (N, N))]  # operator_norm's own, kept apart
    cert = gi.moore_penrose(a)
    linalg_calls.clear()
    cert.restricted_condition, cert.complement_margin, cert.operator_norm
    assert linalg_calls == []


@pytest.mark.parametrize("complex_", [False, True])
def test_naming_a_refused_clause_adds_no_factorization(linalg_calls, complex_):
    # a refusal is decided off the core and named by the clause checks: a T-killing a takes the
    # core and A F (2 SVDs), no ||a|| and no complement SVD; a(T) meeting S takes the core, A F
    # and [a(T) | S] (3 SVDs), each a one-slice stack with vectors, and no QR on a read S
    a, t, s = outer_instance_at_angles(np.random.default_rng(2), N, N, N // 2, complex_)
    t0 = t.basis[:, :1]
    gi.outer_prescribed(a, t, s)  # S keeps its complement from here on
    linalg_calls.clear()
    with pytest.raises(gi.ExistenceError, match="restriction not injective"):
        gi.outer_prescribed(a - (a @ t0) @ t0.conj().T, t, s)
    assert linalg_calls == [("svd", (1, N // 2, N // 2)), ("svd", (1, N, N // 2))]
    rng = np.random.default_rng(22)
    t, s = (families.random_subspace(rng, N, N // 2, complex_) for _ in range(2))
    t1, s1 = t.basis[:, :1], s.basis[:, :1]
    gi.outer_prescribed(np.eye(N), t, s)
    linalg_calls.clear()
    with pytest.raises(gi.ExistenceError, match="complement fails"):
        gi.outer_prescribed(np.eye(N) + (s1 - t1) @ t1.conj().T, t, s)
    assert linalg_calls == [("svd", (1, N // 2, N // 2)), ("svd", (1, N, N // 2)),
                            ("svd", (1, N // 2, N // 2))]


def _qr_calls(calls) -> list:
    return [shape for name, shape in calls if name == "qr"]


@pytest.mark.parametrize("complex_", [False, True])
def test_a_caller_built_null_space_is_factored_once(linalg_calls, complex_):
    # the first construction takes one complete QR of S and S keeps its complement: a second
    # construction with the same S takes none, and its certificate is bitwise the first one's
    # and the one from a fresh copy of S
    a, t, s = outer_instance_at_angles(np.random.default_rng(21), N, N, N // 2, complex_)
    twin = gi.Subspace(N, s.basis.copy())
    linalg_calls.clear()
    first = gi.outer_prescribed(a, t, s)
    assert _qr_calls(linalg_calls) == [(1, N, N // 2)]
    linalg_calls.clear()
    second = gi.outer_prescribed(a, t, s)
    assert _counts(linalg_calls) == {"svd": 1, "qr": 0, "inv": 0, "solve": 0, "lstsq": 0}
    fresh = gi.outer_prescribed(a, t, twin)
    assert replay.digest(second) == replay.digest(first) == replay.digest(fresh)


@pytest.mark.parametrize("complex_", [False, True])
def test_a_refused_complement_and_a_clause_read_share_one_qr(linalg_calls, complex_):
    # a(T) meets S along s_1: the core refuses it and the clause checks name the complement,
    # with the H the construction took. A certificate on the same S then reads its clause
    # records with no QR
    rng = np.random.default_rng(22)
    t, s = (families.random_subspace(rng, N, N // 2, complex_) for _ in range(2))
    t1, s1 = t.basis[:, :1], s.basis[:, :1]
    bad = np.eye(N) + (s1 - t1) @ t1.conj().T  # t_1 to s_1, the rest of T kept
    linalg_calls.clear()
    with pytest.raises(gi.ExistenceError) as refusal:
        gi.outer_prescribed(bad, t, s)
    assert refusal.value.clause == "R(A*T) (+) S != Y"
    cert = gi.outer_prescribed(np.eye(N), t, s)
    assert cert.restricted_condition > 0 and cert.complement_margin > 0
    assert _qr_calls(linalg_calls) == [(1, N, N // 2)]


@pytest.mark.parametrize("complex_", [False, True])
def test_a_stack_sharing_one_null_space_takes_one_qr_slice(linalg_calls, complex_):
    # k problems on one S: one QR slice, in the first group to read it, however many groups
    # (here two layouts of a) the stack has
    rng = np.random.default_rng(23)
    a, t, s = outer_instance_at_angles(rng, N, N, N // 2, complex_)
    ops = [a + 0.01 * families.random_matrix(rng, N, N, complex_) for _ in range(4)]
    ops[1], ops[3] = np.asfortranarray(ops[1]), np.asfortranarray(ops[3])
    linalg_calls.clear()
    certs = outer_prescribed_stack([(op, t, s) for op in ops])
    assert all(isinstance(cert, gi.InverseCertificate) for cert in certs)
    assert _qr_calls(linalg_calls) == [(1, N, N // 2)]


@pytest.mark.parametrize("complex_", [False, True])
def test_a_read_and_an_unread_null_space_share_one_construction(linalg_calls, complex_):
    # S, read by an earlier construction, keeps its complement; a fresh copy keeps none yet and
    # is keyed on the layout its QR will give: one core SVD of two slices, each certificate
    # bitwise its lone call's
    a, t, s = outer_instance_at_angles(np.random.default_rng(25), 8, 8, 4, complex_)
    gi.outer_prescribed(a, t, s)
    fresh = gi.Subspace(8, s.basis.copy())
    linalg_calls.clear()
    certs = outer_prescribed_stack([(a, t, s), (a, t, fresh)])
    assert _svd_calls_and_slices([c for c in linalg_calls if c[0] == "svd"]) == (1, 2)
    assert _qr_calls(linalg_calls) == [(1, 8, 4)]
    lone = [gi.outer_prescribed(a, t, gi.Subspace(8, s.basis.copy())) for _ in range(2)]
    assert [replay.digest(c) for c in certs] == [replay.digest(c) for c in lone]


def test_counted_complement_clauses_take_no_qr(linalg_calls):
    # dim T = 0 and dim T + dim S != m are decided by counting: S's complement is never read
    rng = np.random.default_rng(24)
    a = families.random_matrix(rng, N, N)
    t, s = (families.random_subspace(rng, N, N // 2) for _ in range(2))
    small = families.random_subspace(rng, N, N // 2 - 1)
    trivial, full = gi.trivial_subspace(N), gi.full_subspace(N)
    linalg_calls.clear()
    assert gi.outer_prescribed(a, trivial, full).inverse_norm == 0.0
    for t_, s_ in ((trivial, s), (t, small)):
        with pytest.raises(gi.ExistenceError, match="complement fails"):
            gi.outer_prescribed(a, t_, s_)
    assert _qr_calls(linalg_calls) == []
    assert s._complement is small._complement is full._complement is None


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
    # per index only bc_inverse's own factorizations (<= 2 SVD); every
    # diagnostic norm and subspace is one batched call per quantity
    calls = {}
    for count in (10, 40):
        limit, seq, tol = _additive_sequence(complex_, count)
        linalg_calls.clear()
        report = gi.sequence_report(limit, seq, tol)
        calls[count] = len(linalg_calls)
        assert not report.failed_indices
    assert calls[40] - calls[10] <= 30 * 2


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
    # the stacked construction (2 SVD: b and c as one stack, then the core), the limit's
    # ||a|| for the error scale, the inverse and two product errors (one SVD each), R(x_n)
    # and N(x_n) (one full SVD), and four deviations readings (R(x_n), N(x_n), T_n and S_n;
    # one SVD each: each pair is of equal dimension)
    limit, seq, tol = _additive_sequence(complex_, 10)
    linalg_calls.clear()
    assert not gi.sequence_report(limit, seq, tol).failed_indices
    counts = _counts(linalg_calls)
    assert counts["svd"] <= 9
    assert counts["qr"] == counts["inv"] == counts["solve"] == counts["lstsq"] == 0


@pytest.fixture
def factored(monkeypatch):
    """Copies of the operands (stacks included) of every numpy.linalg.svd call that computes
    singular vectors: the factorizations that give subspaces, not only norms."""
    operands = []
    original = np.linalg.svd

    def counted(x, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            operands.append(np.array(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return operands


def _slices_of(operands, matrices) -> int:
    """The number of slices of the factored operands equal to one of ``matrices``."""
    return sum(any(np.array_equal(m, x) for x in matrices)
               for op in operands for m in op.reshape(-1, *op.shape[-2:]))


@pytest.mark.parametrize("complex_", [False, True])
def test_sequence_report_factors_each_distinct_operand_once(factored, complex_):
    # an additive family passes the limit's b and c objects to every index: they are factored
    # as two slices, not one b and one c per problem (22 slices for 11 problems). A rank-drop
    # family is (a_n, a_n, a_n): each index's one operand is one slice, shared by R(b) and N(c)
    limit, seq, tol = _additive_sequence(complex_, 10)
    factored.clear()
    assert not gi.sequence_report(limit, seq, tol).failed_indices
    assert _slices_of(factored, limit[1:]) == 2
    limit, seq = families.rankdrop_family(np.random.default_rng(18), 20, 10, 10, complex_)
    factored.clear()
    report = gi.sequence_report(limit, seq, tol)
    assert not report.failed_indices and report.verdicts["gap_inverse"] is False
    assert _slices_of(factored, [limit[0]] + [p[0] for p in seq]) == 11


@pytest.mark.parametrize("complex_", [False, True])
def test_a_shared_nested_list_operand_is_factored_once_per_stack(factored, complex_):
    # each distinct input object goes through as_matrix once per stack, so one b and one c given
    # as nested lists to three problems are two factored slices, not one b and one c per problem
    rng = np.random.default_rng(19)
    a, t, s = outer_instance_at_angles(rng, 8, 8, 4, complex_)
    b = t.basis @ families.random_matrix(rng, 4, 8, complex_)
    c = families.random_matrix(rng, 8, 4, complex_) @ complement_rows(s)
    shared_b, shared_c = b.tolist(), c.tolist()
    factored.clear()
    certs = bc_inverse_stack([(a + k * 1e-3 * np.eye(8), shared_b, shared_c) for k in range(3)])
    assert all(isinstance(cert, gi.InverseCertificate) for cert in certs)
    assert _slices_of(factored, [b, c]) == 2


@pytest.mark.parametrize("complex_", [False, True])
def test_deviations_measure_a_shared_basis_once(linalg_calls, complex_):
    # the one measured side of the deviations (of equal dimensions) is one norm of a one-slice
    # stack, however often the basis repeats; each row is the single basis's
    rng = np.random.default_rng(19)
    m, n = (families.random_subspace(rng, 20, 10, complex_).basis for _ in range(2))
    one = subspace.deviations([m], n)
    linalg_calls.clear()
    devs = subspace.deviations([m] * 10, n)
    assert linalg_calls == [("svd", (1, 20, 10))]
    assert devs.tobytes() == np.repeat(one, 10, axis=0).tobytes()


@pytest.mark.parametrize("complex_", [False, True])
def test_rank_drop_reports_measure_one_side_of_each_unequal_gap(linalg_calls, complex_):
    # each index's subspaces differ in dimension from the limit's: one side is measured, the
    # other counted (14 calls and 124 slices, and 11 and 112, measuring both)
    limit, seq = families.rankdrop_family(np.random.default_rng(18), 20, 10, 10, complex_)
    linalg_calls.clear()
    assert not gi.sequence_report(limit, seq, gi.ToleranceConfig(residual_tol=1e-2)).failed_indices
    assert _svd_calls_and_slices(linalg_calls) == (8, 84)
    a, seq = families.mp_rankdrop_sequence(np.random.default_rng(7), 8, 4, 10, complex_)
    linalg_calls.clear()
    assert not gi.mp_continuity_report(a, seq).failed_indices
    assert _svd_calls_and_slices(linalg_calls) == (5, 72)


@pytest.mark.parametrize("complex_", [False, True])
def test_equal_dimension_reports_measure_one_side_of_each_gap(linalg_calls, complex_):
    # each index's subspaces match the limit's in dimension: one side is measured and written
    # to both (15 calls and 99 slices, 15 and 155, and 13 and 132, measuring both)
    limit, seq, tol = _additive_sequence(complex_, 10)
    rotating = families.rotating_family(*limit, 10, np.random.default_rng(5), tol)
    for family, want in ((seq, (9, 77)), (rotating, (9, 115))):
        linalg_calls.clear()
        assert not gi.sequence_report(limit, family, tol).failed_indices
        assert _svd_calls_and_slices(linalg_calls) == want
    a, seq = families.mp_convergent_sequence(np.random.default_rng(6), 8, 4, 10, complex_)
    linalg_calls.clear()
    assert not gi.mp_continuity_report(a, seq).failed_indices
    assert _svd_calls_and_slices(linalg_calls) == (7, 92)


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
    assert counts["svd"] <= 7
    assert counts["qr"] == counts["inv"] == counts["solve"] == counts["lstsq"] == 0


@pytest.mark.parametrize("complex_", [False, True])
def test_projector_from_matrix_takes_one_svd(linalg_calls, complex_):
    # the projector onto T along S is the outer construction for a = I: the core SVD and
    # the complete QR of the caller-built S. Wrapped, ||p||, R(p) and N(p) come off one full
    # SVD; the idempotency defect of an exact projector is decided by its Frobenius norm
    rng = np.random.default_rng(8)
    t = families.random_subspace(rng, N, N // 2, complex_)
    s = families.random_subspace(rng, N, N - N // 2, complex_)
    linalg_calls.clear()
    p = projector(t, s)
    assert _counts(linalg_calls) == {"svd": 1, "qr": 1, "inv": 0, "solve": 0, "lstsq": 0}
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
@pytest.mark.parametrize("kind, svd, qr", [("bc", 3, 0), ("mp", 2, 0), ("oip", 3, 1)])
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


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("kind, solves", [("bc", 4), ("mp", 2), ("oip", 2)])
def test_finite_difference_check_of_family_curves_solves_once_per_generator(
        linalg_calls, kind, solves, complex_):
    # each Cayley factor of a curve is one batched solve over the whole sweep, so a longer
    # sweep adds no numpy.linalg call, solve included
    rng = np.random.default_rng(20)
    curves = {
        "bc": lambda: families.bc_curves(rng, 6, 3, complex_),
        "mp": lambda: [families.mp_curve(rng, 6, 5, 3, complex_)],
        "oip": lambda: families.oip_curves(rng, 6, 5, 3, complex_),
    }[kind]()
    counts = {}
    for steps in (4, 8):
        tol = gi.ToleranceConfig(fd_step_sweep=tuple(10.0 ** -(2 + k / 2) for k in range(steps)))
        linalg_calls.clear()
        gi.finite_difference_check(curves, 0.0, tol, kind)
        counts[steps] = _counts(linalg_calls)
    assert counts[4] == counts[8]
    assert counts[4]["solve"] <= solves


def test_per_call_python_frames_stay_within_their_bounds():
    # counted on CPython 3.11, where each comprehension and generator resumption is a frame;
    # a later CPython, which inlines comprehensions, only lowers these counts
    rng = np.random.default_rng(0)
    a, b, c = families.random_solvable_triple(rng, 6, 3)
    assert python_frames(lambda: gi.bc_inverse(a, b, c)) <= 68
    assert python_frames(lambda: gi.bc_inverse(a, np.zeros((6, 6)), np.zeros((6, 6)))) <= 51
    assert python_frames(lambda: gi.moore_penrose(a)) <= 46
    a8, t, s = outer_instance_at_angles(rng, 8, 8, 4)
    gi.outer_prescribed(a8, t, s)  # S keeps its complement from here on
    assert python_frames(lambda: gi.outer_prescribed(a8, t, s)) <= 43


@pytest.mark.parametrize("family, per_problem", [("additive", 12), ("rotating", 17)])
def test_each_problem_added_to_a_stack_runs_few_python_frames(family, per_problem):
    rng = np.random.default_rng(0)
    a, b, c = families.random_solvable_triple(rng, 6, 3)
    problems = getattr(families, f"{family}_family")(a, b, c, 50, rng)
    frames = [python_frames(lambda k=k: bc_inverse_stack(problems[:k])) for k in (10, 50)]
    assert frames[1] - frames[0] <= 40 * per_problem
