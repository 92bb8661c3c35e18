import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import diagnostics, families
from geninv.errors import CertificateError, ExistenceError, InputError

from conftest import (
    _mp_gap_terms_oracle,
    mp_continuity_oracle,
    mp_range_projector,
    sequence_report_oracle,
    verdicts_oracle,
)

SEQ_TOL = gi.ToleranceConfig(residual_tol=1e-2)


def verdict_groups(verdicts):
    return {
        prefix: {k: v for k, v in verdicts.items() if k.startswith(prefix)}
        for prefix in ("gap_", "mp_", "oip_")
    }


def test_constant_sequence_all_true():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 1.0, 0.0])
    report = diagnostics.sequence_report((a, b, b), [(a, b, b)] * 5, SEQ_TOL)
    assert set(report.verdicts.values()) == {True}
    assert not report.alarm
    assert max(report.inverse_error) == 0.0
    assert max(report.range_gap) == 0.0


def test_additive_diagonal_sequence():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([1.0, 1.0, 0.0])
    seq = [(a + np.eye(3) / n, b, b) for n in range(1, 121)]
    report = diagnostics.sequence_report((a, b, b), seq, SEQ_TOL)
    assert set(report.verdicts.values()) == {True}
    # inverse error decays like 1/n
    ratio = report.inverse_error[9] / report.inverse_error[99]
    assert ratio == pytest.approx(10.0, rel=0.2)


def test_rotating_range_sequence():
    a = np.eye(2)
    b = np.diag([1.0, 0.0])
    c = np.diag([1.0, 0.0])  # null space span(e2), complementary to every rotated range
    seq = []
    for n in range(1, 101):
        t = 1.0 / n
        bn = np.array([[np.cos(t), 0.0], [np.sin(t), 0.0]])
        seq.append((a, bn, c))
    report = diagnostics.sequence_report((a, b, c), seq, SEQ_TOL)
    for n in (1, 10, 100):
        assert report.range_gap[n - 1] == pytest.approx(np.sin(1.0 / n), abs=1e-12)
    assert set(report.verdicts.values()) == {True}
    assert not report.alarm


def test_sequence_report_rejects_zero_limit():
    z = np.zeros((2, 2))
    with pytest.raises(InputError, match="zero_limit_check"):
        diagnostics.sequence_report((np.eye(2), z, z), [(np.eye(2), z, z)], SEQ_TOL)


def test_sequence_report_raises_the_limits_existence_error():
    # a = diag(0, 1) vanishes on R(b) = span(e1)
    a, b = np.diag([0.0, 1.0]), np.diag([1.0, 0.0])
    with pytest.raises(ExistenceError, match="restriction not injective") as info:
        diagnostics.sequence_report((a, b, b), [(np.eye(2), b, b)] * 3, SEQ_TOL)
    assert info.value.clause == "restriction not injective"


def test_mp_continuity_report_rejects_a_zero_limit():
    with pytest.raises(InputError, match="limit element must be nonzero"):
        diagnostics.mp_continuity_report(np.zeros((3, 3)), [np.eye(3)] * 2, SEQ_TOL)


def test_sequence_report_excludes_failing_indices():
    a = np.diag([1.0, 2.0])
    b = np.eye(2)
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    seq = [(a, b, b), (nilpotent, nilpotent, nilpotent), (a, b, b)]
    report = diagnostics.sequence_report((a, b, b), seq, SEQ_TOL)
    assert report.failed_indices == (2,)
    assert np.isnan(report.inverse_error[1])
    assert set(report.verdicts.values()) == {True}


def test_family_verdicts_are_unanimous(rng):
    for complex_ in (False, True):
        a, b, c = families.random_solvable_triple(rng, 6, 3, complex_)
        for maker in (families.additive_family, families.rotating_family):
            seq = maker(a, b, c, 80, rng, SEQ_TOL)
            report = diagnostics.sequence_report((a, b, c), seq, SEQ_TOL)
            groups = verdict_groups(report.verdicts)
            for prefix, group in groups.items():
                assert set(group.values()) == {True}, (maker.__name__, prefix, group)
            assert not report.alarm
    limit, seq = families.rankdrop_family(rng, 5, 3, 80)
    report = diagnostics.sequence_report(limit, seq, SEQ_TOL)
    for prefix, group in verdict_groups(report.verdicts).items():
        assert set(group.values()) == {False}, (prefix, group)
    assert not report.alarm


def test_mp_gap_terms_examples():
    # the range terms of b b^+ against bn bn^+ are (delta(R(bn), R(b)), delta(R(b), R(bn)))
    b = np.diag([1.0, 0.0])
    range_terms = gi.gap(gi.column_space(b), gi.column_space(b))[:2]
    assert max(range_terms) <= 1e-12
    range_terms = gi.gap(gi.column_space(np.diag([0.0, 1.0])), gi.column_space(b))[:2]
    assert range_terms == pytest.approx((1.0, 1.0))
    theta = 0.3
    bn = np.array([[np.cos(theta), 0.0], [np.sin(theta), 0.0]])
    *range_terms, geometric = gi.gap(gi.column_space(bn), gi.column_space(b))
    assert max(range_terms) == pytest.approx(np.sin(theta), abs=1e-12)
    assert max(range_terms) == pytest.approx(geometric, abs=1e-12)


def test_mp_gap_terms_match_geometry_and_adjoint_symmetry(rng):
    for _ in range(20):
        n = int(rng.integers(2, 8))
        r = int(rng.integers(1, n))
        b = families.random_rank_matrix(rng, n, n, r, complex_=True)
        k1 = families.random_skew(rng, n, complex_=True)
        k2 = families.random_skew(rng, n, complex_=True)
        bn = families.cayley(k1, 0.15) @ b @ families.cayley(k2, 0.15)
        # the range terms are the one-sided gaps; their adjoints, the cokernel terms, swap them
        geometric = gi.gap(gi.column_space(bn), gi.column_space(b))
        range_terms, cokernel_terms = geometric[:2], geometric[1::-1]
        # the gap is the distance of the certified projectors, also from the whole space
        p, pn = mp_range_projector(b), mp_range_projector(bn)
        assert geometric.gap == pytest.approx(gi.spectral_norm(pn - p), abs=1e-9)
        whole = gi.gap(gi.column_space(bn), gi.full_subspace(n)).gap
        assert whole == pytest.approx(gi.spectral_norm(pn - np.eye(n)), abs=1e-9)
        # equal ranks force the two range terms to agree
        assert range_terms[0] == pytest.approx(range_terms[1], abs=1e-10)
        # the projector products themselves, from certified Moore-Penrose inverses: taking
        # adjoints swaps the range and cokernel products without changing norms
        oracle_range, oracle_cokernel = _mp_gap_terms_oracle(b, bn, gi.DEFAULT_TOL)
        assert oracle_range == pytest.approx(oracle_cokernel[::-1], abs=1e-10)
        assert range_terms == pytest.approx(oracle_range, abs=1e-10)
        assert cokernel_terms == pytest.approx(oracle_cokernel, abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_mp_gap_terms_are_the_projector_products(data, n, complex_, seed):
    # independent ranks, so unequal and trivial spaces too: delta(M, 0) = 1, delta(0, N) = 0
    r, rn = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    rng = np.random.default_rng(seed)
    b = families.random_rank_matrix(rng, n, n, r, complex_)
    bn = families.random_rank_matrix(rng, n, n, rn, complex_)
    range_terms = gi.gap(gi.column_space(bn), gi.column_space(b))[:2]
    cokernel_terms = range_terms[::-1]
    oracle_range, oracle_cokernel = _mp_gap_terms_oracle(b, bn, gi.DEFAULT_TOL)
    assert range_terms == pytest.approx(oracle_range, abs=1e-10)
    assert cokernel_terms == pytest.approx(oracle_cokernel, abs=1e-10)


def test_zero_limit_check_examples():
    z = np.zeros((2, 2))

    def zero_cert():
        return gi.bc_inverse(np.eye(2), z, z)

    assert diagnostics.zero_limit_check([zero_cert()] * 4) == (True, 1)

    certs = []
    for n in range(1, 7):
        a = np.diag([n * 1.0, 1.0])
        b = np.diag([1.0, 0.0])
        certs.append(gi.bc_inverse(a, b, b))  # inverse diag(1/n, 0), never zero
    assert diagnostics.zero_limit_check(certs) == (False, None)

    mixed = certs[:4] + [zero_cert()] * 3
    assert diagnostics.zero_limit_check(mixed) == (True, 5)


def test_zero_limit_check_tells_tiny_inverses_from_zero():
    # with a scaled by 1e12 every inverse has norm near 1e-12, small but not zero:
    # the sequence never turns exactly zero, whatever the residual tolerance
    rng = np.random.default_rng(13)
    certs = []
    for _ in range(6):
        a, b, c = families.random_solvable_triple(rng, 4, 2)
        certs.append(gi.bc_inverse(1e12 * a, b, c))
    assert all(0.0 < gi.spectral_norm(c.inverse) < 1e-10 for c in certs)
    assert diagnostics.zero_limit_check(certs) == (False, None)


def test_mp_continuity_constant_sequence():
    a = np.diag([2.0, 0.0])
    report = diagnostics.mp_continuity_report(a, [a] * 6, SEQ_TOL)
    assert set(report.verdicts.values()) == {True}
    assert report.remark_gap_identity_mismatch <= 1e-12


def test_mp_continuity_records_a_refused_index_as_failed():
    # index 1's certificate is refused at this budget (aba over it); the report goes on
    a, seq = families.mp_convergent_sequence(np.random.default_rng(6), 8, 4, 10)
    tol = gi.ToleranceConfig(residual_tol=10**-15.3)
    with pytest.raises(CertificateError, match="residual aba"):
        gi.moore_penrose(seq[0], tol)
    report = diagnostics.mp_continuity_report(a, seq, tol)
    assert report.failed_indices == (1,)
    assert np.isnan(report.inverse_error[0]) and not np.isnan(report.inverse_error[1])


def test_mp_continuity_raises_a_refused_limit():
    a, seq = families.mp_convergent_sequence(np.random.default_rng(6), 8, 4, 10)
    tol = gi.ToleranceConfig(residual_tol=10**-15.3)
    with pytest.raises(CertificateError):
        diagnostics.mp_continuity_report(seq[0], [a, *seq[1:]], tol)


def test_mp_continuity_rank_drop_discontinuity():
    a = np.diag([1.0, 0.0])
    seq = [np.diag([1.0, 1.0 / n]) for n in range(1, 81)]
    report = diagnostics.mp_continuity_report(a, seq, SEQ_TOL)
    assert set(report.verdicts.values()) == {False}
    assert not report.alarm
    # the pseudoinverses diverge
    assert report.inverse_error[-1] > report.inverse_error[0]


def test_mp_continuity_rank_preserving_limit():
    a = np.diag([1.0, 0.0])
    seq = [np.diag([1.0 + 1.0 / n, 0.0]) for n in range(1, 81)]
    report = diagnostics.mp_continuity_report(a, seq, SEQ_TOL)
    assert set(report.verdicts.values()) == {True}


def test_mp_continuity_gap_identities(rng):
    a, seq = families.mp_convergent_sequence(rng, 6, 3, 40, complex_=True)
    report = diagnostics.mp_continuity_report(a, seq, SEQ_TOL)
    assert report.remark_gap_identity_mismatch <= 1e-9
    assert set(report.verdicts.values()) == {True}

    a, seq = families.mp_rankdrop_sequence(rng, 5, 2, 40)
    report = diagnostics.mp_continuity_report(a, seq, SEQ_TOL)
    assert set(report.verdicts.values()) == {False}
    assert report.remark_gap_identity_mismatch <= 1e-9


def test_mp_verdicts_coincide_with_pinv_convergence(rng):
    # projector verdicts match direct pseudoinverse convergence on both branches
    a, seq = families.mp_convergent_sequence(rng, 5, 3, 60)
    report = diagnostics.mp_continuity_report(a, seq, SEQ_TOL)
    adag = gi.moore_penrose(a).inverse
    pinv_errors = [gi.spectral_norm(gi.moore_penrose(an).inverse - adag) for an in seq]
    converged = diagnostics.converged_by_final_index(
        pinv_errors, SEQ_TOL, max(1.0, gi.spectral_norm(adag))
    )
    assert report.verdicts["mp_projector_products"] == converged

    a, seq = families.mp_rankdrop_sequence(rng, 5, 3, 60)
    report = diagnostics.mp_continuity_report(a, seq, SEQ_TOL)
    adag = gi.moore_penrose(a).inverse
    pinv_errors = [gi.spectral_norm(gi.moore_penrose(an).inverse - adag) for an in seq]
    converged = diagnostics.converged_by_final_index(
        pinv_errors, SEQ_TOL, max(1.0, gi.spectral_norm(adag))
    )
    assert report.verdicts["mp_projector_products"] == converged is False


def test_orthogonal_projector_verdicts_match_gap_verdicts(rng):
    # thresholding orthogonal-projector distances agrees with the gap verdicts
    a, b, c = families.random_solvable_triple(rng, 5, 2)
    seq = families.rotating_family(a, b, c, 60, rng, SEQ_TOL)
    report = diagnostics.sequence_report((a, b, c), seq, SEQ_TOL)
    proj_range = diagnostics.converged_by_final_index(
        report.range_projector_error, SEQ_TOL
    )
    proj_null = diagnostics.converged_by_final_index(report.null_projector_error, SEQ_TOL)
    assert (proj_range and proj_null) == report.verdicts["gap_subspace_gaps"]

    limit, seq = families.rankdrop_family(rng, 5, 2, 60)
    report = diagnostics.sequence_report(limit, seq, SEQ_TOL)
    proj_range = diagnostics.converged_by_final_index(
        report.range_projector_error, SEQ_TOL
    )
    proj_null = diagnostics.converged_by_final_index(report.null_projector_error, SEQ_TOL)
    assert (proj_range and proj_null) == report.verdicts["gap_subspace_gaps"] == False


def test_converged_by_final_index_rules():
    tol = gi.ToleranceConfig(residual_tol=1e-2)
    decaying = [1.0 / n for n in range(1, 101)]
    assert diagnostics.converged_by_final_index(decaying, tol)
    assert not diagnostics.converged_by_final_index([1.0] * 100, tol)
    growing = [n / 100.0 for n in range(1, 101)]
    assert not diagnostics.converged_by_final_index(growing, tol)
    assert diagnostics.converged_by_final_index([0.0] * 10, tol)
    assert not diagnostics.converged_by_final_index([], tol)


def _assert_matches_oracle(report, oracle):
    assert report.verdicts == oracle.verdicts
    assert report.alarm == oracle.alarm
    assert report.failed_indices == oracle.failed_indices
    for name in diagnostics.RECORD_NAMES:
        np.testing.assert_allclose(
            getattr(report, name), getattr(oracle, name), rtol=0, atol=1e-10, err_msg=name
        )


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", [3, 6, 8])
@pytest.mark.parametrize("family", ["additive", "rotating", "rankdrop", "failing"])
def test_sequence_report_matches_per_index_oracle(family, n, complex_):
    rng = np.random.default_rng(10 * n + complex_)
    if family == "rankdrop":
        limit, seq = families.rankdrop_family(rng, n, n // 2, 15, complex_)
    else:
        limit = families.random_solvable_triple(rng, n, n // 2, complex_)
        maker = families.rotating_family if family == "rotating" else families.additive_family
        seq = maker(*limit, 15, rng, SEQ_TOL)
    if family == "failing":
        a, b, c = limit
        seq[4] = (a, b, np.zeros_like(c))  # N(0) is the whole space: no complement
        seq[9] = (np.zeros_like(a), b, c)  # zero is not injective on R(b)
    report = diagnostics.sequence_report(limit, seq, SEQ_TOL)
    assert report.failed_indices == ((5, 10) if family == "failing" else ())
    _assert_matches_oracle(report, sequence_report_oracle(limit, seq, SEQ_TOL))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", [3, 6, 8])
@pytest.mark.parametrize("family", ["convergent", "rankdrop"])
def test_mp_continuity_report_matches_per_index_oracle(family, n, complex_):
    rng = np.random.default_rng(10 * n + complex_)
    a, seq = getattr(families, f"mp_{family}_sequence")(rng, n, n // 2, 15, complex_)
    report = diagnostics.mp_continuity_report(a, seq, SEQ_TOL)
    oracle = mp_continuity_oracle(a, seq, SEQ_TOL)
    _assert_matches_oracle(report, oracle)
    assert report.remark_gap_identity_mismatch <= 1e-9
    assert report.remark_gap_identity_mismatch == pytest.approx(
        oracle.remark_gap_identity_mismatch, abs=1e-10
    )


def test_reports_on_empty_and_all_failing_sequences():
    a, b = np.diag([1.0, 2.0]), np.eye(2)
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    for seq in ([], [(nilpotent, nilpotent, nilpotent)] * 3):
        report = diagnostics.sequence_report((a, b, b), seq, SEQ_TOL)
        assert report.failed_indices == tuple(range(1, len(seq) + 1))
        assert set(report.verdicts.values()) == {False}
        _assert_matches_oracle(report, sequence_report_oracle((a, b, b), seq, SEQ_TOL))
    report = diagnostics.mp_continuity_report(a, [], SEQ_TOL)
    assert report.inverse_error == () and report.remark_gap_identity_mismatch == 0.0


def test_mp_continuity_report_rejects_rectangular_limit():
    with pytest.raises(InputError):
        diagnostics.mp_continuity_report(np.ones((2, 3)), [np.ones((2, 3))], SEQ_TOL)


def test_sequence_report_names_an_index_of_another_shape():
    # a 5x5 index among 6x6 ones is refused up front, by its 1-based index
    rng = np.random.default_rng(14)
    limit = families.random_solvable_triple(rng, 6, 3)
    odd = families.random_solvable_triple(rng, 5, 3)
    with pytest.raises(InputError, match=r"index 3 has shape \(5, 5\), the limit \(6, 6\)"):
        diagnostics.sequence_report(limit, [limit, limit, odd, limit], SEQ_TOL)


def test_mp_continuity_report_names_an_index_of_another_shape():
    a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(InputError, match=r"index 2 has shape \(5, 5\), the limit \(6, 6\)"):
        diagnostics.mp_continuity_report(a, [a, a[:5, :5], a], SEQ_TOL)


def test_characterization_table_matches_the_hand_written_rules_exhaustively():
    # Every assignment of converging / not converging to the 13 records. A scaled
    # error record converges at 5e-8 only through err_scale; an unscaled one fails
    # at 5e-8, so a record scaled by mistake shows. A failing pair fails in one
    # component only, alternating which, so "both components" is what is tested.
    tol, err_scale = gi.DEFAULT_TOL, 1e3
    scaled = {"inverse_error", "left_product_error", "right_product_error"}
    names = diagnostics.RECORD_NAMES
    assert len(names) == 13
    alarms = 0
    for mask in range(2 ** len(names)):
        records = {}
        for bit, name in enumerate(names):
            converges = bool(mask >> bit & 1)
            if name.endswith("_terms"):
                failing = (5e-8, 0.0) if mask >> (bit + 1) & 1 else (0.0, 5e-8)
                records[name] = ((0.0, 0.0),) if converges else (failing,)
            elif name in scaled:
                records[name] = (5e-8,) if converges else (1.0,)
            else:
                records[name] = (0.0,) if converges else (5e-8,)
        got = diagnostics._verdicts(records, tol, err_scale)
        assert list(got.items()) == list(verdicts_oracle(records, tol, err_scale).items())
        split = any(len(set(group.values())) == 2 for group in verdict_groups(got).values())
        alarms += split
        assert diagnostics._alarm(got) == split
    assert 0 < alarms < 2 ** len(names)


def test_record_names_are_the_records_the_characterizations_assert():
    names = diagnostics.RECORD_NAMES
    assert len(names) == 13
    asserted = diagnostics.CHARACTERIZATIONS.values()
    assert set(names) == {name for pair in asserted for name in pair}
    summaries = {f.name for f in dataclasses.fields(diagnostics.SequenceDiagnostics)} - set(names)
    assert summaries == {
        "records", "failed_indices", "verdicts", "alarm", "remark_gap_identity_mismatch"
    }


def test_characterization_table_on_an_empty_sequence():
    # zip(*()) is empty, so a pair record of length 0 must not pass as converged
    records = {name: () for name in diagnostics.RECORD_NAMES}
    got = diagnostics._verdicts(records, gi.DEFAULT_TOL, 1.0)
    assert got == verdicts_oracle(records, gi.DEFAULT_TOL, 1.0)
    assert not any(got.values())



def test_records_are_the_one_store_of_the_per_index_values():
    fields = [f.name for f in dataclasses.fields(diagnostics.SequenceDiagnostics)]
    assert fields == ["records", "failed_indices", "verdicts", "alarm",
                      "remark_gap_identity_mismatch"]
    rng = np.random.default_rng(21)
    limit = families.random_solvable_triple(rng, 4, 2, True)
    seq = families.additive_family(*limit, 6, rng, SEQ_TOL)
    seq[2] = (limit[0], limit[1], np.zeros_like(limit[2]))  # a failed index
    a, mp_seq = families.mp_rankdrop_sequence(rng, 4, 2, 6)
    reports = [diagnostics.sequence_report(limit, seq, SEQ_TOL),
               diagnostics.mp_continuity_report(a, mp_seq, SEQ_TOL)]
    assert reports[0].failed_indices == (3,)
    for report in reports:
        assert list(report.records) == list(diagnostics.RECORD_NAMES)
        for name in diagnostics.RECORD_NAMES:
            assert getattr(report, name) is report.records[name]
            assert len(report.records[name]) == 6
            with pytest.raises(AttributeError):
                setattr(report, name, ())


def test_alarm_groups_verdicts_by_the_family_of_their_key():
    assert not diagnostics._alarm({})
    assert not diagnostics._alarm({"mp_inverse": False, "gap_inverse": True, "oip_inverse": True})
    assert diagnostics._alarm({"mp_inverse": False, "mp_range_null_proj": True})
    assert diagnostics._alarm({"oip_inverse": True, "oip_subspace_gaps": False,
                               "gap_inverse": True})


def test_an_overflowing_index_is_recorded_as_failed():
    # index 2's core H A F overflows though every entry of a is finite: that index alone is
    # refused and recorded as failed; the report reads the others
    a = np.full((4, 4), 1e308) - np.diag(np.full(4, 0.5e308))
    eye, ones = np.eye(4), np.ones((4, 4))
    sequence = [(1.01 * eye, ones, ones), (a, ones, ones), (1.001 * eye, ones, ones)]
    report = gi.sequence_report((eye, ones, ones), sequence)
    assert report.failed_indices == (2,)
    errors = report.records["inverse_error"]
    assert np.isnan(errors[1]) and np.isfinite([errors[0], errors[2]]).all()
