"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single pass line when it succeeds; a failed criterion
fails its test. Run with ``pytest tests/test_acceptance.py -v``.
"""

import json

import numpy as np
import pytest

import geninv as gi
from geninv import diagnostics, families
from geninv.cli import main as cli_main
from geninv.errors import ExistenceError

from conftest import (
    _mp_gap_terms_oracle,
    difference_identity_residual,
    left_lift,
    mp_range_projector,
    outer_fullrank_oracle,
    projector,
    right_lift,
    save_matrix,
)

SEQ_TOL = gi.ToleranceConfig(residual_tol=1e-2)


def _passed(name: str):
    print(f"acceptance[{name}]: PASS")


def test_penrose_residuals_bulk():
    # 500 random real/complex matrices, sizes 1..50, including rank-deficient:
    # all four defining residuals within 1e-10 * scale
    rng = np.random.default_rng(101)
    for i in range(500):
        m = int(rng.integers(1, 51))
        n = int(rng.integers(1, 51))
        complex_ = bool(rng.integers(2))
        if rng.integers(2):
            a = rng.standard_normal((m, n))
            if complex_:
                a = a + 1j * rng.standard_normal((m, n))
        else:
            r = int(rng.integers(0, min(m, n) + 1))
            a = families.random_rank_matrix(rng, m, n, r, complex_)
        a = a * 10.0 ** rng.integers(-3, 4)
        cert = gi.moore_penrose(a)
        scale = max(1.0, gi.spectral_norm(a) * gi.spectral_norm(cert.inverse))
        assert max(cert.residuals.values()) <= 1e-10 * scale, f"instance {i}"
    _passed("penrose residuals, 500 instances")


def test_bc_equals_prescribed_outer():
    # 200 random solvable triples: the two construction surfaces agree within
    # 1e-9 and both satisfy the absorption equations within 1e-9
    rng = np.random.default_rng(202)
    for i in range(200):
        n = int(rng.integers(2, 13))
        r = int(rng.integers(1, n + 1))
        complex_ = bool(rng.integers(2))
        a, b, c = families.random_solvable_triple(rng, n, r, complex_)
        x_bc = gi.bc_inverse(a, b, c).inverse
        x_outer = gi.outer_prescribed(a, gi.column_space(b), gi.null_space(c)).inverse
        assert gi.spectral_norm(x_bc - x_outer) <= 1e-9, f"instance {i}"
        oracle = outer_fullrank_oracle(a, gi.column_space(b), gi.null_space(c))
        assert gi.spectral_norm(x_bc - oracle) <= 1e-9 * max(1.0, gi.spectral_norm(oracle))
        for x in (x_bc, x_outer):
            assert gi.spectral_norm(x @ a @ b - b) <= 1e-9
            assert gi.spectral_norm(c @ a @ x - c) <= 1e-9
    _passed("bc-inverse equals prescribed outer inverse, 200 instances")


def test_equal_subspace_invariance_and_along():
    # replacing (b, c) by range/null-space equivalents moves the inverse by
    # <= 1e-9; the inverse along d absorbs d on both sides within 1e-9
    rng = np.random.default_rng(303)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        r = int(rng.integers(1, n + 1))
        complex_ = bool(rng.integers(2))
        a, b, c = families.random_solvable_triple(rng, n, r, complex_)
        f = b @ families.random_conditioned(rng, n, complex_)
        g = families.random_conditioned(rng, n, complex_) @ c
        x1 = gi.bc_inverse(a, b, c).inverse
        x2 = gi.bc_inverse(a, f, g).inverse
        assert gi.spectral_norm(x1 - x2) <= 1e-9
    for _ in range(60):
        n = int(rng.integers(2, 10))
        r = int(rng.integers(1, n + 1))
        complex_ = bool(rng.integers(2))
        a, d, _ = families.random_solvable_triple(rng, n, r, complex_)
        cert = gi.inverse_along(a, d)
        x = cert.inverse
        assert gi.spectral_norm(x @ a @ d - d) <= 1e-9
        assert gi.spectral_norm(d @ a @ x - d) <= 1e-9
        chain = gi.bc_inverse(a, d, d).inverse
        assert np.array_equal(x, chain)
    _passed("equal-subspace invariance and inverse-along absorption")


def test_regular_representation_agreement():
    # left/right multiplication representations on 2x2 and 3x3 algebras:
    # the representation of the inverse matches the prescribed outer inverse
    # of the represented operator within 1e-8, on both sides
    rng = np.random.default_rng(404)
    for k in (2, 3):
        for i in range(12):
            complex_ = bool(rng.integers(2))
            r = int(rng.integers(1, k + 1))
            a, b, c = families.random_solvable_triple(rng, k, r, complex_)
            x = gi.bc_inverse(a, b, c).inverse
            la, lb, lc = (left_lift(m) for m in (a, b, c))
            left = gi.outer_prescribed(la, gi.column_space(lb), gi.null_space(lc)).inverse
            assert gi.spectral_norm(left_lift(x) - left) <= 1e-8, (k, i)
            ra, rb, rc = (right_lift(m) for m in (a, b, c))
            right = gi.outer_prescribed(ra, gi.column_space(rc), gi.null_space(rb)).inverse
            assert gi.spectral_norm(right_lift(x) - right) <= 1e-8, (k, i)
    _passed("regular-representation agreement on 2x2 and 3x3 algebras")


def test_perturbation_formula_and_openness():
    # 200 random instances with ||e|| <= 0.5 / ||x||: the two factorizations
    # agree within 1e-12 * scale, match the recomputed inverse within
    # 1e-8 * scale, and existence never fails inside the ball
    rng = np.random.default_rng(505)
    for i in range(200):
        n = int(rng.integers(2, 11))
        r = int(rng.integers(1, n + 1))
        complex_ = bool(rng.integers(2))
        a, b, c = families.random_solvable_triple(rng, n, r, complex_)
        cert = gi.bc_inverse(a, b, c)
        radius = gi.openness_radius(cert)
        e = families.random_matrix(rng, n, n, complex_) * (0.5 * radius * rng.random())
        report = gi.perturbed_bc_inverse(cert, e)  # raises if existence fails
        scale = max(1.0, gi.spectral_norm(a) * gi.spectral_norm(cert.inverse))
        assert report.factorization_discrepancy <= 1e-12 * scale, f"instance {i}"
        assert report.discrepancy <= 1e-8 * scale, f"instance {i}"
        assert not report.outside_ball
    _passed("perturbation closed form and openness, 200 instances")


def test_error_bound_on_decaying_families():
    # on 1/n families satisfying the smallness premises the measured error
    # stays below the bound at every index
    rng = np.random.default_rng(606)
    checked = 0
    for _ in range(8):
        n = int(rng.integers(3, 8))
        r = int(rng.integers(1, n))
        complex_ = bool(rng.integers(2))
        a, b, c = families.random_solvable_triple(rng, n, r, complex_)
        x = gi.bc_inverse(a, b, c).inverse
        xnorm = gi.spectral_norm(x)
        kappa = gi.spectral_norm(a) * xnorm
        for family in (
            families.additive_family(a, b, c, 50, rng, SEQ_TOL),
            families.rotating_family(a, b, c, 50, rng, SEQ_TOL),
        ):
            for an, bn, cn in family:
                u = gi.gap(gi.null_space(cn), gi.null_space(c)).gap
                v = gi.gap(gi.column_space(bn), gi.column_space(b)).gap
                z = xnorm * gi.spectral_norm(a - an)
                bound = gi.perturbation_bound(kappa, u, v, z, xnorm)
                if bound is None:
                    continue
                xn = gi.bc_inverse(an, bn, cn).inverse
                assert gi.spectral_norm(xn - x) <= bound * (1.0 + 1e-6)
                checked += 1
    assert checked > 400
    _passed(f"quantitative error bound, {checked} applicable indices")


def test_verdict_sets_are_unanimous_across_families():
    # convergent and rotating families: every characterization set votes true;
    # rank-drop families: every set votes false; no split verdicts anywhere
    rng = np.random.default_rng(707)
    for complex_ in (False, True):
        a, b, c = families.random_solvable_triple(rng, 6, 3, complex_)
        for maker in (families.additive_family, families.rotating_family):
            seq = maker(a, b, c, 120, rng, SEQ_TOL)
            report = diagnostics.sequence_report((a, b, c), seq, SEQ_TOL)
            assert set(report.verdicts.values()) == {True}, maker.__name__
            assert not report.alarm
        limit, seq = families.rankdrop_family(rng, 6, 3, 120, complex_)
        report = diagnostics.sequence_report(limit, seq, SEQ_TOL)
        assert set(report.verdicts.values()) == {False}
        assert not report.alarm

        an, seq = families.mp_convergent_sequence(rng, 6, 3, 120, complex_)
        report = diagnostics.mp_continuity_report(an, seq, SEQ_TOL)
        assert set(report.verdicts.values()) == {True}
        assert not report.alarm
        an, seq = families.mp_rankdrop_sequence(rng, 6, 3, 120, complex_)
        report = diagnostics.mp_continuity_report(an, seq, SEQ_TOL)
        assert set(report.verdicts.values()) == {False}
        assert not report.alarm
    _passed("verdict unanimity across convergent, rotating and rank-drop families")


def test_gap_identities_and_adjoint_symmetry():
    # 200 random pairs: algebraic projector terms match geometric gaps within
    # 1e-9 and the projector products of certified pseudoinverses within 1e-10;
    # adjoint symmetry equates the mirrored norms within 1e-10
    rng = np.random.default_rng(808)
    for i in range(200):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n))
        complex_ = True if i % 2 else bool(rng.integers(2))
        b = families.random_rank_matrix(rng, n, n, r, complex_)
        k1 = families.random_skew(rng, n, complex_)
        k2 = families.random_skew(rng, n, complex_)
        bn = families.cayley(k1, 0.2) @ b @ families.cayley(k2, 0.2)
        # delta(R(bn), R(b)) and delta(R(b), R(bn)) are the range terms, and their adjoints,
        # the cokernel terms, are the same pair swapped; the projector products are independent
        *range_terms, geometric = gi.gap(gi.column_space(bn), gi.column_space(b))
        cokernel_terms = range_terms[::-1]
        p, pn = mp_range_projector(b), mp_range_projector(bn)
        assert abs(geometric - gi.spectral_norm(pn - p)) <= 1e-9, f"instance {i}"
        whole = gi.gap(gi.column_space(bn), gi.full_subspace(n)).gap
        assert abs(whole - gi.spectral_norm(pn - np.eye(n))) <= 1e-9, f"instance {i}"
        oracle_range, oracle_cokernel = _mp_gap_terms_oracle(b, bn, gi.DEFAULT_TOL)
        assert np.allclose(range_terms, oracle_range, rtol=0, atol=1e-10), f"instance {i}"
        assert np.allclose(cokernel_terms, oracle_cokernel, rtol=0, atol=1e-10), f"instance {i}"
        if complex_:
            assert np.allclose(oracle_range, oracle_cokernel[::-1], rtol=0, atol=1e-10)
    _passed("projector gap identities and adjoint symmetry, 200 pairs")


def test_derivative_formulas_fd_convergence():
    # 50 smooth random curves per kind: fitted order >= 1.8 over the sweep
    # and final-step error <= 1e-6 * scale
    rng = np.random.default_rng(909)
    for kind in ("bc", "mp", "oip"):
        for i in range(50):
            complex_ = bool(rng.integers(2))
            if kind == "bc":
                n = int(rng.integers(3, 7))
                r = int(rng.integers(1, n))
                curves = list(families.bc_curves(rng, n, r, complex_))
            elif kind == "mp":
                m, n = int(rng.integers(3, 7)), int(rng.integers(3, 7))
                r = int(rng.integers(1, min(m, n) + 1))
                curves = [families.mp_curve(rng, m, n, r, complex_)]
            else:
                m, n = int(rng.integers(3, 7)), int(rng.integers(3, 7))
                r = int(rng.integers(1, min(m, n)))
                curves = list(families.oip_curves(rng, m, n, r, complex_))
            report = gi.finite_difference_check(curves, 0.0, kind=kind)
            scale = max(1.0, gi.spectral_norm(report.formula_derivative))
            if report.observed_order != "exact":
                assert report.observed_order >= 1.8, (kind, i, report.observed_order)
            assert report.fd_errors[-1][1] <= 1e-6 * scale, (kind, i)
    _passed("derivative formulas vs finite differences, 50 curves per kind")


def test_outer_difference_identity_is_exact():
    # 200 random instance pairs: identity residual <= 1e-12 * (1 + operand norms)
    rng = np.random.default_rng(1010)
    for i in range(200):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        r = int(rng.integers(1, min(m, n) + 1))
        complex_ = bool(rng.integers(2))
        a, t, s = families.random_outer_instance(rng, m, n, r, complex_)
        b, v, u = families.random_outer_instance(rng, m, n, r, complex_)
        ainv = gi.outer_prescribed(a, t, s).inverse
        binv = gi.outer_prescribed(b, v, u).inverse
        pt = projector(t, gi.orthogonal_complement(t))
        pv = projector(v, gi.orthogonal_complement(v))
        ps = projector(s, gi.orthogonal_complement(s))
        pu = projector(u, gi.orthogonal_complement(u))
        scale = 1.0 + sum(gi.spectral_norm(z) for z in (a, b, ainv, binv))
        residual = difference_identity_residual(a, b, ainv, binv, pt, pv, ps, pu)
        assert residual <= 1e-12 * scale, f"instance {i}"
    _passed("outer-inverse difference identity, 200 pairs")


def test_zero_limit_dichotomy_classification():
    # 50 constructed sequences: eventually-exactly-zero families classified
    # with the right onset index; never-zero decaying families rejected
    rng = np.random.default_rng(1111)
    zeros = np.zeros((3, 3))

    def zero_cert():
        return gi.bc_inverse(np.eye(3), zeros, zeros)

    def nonzero_cert():
        a, b, c = families.random_solvable_triple(rng, 3, 2)
        return gi.bc_inverse(a, b, c)

    for i in range(25):
        onset = int(rng.integers(1, 15))
        length = onset + int(rng.integers(3, 10))
        certs = [nonzero_cert() for _ in range(onset - 1)]
        certs += [zero_cert() for _ in range(length - onset + 1)]
        assert diagnostics.zero_limit_check(certs) == (True, onset), f"sequence {i}"

    b = np.diag([1.0, 0.0, 0.0])
    for i in range(25):
        length = int(rng.integers(5, 25))
        certs = []
        for n in range(1, length + 1):
            a = np.diag([float(n), 1.0, 1.0])
            certs.append(gi.bc_inverse(a, b, b))  # inverse diag(1/n, 0, 0)
        assert diagnostics.zero_limit_check(certs) == (False, None), f"sequence {i}"
    _passed("zero-limit dichotomy on 50 constructed sequences")


def test_cli_contract(tmp_path, capsys):
    # round-trip, determinism, and the 0/1/2 exit-code contract
    a = np.array([[1.0 / 3.0, 2e-7], [-5.0, 1e9]])
    a_path = tmp_path / "a.mat"
    save_matrix(a, a_path)
    assert np.array_equal(gi.parse_matrix(a_path), a)

    diag_path = tmp_path / "d.mat"
    save_matrix(np.diag([1.0, 2.0, 3.0]), diag_path)
    b_path = tmp_path / "b.mat"
    save_matrix(np.diag([1.0, 1.0, 0.0]), b_path)
    argv = ["seqcheck", str(diag_path), str(b_path), str(b_path),
            "--family", "rotating", "--indices", "20", "--seed", "11"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second

    assert cli_main(["pinv", str(diag_path)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.mat"
    bad.write_text("2 2 real\n1 0\n0\n")
    assert cli_main(["pinv", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"error", "clause", "margin"}

    e1 = tmp_path / "e1.mat"
    save_matrix(np.array([[1.0], [0.0]]), e1)
    eye = tmp_path / "i.mat"
    save_matrix(np.eye(2), eye)
    assert cli_main(["outer", str(eye), str(e1), str(e1)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["clause"] == "R(A*T) (+) S != Y"
    _passed("CLI round-trip, determinism and exit codes")
