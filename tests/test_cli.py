import json

import numpy as np
import pytest

import geninv as gi
from geninv.calculus import MatrixCurve
from geninv.cli import main

from conftest import rank_jump_instance, save_matrix


def write(path, a):
    save_matrix(a, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_pinv_success(tmp_path, capsys):
    a_path = write(tmp_path / "a.mat", np.diag([2.0, 0.0]))
    code, report = run_cli(capsys, "pinv", a_path)
    assert code == 0
    assert report["schema"] == 1
    assert report["inverse"] == [[0.5, 0.0], [0.0, 0.0]]
    assert max(report["residuals"].values()) <= 1e-12


def test_bcinv_zero_pair_exits_zero(tmp_path, capsys):
    a_path = write(tmp_path / "a.mat", np.array([[1.0, 2.0], [3.0, 4.0]]))
    z_path = write(tmp_path / "z.mat", np.zeros((2, 2)))
    code, report = run_cli(capsys, "bcinv", a_path, z_path, z_path)
    assert code == 0
    assert report["inverse"] == [[0.0, 0.0], [0.0, 0.0]]


def test_outer_existence_failure_exits_two(tmp_path, capsys):
    a_path = write(tmp_path / "a.mat", np.eye(2))
    e1_path = write(tmp_path / "t.mat", np.array([[1.0], [0.0]]))
    code, report = run_cli(capsys, "outer", a_path, e1_path, e1_path)
    assert code == 2
    assert report["clause"] == "R(A*T) (+) S != Y"
    assert report["margin"] is not None


def test_input_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2 real\n1 0\n0\n")
    code, report = run_cli(capsys, "pinv", str(bad))
    assert code == 1
    assert report["clause"] == "input"
    assert "expected 4 entries" in report["error"]


def test_missing_file_exits_one(tmp_path, capsys):
    code, report = run_cli(capsys, "pinv", str(tmp_path / "absent.mat"))
    assert code == 1
    assert report["margin"] is None


def test_gap_subcommand_with_oracle(tmp_path, capsys):
    theta = 0.3
    m_path = write(tmp_path / "m.mat", np.array([[1.0], [0.0]]))
    n_path = write(tmp_path / "n.mat", np.array([[np.cos(theta)], [np.sin(theta)]]))
    code, report = run_cli(capsys, "gap", m_path, n_path, "--trials", "200")
    assert code == 0
    assert report["gap"] == pytest.approx(np.sin(theta), abs=1e-12)
    assert report["sampling_lower_bound"] <= report["delta_mn"] + 1e-9


def test_along_and_bottduffin(tmp_path, capsys):
    a_path = write(tmp_path / "a.mat", np.array([[2.0, 1.0], [0.0, 1.0]]))
    i_path = write(tmp_path / "i.mat", np.eye(2))
    code, report = run_cli(capsys, "along", a_path, i_path)
    assert code == 0
    assert np.allclose(report["inverse"], np.linalg.inv([[2.0, 1.0], [0.0, 1.0]]))
    code, report = run_cli(capsys, "bottduffin", a_path, i_path, i_path)
    assert code == 0
    assert report["kind"] == "bott_duffin"


def test_perturb_subcommand(tmp_path, capsys):
    a_path = write(tmp_path / "a.mat", np.diag([1.0, 2.0, 3.0]))
    b_path = write(tmp_path / "b.mat", np.diag([1.0, 1.0, 0.0]))
    e_path = write(tmp_path / "e.mat", np.diag([0.1, 0.0, 0.0]))
    code, report = run_cli(capsys, "perturb", a_path, b_path, b_path, e_path)
    assert code == 0
    assert report["bound_value"] == pytest.approx(1.0 / 9.0)
    assert report["actual_error"] <= report["bound_value"] * (1 + 1e-6)
    assert not report["outside_ball"]


def test_perturb_outside_the_bound_premises_reports_inapplicable(tmp_path, capsys):
    # inside the openness ball (||e|| = 0.9 < 1 = 1/||x||), but z = 0.9 is past the premise
    a_path = write(tmp_path / "a.mat", np.diag([1.0, 2.0, 3.0]))
    b_path = write(tmp_path / "b.mat", np.diag([1.0, 1.0, 0.0]))
    e_path = write(tmp_path / "e.mat", 0.9 * np.eye(3))
    code, report = run_cli(capsys, "perturb", a_path, b_path, b_path, e_path)
    assert code == 0
    assert report["bound_value"] == "inapplicable"
    assert not report["outside_ball"]


def test_non_finite_fd_step_is_an_input_error_naming_the_sweep(tmp_path, capsys):
    base = write(tmp_path / "a0.mat", np.diag([2.0, 1.0]))
    step = write(tmp_path / "a1.mat", np.diag([1.0, 0.0]))
    for steps in ("0.01,nan", "inf,0.001", "nan"):
        code, report = run_cli(capsys, "derivcheck", "--steps", steps, base, step)
        assert code == 1
        assert report["clause"] == "input"
        assert "fd_step_sweep" in report["error"]


def test_overflowing_inverse_is_refused_with_exit_two(tmp_path, capsys):
    # a is finite but ||a^+|| overflows: a refused certificate, its infinite margin as null
    a_path = write(tmp_path / "a.mat", 1e-309 * np.diag([1.0, 2.0, 3.0]))
    code, report = run_cli(capsys, "pinv", a_path)
    assert code == 2
    assert report["clause"] == "residual exceeds tolerance"
    assert report["margin"] is None


def test_an_overflowing_core_is_refused_with_exit_two(tmp_path, capsys):
    # every entry of a is finite, but the core H A F overflows: the certificate refuses it,
    # not the input check
    a = write(tmp_path / "a.mat", np.full((4, 4), 1e308) - np.diag(np.full(4, 0.5e308)))
    t = write(tmp_path / "t.mat", np.full((4, 1), 0.5))
    s = write(tmp_path / "s.mat", gi.null_space(np.ones((1, 4))).basis)
    code, report = run_cli(capsys, "outer", a, t, s)
    assert code == 2
    assert report["clause"] == "residual exceeds tolerance"
    assert report["error"] == "an intermediate product is not finite"


def test_derivcheck_mp_kind(tmp_path, capsys):
    base = write(tmp_path / "a0.mat", np.diag([2.0, 1.0]))
    step = write(tmp_path / "a1.mat", np.diag([1.0, 0.0]))
    code, report = run_cli(capsys, "derivcheck", "--kind", "mp", base, step)
    assert code == 0
    assert report["observed_order"] == "exact" or report["observed_order"] > 1.8
    assert report["formula_derivative"][0][0] == pytest.approx(-0.25, abs=1e-8)


def test_seqcheck_families(tmp_path, capsys):
    a_path = write(tmp_path / "a.mat", np.diag([1.0, 2.0, 3.0]))
    b_path = write(tmp_path / "b.mat", np.diag([1.0, 1.0, 0.0]))
    code, report = run_cli(
        capsys, "seqcheck", a_path, b_path, b_path, "--family", "additive", "--indices", "40"
    )
    assert code == 0
    assert set(report["verdicts"].values()) == {True}
    assert not report["alarm"]

    rank_deficient = write(tmp_path / "ad.mat", np.diag([1.0, 2.0, 0.0]))
    code, report = run_cli(
        capsys,
        "seqcheck", rank_deficient, rank_deficient, rank_deficient,
        "--family", "rankdrop", "--indices", "40",
    )
    assert code == 0
    assert set(report["verdicts"].values()) == {False}
    assert not report["alarm"]


def test_cli_determinism(tmp_path, capsys):
    a_path = write(tmp_path / "a.mat", np.diag([1.0, 2.0, 3.0]))
    b_path = write(tmp_path / "b.mat", np.diag([1.0, 1.0, 0.0]))
    argv = [
        "seqcheck", a_path, b_path, b_path,
        "--family", "rotating", "--indices", "25", "--seed", "7",
    ]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second

    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(argv + ["--out", str(out1)])
    main(argv + ["--out", str(out2)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_roundtrip_of_emitted_inverse(tmp_path, capsys):
    a = np.array([[1.0 / 3.0, 2.0], [0.125, 7e-30]])
    a_path = write(tmp_path / "a.mat", a)
    _, report = run_cli(capsys, "pinv", a_path)
    emitted = np.array(report["inverse"])
    again_path = tmp_path / "inv.mat"
    save_matrix(emitted, again_path)
    assert np.array_equal(gi.parse_matrix(again_path), emitted)
    assert np.allclose(emitted, np.linalg.inv(a), rtol=1e-12)


def test_cli_wrong_arity_exits_one(tmp_path, capsys):
    a_path = write(tmp_path / "a.mat", np.eye(2))
    code, report = run_cli(capsys, "derivcheck", "--kind", "mp", a_path)
    assert code == 1
    assert "input file" in report["error"]


def test_non_utf8_file_exits_one_naming_it(tmp_path, capsys):
    path = tmp_path / "binary.mat"
    path.write_bytes(b"\xff\xfe\x00\x81\x9f")
    code, report = run_cli(capsys, "pinv", str(path))
    assert code == 1
    assert report["clause"] == "input"
    assert str(path) in report["error"]


def test_derivcheck_direction_of_another_shape_names_both_files(tmp_path, capsys):
    a_path = write(tmp_path / "a.mat", np.eye(6))
    t0_path = write(tmp_path / "t0.mat", np.eye(6)[:, :3])
    t1_path = write(tmp_path / "t1.mat", np.ones((6, 6)))
    code, report = run_cli(
        capsys, "derivcheck", "--kind", "oip", a_path, a_path, t0_path, t1_path, t0_path, t0_path
    )
    assert code == 1
    assert report["clause"] == "input"
    assert t0_path in report["error"] and t1_path in report["error"]


def test_derivcheck_oip_takes_rank_deficient_span_files(tmp_path, capsys):
    # rank-3 projectors of a 6-space as span files: their column spaces have dimension 3
    rng = np.random.default_rng(0)
    n = 6
    a0 = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    a1 = 0.1 * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t0, s0 = q[:, :3] @ q[:, :3].T, q[:, 3:] @ q[:, 3:].T
    zero = np.zeros((n, n))
    mats = {"a0": a0, "a1": a1, "t0": t0, "t1": zero, "s0": s0, "s1": zero}
    paths = [write(tmp_path / f"{name}.mat", m) for name, m in mats.items()]
    code, report = run_cli(capsys, "derivcheck", "--kind", "oip", *paths)
    assert code == 0, report
    domain = (-1.0, 1.0)
    curves = [
        MatrixCurve(lambda t, base=base, step=step: base + t * step, domain)
        for base, step in ((a0, a1), (t0, zero), (s0, zero))
    ]
    expected = gi.finite_difference_check(curves, 0.0, kind="oip").formula_derivative
    assert np.allclose(report["formula_derivative"], expected, rtol=1e-12, atol=1e-14)


def test_derivcheck_rank_jump_at_t0_exits_two(tmp_path, capsys):
    a, b, c, g, g2 = rank_jump_instance()
    mats = {"a0": a, "a1": np.zeros_like(a), "b0": b, "b1": 0.05 * g, "c0": c, "c1": 0.05 * g2}
    paths = [write(tmp_path / f"{name}.mat", m) for name, m in mats.items()]
    code, report = run_cli(capsys, "derivcheck", "--kind", "bc", *paths)
    assert code == 2
    assert report["clause"] == "curve leaves invertible set"


def test_derivcheck_refused_certificate_exits_two_with_its_clause(tmp_path, capsys):
    a, b, c = gi.families.random_solvable_triple(np.random.default_rng(5), 12, 6)
    mats = {"a0": a, "a1": np.zeros_like(a), "b0": b, "b1": 0 * b, "c0": c, "c1": 0 * c}
    paths = [write(tmp_path / f"{name}.mat", m) for name, m in mats.items()]
    code, report = run_cli(capsys, "derivcheck", "--kind", "bc", *paths, "--tol-res", "1e-17")
    assert code == 2
    assert report["clause"] == "residual exceeds tolerance"
    assert report["error"].startswith("bc certificate rejected: residual ")


def test_seqcheck_rotating_zero_limit_is_an_input_error(tmp_path, capsys):
    # the rotation angle is read off the limit inverse, which is zero here
    a_path = write(tmp_path / "a.mat", np.diag([1.0, 2.0, 3.0]))
    z_path = write(tmp_path / "z.mat", np.zeros((3, 3)))
    code, report = run_cli(capsys, "seqcheck", a_path, z_path, z_path, "--family", "rotating")
    assert code == 1
    assert "limit inverse is zero" in report["error"]


def test_seqcheck_additive_zero_limit_is_an_input_error(tmp_path, capsys):
    # the additive family's amplitude is read off the limit inverse, zero here, so the refusal
    # is the rotating family's, and its report reaches --out
    a_path = write(tmp_path / "a.mat", np.eye(3))
    z_path = write(tmp_path / "z.mat", np.zeros((3, 3)))
    out = tmp_path / "report.json"
    code = main(["seqcheck", a_path, z_path, z_path, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["clause"] == "input"
    assert report["error"] == "limit inverse is zero; use zero_limit_check"


def test_seqcheck_report_keys(tmp_path, capsys):
    a_path = write(tmp_path / "a.mat", np.diag([1.0, 2.0, 3.0]))
    b_path = write(tmp_path / "b.mat", np.diag([1.0, 1.0, 0.0]))
    code, report = run_cli(capsys, "seqcheck", a_path, b_path, b_path, "--indices", "5")
    assert code == 0
    assert set(report) == {
        "schema", "subcommand", "family", "indices", "verdicts", "alarm", "failed_indices",
        "records",
    }
    assert report["schema"] == 1
    assert set(report["records"]) == {
        "inverse_error", "left_product_error", "right_product_error", "range_gap",
        "nullspace_gap", "inverse_range_gap", "inverse_nullspace_gap", "mp_range_terms",
        "mp_null_terms", "mp_cokernel_terms", "mp_corange_terms", "range_projector_error",
        "null_projector_error",
    }
    assert all(len(values) == 5 for values in report["records"].values())
    assert all(len(pair) == 2 for pair in report["records"]["mp_range_terms"])


def test_seqcheck_rankdrop_uses_the_rank_tolerance(tmp_path, capsys):
    # numerical rank at --tol-rank, not numpy's own cutoff: diag(1, 1e-12) has rank 1
    a_path = write(tmp_path / "a.mat", np.diag([1.0, 1e-12]))
    code, report = run_cli(
        capsys, "seqcheck", a_path, a_path, a_path, "--family", "rankdrop", "--indices", "10"
    )
    assert code == 0, report
    full_rank = write(tmp_path / "f.mat", np.diag([1.0, 1e-8]))
    code, report = run_cli(
        capsys, "seqcheck", full_rank, full_rank, full_rank, "--family", "rankdrop",
    )
    assert code == 1
    assert "rank-deficient" in report["error"]
    code, _ = run_cli(
        capsys, "seqcheck", full_rank, full_rank, full_rank, "--family", "rankdrop",
        "--indices", "10", "--tol-rank", "1e-6",
    )
    assert code == 0


CERTIFICATE_KEYS = {
    "kind", "field", "inverse", "residuals", "restricted_condition", "range_gap",
    "nullspace_gap", "complement_margin",
}
GAP_KEYS = {"delta_mn", "delta_nm", "gap", "dim_m", "dim_n"}
DERIVCHECK_KEYS = {"kind", "t0", "formula_derivative", "fd_errors", "observed_order"}
ERROR_KEYS = {"error", "clause", "margin"}


@pytest.fixture
def files(tmp_path):
    """Small matrix files, by name, for one request of every subcommand."""
    mats = {
        "a": np.diag([1.0, 2.0, 3.0]),
        "b": np.diag([1.0, 1.0, 0.0]),
        "e": np.diag([0.1, 0.0, 0.0]),
        "da": 0.1 * np.arange(9.0).reshape(3, 3),
        "t": np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        "dt": 0.1 * np.ones((3, 2)),
        "s": np.array([[0.0], [0.0], [1.0]]),
        "ds": np.array([[0.1], [0.0], [0.0]]),
        "e1": np.array([[1.0], [0.0], [0.0]]),
    }
    return {name: write(tmp_path / f"{name}.mat", a) for name, a in mats.items()}


@pytest.mark.parametrize(
    "argv, code, keys",
    [
        (["pinv", "a"], 0, CERTIFICATE_KEYS),
        (["bcinv", "a", "b", "b"], 0, CERTIFICATE_KEYS),
        (["outer", "a", "t", "s"], 0, CERTIFICATE_KEYS),
        (["along", "a", "b"], 0, CERTIFICATE_KEYS),
        (["bottduffin", "a", "b", "b"], 0, CERTIFICATE_KEYS),
        (["gap", "t", "e1"], 0, GAP_KEYS),
        (["gap", "t", "e1", "--trials", "20"], 0, GAP_KEYS | {"sampling_lower_bound"}),
        (
            ["perturb", "a", "b", "b", "e"],
            0,
            {
                "radius", "outside_ball", "formula_inverse", "direct_inverse", "discrepancy",
                "factorization_discrepancy", "bound_value", "actual_error",
            },
        ),
        (["derivcheck", "--kind", "mp", "a", "da"], 0, DERIVCHECK_KEYS),
        (["derivcheck", "--kind", "bc", "a", "da", "b", "e", "b", "e"], 0, DERIVCHECK_KEYS),
        (["derivcheck", "--kind", "oip", "a", "da", "t", "dt", "s", "ds"], 0, DERIVCHECK_KEYS),
        (["outer", "a", "e1", "e1"], 2, ERROR_KEYS),
    ],
)
def test_report_keys_and_exit_code_of_every_subcommand(files, capsys, argv, code, keys):
    # seqcheck's keys are pinned by test_seqcheck_report_keys
    argv = [files.get(token, token) for token in argv]
    got_code, report = run_cli(capsys, *argv)
    assert got_code == code, report
    assert set(report) == {"schema", "subcommand"} | keys
    assert report["schema"] == 1
    assert report["subcommand"] == argv[0]


def test_config_error_report_goes_to_out(files, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["derivcheck", "--kind", "mp", files["a"], files["da"], "--steps", "abc",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["clause"] == "input"
    assert "unparsable step list" in report["error"]


@pytest.mark.parametrize("indices", ["0", "-3"])
def test_seqcheck_rejects_indices_below_one(files, capsys, indices):
    code, report = run_cli(capsys, "seqcheck", files["a"], files["b"], files["b"], "--indices", indices)
    assert code == 1
    assert report["clause"] == "input"
    assert "--indices" in report["error"]
    assert "records" not in report


def test_unwritable_out_reports_on_stdout(files, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code, report = run_cli(capsys, "pinv", files["a"], "--out", str(out))
    assert code == 1
    assert report["clause"] == "input"
    assert str(out) in report["error"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [["pinv"], ["bcinv", "a"], ["seqcheck", "a", "b"]])
def test_missing_input_files_are_usage_errors(files, capsys, argv):
    # argparse usage errors exit 1 and write no JSON report
    assert main([files.get(token, token) for token in argv]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["pinv", "a", "--steps", "1e-3,1e-2"],
        ["bcinv", "a", "b", "b", "--seed", "1"],
        ["gap", "t", "e1", "--steps", "1e-2"],
        ["derivcheck", "--kind", "mp", "a", "da", "--seed", "1"],
    ],
)
def test_options_a_subcommand_does_not_read_are_usage_errors(files, capsys, argv):
    # --seed belongs to gap and seqcheck, --steps to derivcheck
    assert main([files.get(token, token) for token in argv]) == 1
    assert capsys.readouterr().out == ""


def test_overflowing_perturbation_and_derivative_are_refused_with_exit_two(tmp_path, capsys):
    # each formula overflows on finite input: exit 2 naming it, not an input error
    eye = write(tmp_path / "i.mat", np.eye(2))
    a = write(tmp_path / "a.mat", 1e-300 * np.eye(2))
    e = write(tmp_path / "e.mat", -9.99999999999e-301 * np.eye(2))
    a0 = write(tmp_path / "a0.mat", 1e-200 * np.eye(2))
    a1 = write(tmp_path / "a1.mat", 1e150 * np.eye(2))
    for argv, name in ((("perturb", a, eye, eye, e), "formula inverse"),
                       (("derivcheck", "--kind", "mp", a0, a1), "formula derivative")):
        code, report = run_cli(capsys, *argv)
        assert code == 2
        assert report["clause"] == "residual exceeds tolerance"
        assert report["error"].endswith(f"{name} is not finite")
        assert report["margin"] is None


def test_consecutive_requests_share_one_parser_and_answer_as_a_fresh_one(files, capsys):
    # main builds its parser once per process; each request, a usage error between them
    # included, gets the report and exit code a freshly built parser gives
    from geninv import cli

    requests = [
        ["gap", "t", "e1", "--trials", "20"],
        ["gap", "t", "e1", "--trials", "20", "--seed", "7"],
        ["seqcheck", "a", "b", "b", "--indices", "4", "--seed", "7"],
        ["seqcheck", "a", "b", "b", "--indices", "4", "--family", "rotating", "--seed", "3"],
        ["seqcheck", "a", "b", "b", "--indices", "4", "--seed", "3", "--seed", "9"],
        ["pinv", "a", "--tol-rank", "0.4"],
        ["pinv", "a"],
        ["outer", "a", "e1", "e1"],
        ["derivcheck", "a", "da", "--steps", "1e-2,1e-3"],
        ["pinv", "a", "--seed", "1"],
        ["gap", "t", "e1", "--trials", "20", "--seed", "abc"],
        ["bcinv", "a", "b", "b", "--tol-res", "1e-3"],
    ]
    assert cli._parser() is cli._parser()
    for argv in requests:
        argv = [files.get(token, token) for token in argv]
        code = main(argv)
        out = capsys.readouterr().out
        try:
            fresh = cli.build_parser().parse_args(argv)
        except SystemExit:
            assert (code, out) == (1, "")
            continue
        assert (out, code) == cli._respond(fresh)
