"""``tests/replay.py diff`` on hand-written records: it counts the moved cases, keeps decision
fields apart from CLI report hashes and floats, gives each float field's largest move in ulps
and absolutely, names records whose headers differ and lists the cases only one record holds.
And ``record`` of one tree in two fresh processes reads identical, and a grid case that
overflows is refused with no warning."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geninv as gi
import replay


def _write(path, lines):
    path.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
    return path


def _records():
    certificate = {"inverse": "array:00", "residuals": {"xax_x": (1e-17).hex()},
                   "range_gap": (0.25).hex(), "operator_norm": (3.0).hex()}
    return [
        {"case": "certify/0/0/bc/64/r", "check": None, "outcome": certificate},
        {"case": "drivers/0/1/sequence/additive/6", "check": None,
         "outcome": [{"alarm": False, "verdicts": {"gap_inverse": True}}]},
        {"case": "cli/0/2/pinv", "check": None, "outcome": 0, "report": "ab12"},
    ]


def test_diff_of_identical_records_reads_zero(tmp_path, capsys):
    first = _write(tmp_path / "a.jsonl", _records())
    second = _write(tmp_path / "b.jsonl", _records())
    assert replay.diff(first, second) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 3 cases moved"]


def test_diff_gives_a_one_ulp_float_move_and_a_decision_apart(tmp_path, capsys):
    first = _write(tmp_path / "a.jsonl", _records())
    nudged = _records()
    nudged[0]["outcome"]["range_gap"] = math.nextafter(0.25, 1.0).hex()
    assert replay.diff(first, _write(tmp_path / "b.jsonl", nudged)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "float certify .outcome.range_gap: 1 case(s), largest move 1 ulp, 5.6e-17 absolute",
        "1 of 3 cases moved"]
    nudged[1]["outcome"][0]["verdicts"]["gap_inverse"] = False
    nudged[2]["outcome"] = 2
    assert replay.diff(first, _write(tmp_path / "c.jsonl", nudged)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "decision cli .outcome: 1 case(s)",
        "decision drivers .outcome.verdicts.gap_inverse: 1 case(s)",
        "float certify .outcome.range_gap: 1 case(s), largest move 1 ulp, 5.6e-17 absolute",
        "3 of 3 cases moved"]


def test_diff_gives_a_moved_report_hash_its_own_group_and_the_exit_code_as_the_decision(
        tmp_path, capsys):
    # a report whose only move is a printed float changes its hash, not its request's decision
    first = _write(tmp_path / "a.jsonl", _records())
    moved = _records()
    moved[2]["report"] = "cd34"
    assert replay.diff(first, _write(tmp_path / "b.jsonl", moved)) == 1
    assert capsys.readouterr().out.splitlines() == ["report cli .report: 1 case(s)",
                                                    "1 of 3 cases moved"]
    moved[2]["outcome"] = 1
    assert replay.diff(first, _write(tmp_path / "c.jsonl", moved)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "decision cli .outcome: 1 case(s)", "report cli .report: 1 case(s)", "1 of 3 cases moved"]


def test_diff_gives_a_float_move_absolutely_beside_its_ulps(tmp_path, capsys):
    # a residual moving from 1e-17 to 2e-15 lies some 1e15 doubles apart, 2e-15 absolutely
    first = _write(tmp_path / "a.jsonl", _records())
    moved = _records()
    moved[0]["outcome"]["residuals"]["xax_x"] = (2e-15).hex()
    assert replay.diff(first, _write(tmp_path / "b.jsonl", moved)) == 1
    ulps = int(np.float64(2e-15).view(np.int64) - np.float64(1e-17).view(np.int64))
    assert capsys.readouterr().out.splitlines() == [
        f"float certify .outcome.residuals.xax_x: 1 case(s), largest move {ulps:g} ulps, "
        "2e-15 absolute", "1 of 3 cases moved"]


def test_records_whose_headers_differ_are_reported_and_still_compared(tmp_path, capsys):
    header = replay.header()
    other = {**header, "threads": dict.fromkeys(header["threads"], "2")}
    first = _write(tmp_path / "a.jsonl", [{"header": header}, *_records()])
    second = _write(tmp_path / "b.jsonl", [{"header": other}, *_records()])
    assert replay.diff(first, second) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"first header: {json.dumps(header, sort_keys=True)}",
        f"second header: {json.dumps(other, sort_keys=True)}",
        "the headers differ: bits may move with the numpy build or BLAS threads",
        "0 of 3 cases moved"]


def test_a_record_lacking_a_grid_row_names_it_and_still_compares_the_rest(tmp_path, capsys):
    # the second record lacks the first grid row, so the next has another index in its pool, and
    # holds a row the first lacks: cases match by pool, seed, label and occurrence, not by index
    def row(k, label, margin):
        return {"case": f"grid/0/{k}/{label}", "check": None,
                "outcome": {"error": "ExistenceError", "margin": margin.hex()}}

    lacking = "bc_inverse/plain/r/k=0/rank_tol=0.0"
    first = _write(tmp_path / "a.jsonl", [*_records(), row(3, lacking, 0.25),
                                          row(4, "bc_inverse/plain/r/k=3/rank_tol=0.0", 0.5)])
    second = [*_records(), row(3, "bc_inverse/plain/r/k=3/rank_tol=0.0", math.nextafter(0.5, 1)),
              row(4, "bc_inverse/plain/r/k=6/rank_tol=0.0", 0.5)]
    second[0]["outcome"]["range_gap"] = math.nextafter(0.25, 1.0).hex()
    assert replay.diff(first, _write(tmp_path / "b.jsonl", second)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "float certify .outcome.range_gap: 1 case(s), largest move 1 ulp, 5.6e-17 absolute",
        "float grid .outcome.margin: 1 case(s), largest move 1 ulp, 1.1e-16 absolute",
        "2 of 4 cases moved",
        f"removed grid/0/3/{lacking}",
        "added grid/0/4/bc_inverse/plain/r/k=6/rank_tol=0.0",
        "1 case(s) removed, 1 added"]
    # a record that only lacks the row: nothing moved, and the diff still fails
    lacks_only = _write(tmp_path / "c.jsonl", [*_records(), row(3, lacking, 0.25)])
    assert replay.diff(first, lacks_only) == 1
    assert capsys.readouterr().out.splitlines() == [
        "0 of 4 cases moved", "removed grid/0/4/bc_inverse/plain/r/k=3/rank_tol=0.0",
        "1 case(s) removed, 0 added"]


def _replayed_identically(out: str, count: int) -> None:
    """``diff`` read two records run as scripts (BLAS on one thread) here, and no case moved."""
    head = json.dumps({**replay.header(), "threads": dict.fromkeys(replay.THREAD_VARS, "1")},
                      sort_keys=True)
    assert out.splitlines() == [f"first header: {head}", f"second header: {head}",
                                f"0 of {count} cases moved"]


def test_the_drivers_pool_replays_identically_in_two_fresh_processes(tmp_path, capsys):
    # the same tree recorded twice, each in its own interpreter: nothing may depend on the
    # process (hash seeds, allocation, import order)
    tree, script = Path(replay.__file__).resolve().parents[1], replay.__file__
    outs = [tmp_path / f"{k}.jsonl" for k in (0, 1)]
    runs = [subprocess.Popen([sys.executable, script, "record", str(tree), str(out), "--pools",
                              "drivers", "--seeds", "0"], stdout=subprocess.DEVNULL)
            for out in outs]
    assert [run.wait(timeout=60) for run in runs] == [0, 0]
    assert replay.diff(*outs) == 0
    _replayed_identically(capsys.readouterr().out, 26)


def test_the_curves_pool_records_every_derivative_check_passing(tmp_path):
    # finite_difference_check of each family curve and a derivcheck request of each kind,
    # field and t0: 24 cases at one seed, every one within its own check
    tree, script = Path(replay.__file__).resolve().parents[1], replay.__file__
    out = tmp_path / "curves.jsonl"
    subprocess.run([sys.executable, script, "record", str(tree), str(out), "--pools", "curves",
                    "--seeds", "0"], stdout=subprocess.DEVNULL, check=True, timeout=60)
    lines = [json.loads(line) for line in out.read_text().splitlines()[1:]]  # after the header
    assert len(lines) == 24 and all(line["check"] is None for line in lines)
    assert {line["case"].split("/")[3] for line in lines} == {"derivative", "derivcheck"}
    assert {line["outcome"] for line in lines if "report" in line} == {0}


def test_a_grid_slice_replays_identically_and_only_as_results_or_refusals(tmp_path, capsys):
    # every 19th case of the grid (each kind at 10^k scales down to subnormal, at rank
    # tolerances up to 0.9, then the near-threshold slice), in two fresh processes: the same bits, and each outcome a result,
    # an ExistenceError or an InputError, with no warning reaching the caller
    tree, script = Path(replay.__file__).resolve().parents[1], replay.__file__
    outs = [tmp_path / f"{k}.jsonl" for k in (0, 1)]
    runs = [subprocess.Popen([sys.executable, script, "record", str(tree), str(out), "--pools",
                              "grid", "--seeds", "0", "--every", "19"], stdout=subprocess.DEVNULL)
            for out in outs]
    assert [run.wait(timeout=60) for run in runs] == [0, 0]
    assert replay.diff(*outs) == 0
    _replayed_identically(capsys.readouterr().out, 122)
    lines = [json.loads(line) for line in outs[0].read_text().splitlines()[1:]]
    assert all(line["check"] is None and "warnings" not in line for line in lines)
    kinds = {line["case"].split("/")[4] for line in lines}
    assert kinds == {"moore_penrose", "outer_prescribed", "bc_inverse", "inverse_along",
                     "bott_duffin"}


@pytest.mark.parametrize("seed, cx", [(1, False), (2, True)])
def test_an_overflowing_bott_duffin_is_refused_with_no_warning(seed, cx):
    # the grid's plain operator at 10^-308 (warnings are errors here): x overflows, and its
    # p x - x defect is refused as not finite rather than warned about in a matmul
    rng = np.random.default_rng(seed)
    cases = [replay._grid_cases(rng, field) for field in (False, True)][cx]
    construct = cases[f"bott_duffin/plain/{'c' if cx else 'r'}"]
    for rank_tol in (1e-10, 0.0):
        with pytest.raises(gi.CertificateError, match="residual py_y=inf is not finite"):
            construct(1e-308, gi.ToleranceConfig(rank_rel_tol=rank_tol))
