"""Tests of the benchmark itself: output checks, tracer hygiene and call counts.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geninv as gi
from bench import gen, oracle, runner, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]
SEED_FACTS = json.loads((ROOT / "bench" / "baseline.json").read_text())["seed_facts"]


@pytest.fixture(scope="module")
def certify(tmp_path_factory):
    return workloads.certify_pool(0, tmp_path_factory.mktemp("certify"))


@pytest.fixture(scope="module")
def drivers(tmp_path_factory):
    return workloads.drivers_pool(0, tmp_path_factory.mktemp("drivers"))


def _op(pool, label):
    return next(op for op in pool if op.label == label)


def test_corrupted_inverse_counts_as_failed(certify):
    op = _op(certify, "bc/64/r")
    cert = op.call()
    assert runner.judge(op, cert) is None
    bad = dataclasses.replace(cert, inverse=cert.inverse * (1.0 + 1e-6))
    samples = runner.run_passes([dataclasses.replace(op, call=lambda: bad)], 0.0)
    assert samples[0].failure is not None and not samples[0].refused
    assert runner.outcome_summary(samples) == {"correct": False, "attempted": 1, "failed": 1}


def test_certificate_refusal_fails_without_being_wrong(certify):
    def refuse():
        raise gi.CertificateError("residual over budget", margin=1.0)

    op = dataclasses.replace(_op(certify, "mp/64/r"), call=refuse)
    samples = runner.run_passes([op], 0.0)
    assert samples[0].refused
    assert runner.outcome_summary(samples) == {"correct": True, "attempted": 1, "failed": 1}


def test_expected_existence_error_counts_as_pass(certify):
    infeasible = [op for op in certify if "/infeasible:" in op.label]
    assert len(infeasible) == 12
    samples = runner.run_passes(infeasible, 0.0)
    assert [s.failure for s in samples] == [None] * len(infeasible)
    op = infeasible[0]
    assert runner.judge(op, gi.ExistenceError("no", clause="another clause")) is not None
    assert runner.judge(op, gi.CertificateError("no")) is not None
    assert runner.judge(op, np.zeros((2, 2))) is not None


def test_cli_error_requests_pass_on_their_exit_code(tmp_path):
    pool = workloads.cli_pool(0, tmp_path)
    errors = [op for op in pool if op.label.endswith(("/malformed", "/no-inverse"))]
    assert len(errors) == 4
    samples = runner.run_passes(errors, 0.0)
    assert [s.failure for s in samples] == [None] * 4
    for op in errors:
        assert runner.judge(op, 0) is not None


def _bindings():
    owners = [
        module
        for name, module in sorted(sys.modules.items())
        if name == "geninv" or name.startswith("geninv.")
    ]
    found = {
        (module.__name__, name): value
        for module in owners
        for name, value in vars(module).items()
        if callable(value)
    }
    found.update({("numpy.linalg", name): getattr(np.linalg, name) for name in tracer.LINALG})
    return found


def test_tracer_restores_every_binding(certify):
    before = _bindings()
    with tracer.Tracer() as trace:
        assert gi.inverses.spectral_norm is not before["geninv.inverses", "spectral_norm"]
        assert gi.kernel.spectral_norm is not before["geninv.kernel", "spectral_norm"]
        assert np.linalg.svd is not before["numpy.linalg", "svd"]
        runner.run_passes([_op(certify, "bott_duffin/64/c")], 0.0, trace.run)
        spans = len(trace.spans)
        cost = trace.child_cost(calls=200)
        assert len(trace.spans) == spans and set(cost) == {True, False}
        assert all(0.0 <= c < 1e-3 for c in cost.values())
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert trace.spans and all(span[tracer.OP] is not None for span in trace.spans)


def _traced(pool):
    with tracer.Tracer() as trace:
        runner.run_passes(pool, 0.0, trace.run)
    return runner.call_counts(trace.spans, pool), runner.layer_metrics(trace.spans, pool)


def _count_metrics(metrics):
    return {k: v for k, v in metrics.items() if "calls" in k or "svd" in k or "per_index" in k}


def test_construction_counts_repeat_and_match_seed_facts(certify):
    pool = [op for op in certify if op.size == 64 and op.label.count("/") == 2]
    (counts, metrics), (again, metrics_again) = _traced(pool), _traced(pool)
    assert counts == again
    assert _count_metrics(metrics) == _count_metrics(metrics_again)
    facts = SEED_FACTS["per_call"]
    assert {key: counts[key] for key in facts} == facts


def test_sequence_report_counts_repeat_and_match_seed_facts(drivers):
    pool = [op for op in drivers if op.label.startswith("sequence/")]
    (counts, metrics), (again, metrics_again) = _traced(pool), _traced(pool)
    assert counts == again
    assert _count_metrics(metrics) == _count_metrics(metrics_again)
    for op in pool:
        family = op.label.split("/")[1]
        key = f"diagnostics.sequence_report[{op.label}]"
        assert counts[key] == SEED_FACTS["sequence_report_50_indices"][family]


def test_metric_names_match_benchmark_json(certify):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, metrics = _traced([_op(certify, "mp/64/r")])
    added_by_run = {"trace.overhead_frac", "reference.pinv_ratio", "host.ref_ms"}
    assert set(metrics) | added_by_run == {m["name"] for m in spec["per_layer"]}
    samples = runner.run_passes([_op(certify, "mp/64/r")], 0.0)
    assert set(runner.end_to_end(samples, 1.0)) == {m["name"] for m in spec["end_to_end"]}


def test_timings_are_scaled_by_the_host_reference(certify):
    op = _op(certify, "mp/64/r")
    samples = runner.run_passes([op], 0.0, reference=True, min_samples=3)
    assert len(samples) == 3 and all(s.ref_s > 0 for s in samples)
    nominal = runner.NOMINAL_REF_MS / 1e3
    slow = [dataclasses.replace(s, seconds=0.2, ref_s=2 * nominal) for s in samples]
    assert runner.scaled_seconds(slow) == pytest.approx([0.1] * 3)
    assert runner.timings(slow, runner.scaled_seconds(slow))["ops_per_s"] == (pytest.approx(10.0), 3)


def test_generator_places_null_space_at_prescribed_angles():
    rng = np.random.default_rng(3)
    inst = gen.outer_instance(rng, 48, 64, 32, True)
    image = oracle.range_basis(inst.a @ inst.t)
    cosines = np.linalg.svd(image.conj().T @ inst.s, compute_uv=False)
    assert cosines.max() <= np.cos(gen.MIN_ANGLE) + 1e-12
    x = oracle.outer_inverse(inst.a, inst.t, inst.s_perp)
    assert np.allclose(x @ inst.a @ x, x)
    assert np.allclose(x @ inst.s, 0.0)
    assert np.allclose(inst.t @ (inst.t.conj().T @ x), x)


def test_run_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
