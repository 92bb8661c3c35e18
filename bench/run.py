"""Run one geninv benchmark workload and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one process each

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
End-to-end timings are scaled to a nominal host speed by a numpy-only host
reference timed after every op (see bench/runner.py). The lines before it give
each metric with its unit and sample count, the raw timings before scaling,
the numpy.linalg calls per call of the main constructions in a traced pass,
and every failed op with its reason. A traced run also writes its spans to
``.bench_trace/<workload>-seed<seed>.jsonl``.

The benchmark's own tests: ``python3 -m pytest bench/tests``.
"""

import os

# Pin BLAS to one thread before numpy loads: on a 2-core host two BLAS threads
# ran the certify workload about 20% slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("certify", "drivers", "cli")
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import geninv from this checkout's src/; returns the import time in seconds.

    numpy is imported first and not counted: the time is geninv's own.
    """
    src = ROOT / "src"
    if not (src / "geninv" / "__init__.py").is_file():
        raise SystemExit(f"error: no geninv sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import numpy  # noqa: F401

    start = perf_counter()
    import geninv

    took = perf_counter() - start
    if Path(geninv.__file__).resolve().parent != src / "geninv":
        raise SystemExit(f"error: geninv imported from {geninv.__file__}, not {src}")
    return took


def run_workload(args) -> dict:
    import_s = import_library()
    from bench import runner, tracer

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        # setup_s: geninv's import plus the fastest of several set-ups, each
        # scaled to the nominal host by the host reference taken before it
        host_ms, setups = [], []
        for _ in range(runner.SETUP_REPEATS):
            host_ms.append(runner.host_reference_ms())
            pool, took = runner.setup(args.workload, args.seed, workdir)
            setups.append(took * runner.host_scale(host_ms[-1]))
        setup_s = import_s * runner.host_scale(host_ms[0]) + min(setups)
        if args.trace:
            untraced, samples, spans, operands, child_cost = runner.traced_pass(pool)
            trace_file = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(trace_file, spans, [op.label for op in pool])
            counts = runner.call_counts(spans, pool)
            metrics = runner.layer_metrics(spans, pool, child_cost)
            busy = sum(s.seconds for s in untraced)
            metrics["trace.overhead_frac"] = sum(s.seconds for s in samples) / busy - 1.0
            metrics["reference.pinv_ratio"] = runner.pinv_ratio(operands)
            samples = untraced + samples
        else:
            samples = runner.run_passes(
                pool, args.seconds, reference=True, min_samples=runner.MIN_SAMPLES
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = runner.failure_lines(samples)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics["host.ref_ms"] = statistics.median(host_ms)
        lines += [f"{args.workload} calls {k}: {v}" for k, v in counts.items()]
        lines.append(
            f"{args.workload} tracer cost per traced call, taken out of self times: "
            f"{child_cost[True] * 1e6:.3g} us linalg, {child_cost[False] * 1e6:.3g} us other"
        )
        lines.append(f"{args.workload} spans written to {trace_file.relative_to(ROOT)}")
        counted = {k: (v, len(samples) // 2) for k, v in metrics.items()}
    else:
        counted = runner.end_to_end(samples, setup_s)
        failed = sum(s.failure is not None for s in samples)
        lines.append(f"{args.workload} failed_frac = {failed / len(samples):.6g} (n={len(samples)})")
        refs = [s.ref_s * 1e3 for s in samples]
        lines.append(f"{args.workload} host_ref_ms = {statistics.median(refs):.6g} ms (n={len(refs)})")
        raw = runner.timings(samples, [s.seconds for s in samples])
        lines += [f"{args.workload} raw {k} = {v:.6g} {units[k]} (n={n})" for k, (v, n) in raw.items()]
    if set(counted) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(counted) ^ set(units))} disagree with BENCHMARK.json")
    lines += [f"{args.workload} {k} = {v:.6g} {units[k]} (n={n})" for k, (v, n) in counted.items()]
    metrics = {k: {"value": v, "unit": units[k]} for k, (v, n) in counted.items()}
    return {"lines": lines, "result": {**runner.outcome_summary(samples), "metrics": metrics}}


def metric_units(group: str) -> dict[str, str]:
    """Metric name -> unit for one group of BENCHMARK.json, the list of record."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[group]}


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    results, status = {}, 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        out = child.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not out:
            status = child.returncode or 1
            continue
        results[workload] = json.loads(out[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args)
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
