"""Load generator, output checks and metrics for one workload.

Load comes from one caller in a closed loop with no think time: the next op
starts when the previous op and its output check have finished. Only the
library call is timed. The loop runs whole passes over the workload's pool
and starts another pass only while it fits in the time budget, so every run
measures the same mix of ops.

Host speed on a shared machine drifts by up to 2x over minutes, the same for
geninv as for plain numpy. So after every op the loop also times a fixed
numpy-only job, the host reference, and the end-to-end timings are scaled to
a host on which that job takes NOMINAL_REF_MS: each op's time is multiplied by
NOMINAL_REF_MS over the median reference time of the ops around it. The
reference never calls geninv, so a change to geninv moves the scaled timings
exactly as it moves the raw ones; run.py prints the raw ones too.
"""

from __future__ import annotations

import os
import resource
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import geninv as gi

from .tracer import END, ERROR, INFO, LAYERS, NAME, OP, PARENT, START, Tracer, linalg_flops
from .workloads import POOLS, describe

SETUP_REPEATS = 3
MIN_SAMPLES = 100  # ops per run, so that ten samples lie beyond the 90th percentile
NOMINAL_REF_MS = 2.0  # the host reference's typical time on the baseline machine
REF_WINDOW = 5  # ops on each side whose reference times scale an op's time
_REFERENCE = np.random.default_rng(0).standard_normal((96, 96))
LAYER_NAMES = ("linalg", *LAYERS)
FACT_CALLS = (
    "inverses.moore_penrose",
    "inverses.outer_prescribed",
    "inverses.bc_inverse",
    "diagnostics.sequence_report",
)
PINV_OPERANDS = 64  # moore_penrose operands kept for the pinv reference


@dataclass(frozen=True)
class Sample:
    op_id: int
    label: str
    seconds: float
    failure: str | None
    refused: bool  # a CertificateError on a feasible instance
    ref_s: float | None = None  # host reference time taken right after the op


def timed(op_id: int, call):
    """Untraced counterpart of Tracer.run: (outcome, seconds)."""
    start = perf_counter()
    try:
        outcome = call()
    except Exception as exc:
        outcome = exc
    return outcome, perf_counter() - start


def judge(op, outcome) -> str | None:
    try:
        return op.check(outcome)
    except Exception as exc:
        return f"check failed on {describe(outcome)}: {describe(exc)}"


def host_reference_s() -> float:
    """Time of one fixed numpy-only job: an SVD of a fixed 96x96 matrix."""
    start = perf_counter()
    np.linalg.svd(_REFERENCE)
    return perf_counter() - start


def host_reference_ms(repeats: int = 9) -> float:
    return statistics.median(host_reference_s() for _ in range(repeats)) * 1e3


def host_scale(ref_ms: float) -> float:
    """Factor that takes a time on this host, now, to the nominal host."""
    return NOMINAL_REF_MS / ref_ms


def setup(workload: str, seed: int, workdir: Path):
    """Build the workload's pool and warm it up; returns (pool, seconds)."""
    start = perf_counter()
    pool = POOLS[workload](seed, workdir)
    smallest = {}
    for op in pool:
        kind = op.label.partition("/")[0]
        if kind not in smallest or op.size < smallest[kind].size:
            smallest[kind] = op
    for op in smallest.values():
        judge(op, timed(0, op.call)[0])
    return pool, perf_counter() - start


def run_passes(
    pool, seconds: float, runner=timed, reference: bool = False, min_samples: int = 0
) -> list[Sample]:
    """Whole passes over the pool while another pass fits in ``seconds``.

    Passes go on until there are ``min_samples`` samples; with ``reference``
    each op is followed by one timing of the host reference.
    """
    samples = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for op_id, op in enumerate(pool):
            outcome, took = runner(op_id, op.call)
            ref_s = host_reference_s() if reference else None
            failure = judge(op, outcome)
            refused = failure is not None and isinstance(outcome, gi.CertificateError)
            samples.append(Sample(op_id, op.label, took, failure, refused, ref_s))
        now = perf_counter()
        if now - start + (now - pass_start) > seconds and len(samples) >= min_samples:
            return samples


def outcome_summary(samples) -> dict:
    failed = [s for s in samples if s.failure is not None]
    return {
        # a refusal is a failed op, but not a wrong output
        "correct": all(s.refused for s in failed),
        "attempted": len(samples),
        "failed": len(failed),
    }


def failure_lines(samples) -> list[str]:
    seen = Counter((s.op_id, s.label, s.failure) for s in samples if s.failure is not None)
    return [
        f"failed op {op_id} {label} x{count}: {reason}"
        for (op_id, label, reason), count in sorted(seen.items())
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled_seconds(samples) -> list[float]:
    """Each op's time scaled to the nominal host by the references around it.

    Samples without reference times are returned unscaled.
    """
    refs = [s.ref_s for s in samples]
    if None in refs:
        return [s.seconds for s in samples]
    around = (refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1] for i in range(len(refs)))
    return [s.seconds * host_scale(1e3 * statistics.median(r)) for s, r in zip(samples, around)]


def timings(samples, seconds) -> dict[str, tuple[float, int]]:
    """ops_per_s, op_ms_p50 and op_ms_p90 over every sample, from ``seconds``."""
    passed = [t for s, t in zip(samples, seconds) if s.failure is None]
    ms = np.array(passed) * 1e3
    return {
        "ops_per_s": (len(passed) / sum(seconds), len(passed)),
        "op_ms_p50": (float(np.percentile(ms, 50)), len(passed)),
        "op_ms_p90": (float(np.percentile(ms, 90)), len(passed)),
    }


def end_to_end(samples, setup_s: float) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count); timings scaled to the nominal host."""
    return {
        **timings(samples, scaled_seconds(samples)),
        "passed_frac": (sum(s.failure is None for s in samples) / len(samples), len(samples)),
        "setup_s": (setup_s, SETUP_REPEATS),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


# ------------------------------------------------------------ traced run


def _file_bytes(args, kwargs, result) -> int:
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, (str, os.PathLike)) and os.path.isfile(source):
        return os.path.getsize(source)
    return len(source) if isinstance(source, str) else 0


def _report_bytes(args, kwargs, result) -> int:
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        return os.path.getsize(out) if os.path.isfile(out) else 0
    return 0


def traced_pass(pool):
    """Untraced then traced passes.

    Returns (untraced, traced, spans, operands, child cost).

    The untraced pass that is returned is the second one, so that both
    compared passes run with warm caches.
    """
    run_passes(pool, 0.0)
    untraced = run_passes(pool, 0.0)
    operands: list[np.ndarray] = []

    def keep_operand(args, kwargs, result):
        if len(operands) < PINV_OPERANDS:
            operands.append(args[0] if args else kwargs["a"])

    meters = {
        "inverses.moore_penrose": keep_operand,
        "matio.parse_matrix": _file_bytes,
        "cli.main": _report_bytes,
    }
    with Tracer(meters) as tracer:
        traced = run_passes(pool, 0.0, tracer.run)
        child_cost = tracer.child_cost()
    return untraced, traced, tracer.spans, operands, child_cost


def _ancestors(spans, index: int):
    parent = spans[index][PARENT]
    while parent >= 0:
        yield parent
        parent = spans[parent][PARENT]


def call_counts(spans, pool) -> dict[str, dict[str, float]]:
    """Mean numpy.linalg calls per completed call of each FACT_CALLS function.

    sequence_report is keyed by the op that ran it, e.g.
    ``diagnostics.sequence_report[sequence/additive/6]``.
    """
    per_call: dict[int, Counter] = {}
    for index, span in enumerate(spans):
        if span[NAME] in FACT_CALLS and span[ERROR] is None:
            per_call[index] = Counter()
    for index, span in enumerate(spans):
        if span[NAME].startswith("linalg."):
            for parent in _ancestors(spans, index):
                if parent in per_call:
                    per_call[parent][span[NAME][len("linalg."):]] += 1
    grouped: dict[str, list[Counter]] = {}
    for index, counts in per_call.items():
        key = spans[index][NAME]
        if key == "diagnostics.sequence_report":
            key += f"[{pool[spans[index][OP]].label}]"
        grouped.setdefault(key, []).append(counts)
    return {
        key: {
            fn: sum(c[fn] for c in calls) / len(calls)
            for fn in sorted(set().union(*calls))
        }
        for key, calls in sorted(grouped.items())
    }


def layer_metrics(spans, pool, child_cost=None) -> dict[str, float]:
    """Per-layer counts, self times and shares over the traced ops.

    child_cost is Tracer.child_cost(): the wrapper cost of each traced call is
    taken out of its parent's self time and out of the op time that shares
    are taken of, so that self times estimate the untraced ones.
    """
    cost = child_cost or {False: 0.0, True: 0.0}
    child = [0.0] * len(spans)
    overhead = 0.0
    for span in spans:
        if span[PARENT] >= 0:
            extra = cost[span[NAME].startswith("linalg.")]
            child[span[PARENT]] += span[END] - span[START] + extra
            overhead += extra
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls: Counter = Counter()
    op_seconds, ops = 0.0, 0
    linalg_us, flops = [], 0.0
    constructions = rejected = under_diagnostics = 0
    bytes_in, parse_s, report_bytes = 0, 0.0, 0
    for index, span in enumerate(spans):
        name = span[NAME]
        took = span[END] - span[START]
        if name == "op":
            ops += 1
            op_seconds += took
            continue
        layer = name.partition(".")[0]
        self_s[layer] += took - child[index]
        calls[layer] += 1
        calls[name] += 1
        if layer == "linalg":
            linalg_us.append(took * 1e6)
            flops += linalg_flops(name[len("linalg."):], span[INFO])
        elif layer == "inverses" and not spans[span[PARENT]][NAME].startswith("inverses."):
            constructions += 1
            error = span[ERROR]
            # a CertificateError is a refused result, not an existence rejection
            if (
                error is not None
                and issubclass(error, gi.ExistenceError)
                and not issubclass(error, gi.CertificateError)
            ):
                rejected += 1
            if any(spans[p][NAME].startswith("diagnostics.") for p in _ancestors(spans, index)):
                under_diagnostics += 1
        elif name == "matio.parse_matrix" and span[INFO] is not None:
            bytes_in += span[INFO]
            parse_s += took
        elif name == "cli.main" and span[INFO] is not None:
            report_bytes += span[INFO]
    op_indices = [pool[span[OP]].indices for span in spans if span[NAME] == "op"]
    counts = call_counts(spans, pool)

    def svd_per(key: str) -> float:
        return counts.get(key, {}).get("svd", 0.0)

    reports = {
        i for i, span in enumerate(spans)
        if span[NAME] == "diagnostics.sequence_report" and span[ERROR] is None
    }
    report_indices = sum(pool[spans[i][OP]].indices for i in reports)
    report_svds = sum(
        1
        for i, span in enumerate(spans)
        if span[NAME] == "linalg.svd" and any(p in reports for p in _ancestors(spans, i))
    )

    metrics = {
        "linalg.calls_per_op": calls["linalg"] / ops,
        "linalg.svd_per_op": calls["linalg.svd"] / ops,
        "linalg.ms_per_op": self_s["linalg"] * 1e3 / ops,
        "linalg.computed_gflop_per_op": flops / 1e9 / ops,
        "linalg.us_per_call_p50": statistics.median(linalg_us) if linalg_us else 0.0,
        "linalg.gflops": flops / 1e9 / self_s["linalg"] if self_s["linalg"] else 0.0,
        "linalg.svd_per_moore_penrose": svd_per("inverses.moore_penrose"),
        "linalg.svd_per_outer_prescribed": svd_per("inverses.outer_prescribed"),
        "linalg.svd_per_bc_inverse": svd_per("inverses.bc_inverse"),
        "linalg.svd_per_sequence_index": report_svds / report_indices if reports else 0.0,
        "kernel.calls_per_op": calls["kernel"] / ops,
        "subspace.gap_calls_per_op": calls["subspace.gap"] / ops,
        "families.calls_per_op": calls["families"] / ops,
        "inverses.rejected_frac": rejected / constructions if constructions else 0.0,
        "diagnostics.inverses_per_index": (
            under_diagnostics / sum(op_indices) if sum(op_indices) else 0.0
        ),
        "matio.bytes_in_per_op": bytes_in / ops,
        "matio.parse_mb_per_s": bytes_in / 1e6 / parse_s if parse_s else 0.0,
        "cli.report_bytes_per_op": report_bytes / ops,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = self_s[layer] * 1e3 / ops
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_share"] = self_s[layer] / (op_seconds - overhead)
    return metrics


def pinv_ratio(operands) -> float:
    """geninv.moore_penrose time over np.linalg.pinv time on the same operands."""
    if not operands:
        return 0.0

    def best_of(fn, repeats=2):
        times = []
        for _ in range(repeats):
            start = perf_counter()
            for a in operands:
                fn(a)
            times.append(perf_counter() - start)
        return min(times)

    return best_of(gi.moore_penrose) / best_of(np.linalg.pinv)
