"""Record every outcome of the op pools from one source tree, and diff two records.

    python tests/replay.py record TREE OUT.jsonl [--seeds 0 1 2] [--pools certify cli ...]
                                                 [--every K]
    python tests/replay.py diff A.jsonl B.jsonl

``record`` imports ``geninv`` from TREE/src and the pools from TREE/bench, runs each op of
the certify, drivers and cli pools and of this file's curves and grid pools (or those
``--pools`` names; with ``--every K`` only every K-th op of each) once per seed, and writes a
header line (numpy's version, its BLAS and the BLAS thread settings), then one JSON line per
op: its case id, its outcome, the verdict of its own oracle check and any warning that
reached the caller. An outcome is written field by field: certificates with their lazily
read numbers, reports with their records and verdicts, errors with their type, message,
clause and margin, and CLI requests as the exit code and the SHA-256 of the report bytes.
Floats are written as ``float.hex`` and arrays as the SHA-256 of their shape, dtype and
bytes, so two records agree only where every bit does. ``diff`` prints both headers and says
when they differ: the same input and seed give the same bits only on the same numpy build and
BLAS thread count, so ``record`` run as a script pins the BLAS to one thread, as bench/run.py
does. Then it groups the moved cases by pool and field: decision fields (outcome type, error,
clause, check, verdicts, alarm, failed indices, exit code) apart from a CLI report's hash, which
moves with any float the report prints, and from the floats, each float field with its largest
move in ulps and its largest absolute move; last it prints the count.
Run ``record`` once per tree, each in its own process.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # before numpy loads
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

POOLS = ("certify", "drivers", "cli", "curves", "grid")


def digest(value):
    """A JSON form of ``value`` that tells every bit apart."""
    import geninv as gi

    if isinstance(value, np.ndarray):
        h = hashlib.sha256(repr((value.shape, value.dtype.str)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
        return "array:" + h.hexdigest()
    if isinstance(value, BaseException):
        return {"error": type(value).__name__, "message": str(value),
                "clause": getattr(value, "clause", None),
                "margin": digest(getattr(value, "margin", None))}
    if isinstance(value, gi.Subspace):
        return {"ambient_dim": value.ambient_dim, "basis": digest(value.basis)}
    if isinstance(value, gi.InverseCertificate):
        names = [f.name for f in dataclasses.fields(value) if f.name != "_memo"]
        names += [k for k, v in vars(gi.InverseCertificate).items() if isinstance(v, property)]
        return {name: digest(getattr(value, name)) for name in names}
    if dataclasses.is_dataclass(value):
        return {f.name: digest(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): digest(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [digest(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def curves_pool(seed: int, workdir: Path) -> list:
    """Derivative checks the benchmark's pools leave out: ``finite_difference_check`` on the
    family curves (bc, mp and oip; real and complex; t0 = 0 and 0.1), and a ``derivcheck``
    request of each kind, field and t0 on affine curves whose ranks hold near t0."""
    import geninv as gi
    from bench.workloads import Op, _CliOp
    from geninv import families

    def second_order(outcome):
        if isinstance(outcome, BaseException):
            return f"{type(outcome).__name__}: {outcome}"
        order = outcome.observed_order
        return None if order == "exact" or 1.5 <= order <= 2.5 else f"observed order {order}"

    def exit_zero(outcome):
        return None if outcome == 0 else f"exit code {outcome!r}"

    makers = {"bc": lambda r, cx: families.bc_curves(r, 6, 3, cx),
              "mp": lambda r, cx: [families.mp_curve(r, 6, 5, 3, cx)],
              "oip": lambda r, cx: families.oip_curves(r, 6, 5, 3, cx)}
    rng, ops = np.random.default_rng(seed), []
    workdir.mkdir(parents=True, exist_ok=True)
    for kind, make in makers.items():
        for cx in (False, True):
            field = "c" if cx else "r"
            curves = make(rng, cx)
            files = _affine_files(families, rng, kind, cx)
            for t0 in (0.0, 0.1):
                check = functools.partial(gi.finite_difference_check, curves, t0, gi.DEFAULT_TOL,
                                          kind)
                ops.append(Op(f"derivative/{kind}/6/{field}/t0={t0}", 6, check, second_order))
                request = _CliOp(workdir / f"{kind}{field}{t0}", "derivcheck", files)
                request.argv += ["--kind", kind, "--t0", str(t0)]
                ops.append(Op(f"derivcheck/{kind}/6/{field}/t0={t0}", 6, request.call, exit_zero))
    return ops


def _affine_files(families, rng, kind: str, cx: bool) -> dict:
    """Base and direction matrices of a derivcheck request: each rank-deficient base x0 moves
    as (I + t L) x0 (c as c (I + t L)), so its rank holds near t0."""
    def turn(n):
        return 0.1 * families.random_matrix(rng, n, n, cx)

    def move(x0):
        return turn(x0.shape[0]) @ x0

    if kind == "mp":
        a = families.random_rank_matrix(rng, 6, 5, 3, cx)
        return {"a0": a, "a1": move(a)}
    if kind == "bc":
        a, b, c = families.random_solvable_triple(rng, 6, 3, cx)
        return {"a0": a, "a1": move(a), "b0": b, "b1": move(b), "c0": c, "c1": c @ turn(6)}
    a, t, s = families.random_outer_instance(rng, 6, 5, 3, cx)
    return {"a0": a, "a1": move(a), "t0": t.basis, "t1": move(t.basis), "s0": s.basis,
            "s1": move(s.basis)}


# the grid's sweep: 10^k scales of the operator and rank_rel_tol values
GRID_EXPONENTS = (0, 3, -3, 6, -6, 150, -150, -308, -309, -320)
GRID_RANK_TOLS = (1e-10, 0.0, 1e-3, 0.2, 0.45, 0.9)


def grid_pool(seed: int, workdir: Path) -> list:
    """6 x 6 constructions of every kind (moore_penrose, outer_prescribed, bc_inverse,
    inverse_along, bott_duffin) at each of ``GRID_EXPONENTS``' scales 10^k of the operator and
    each of ``GRID_RANK_TOLS``, real and complex, on three operators each: a plain one, one that
    kills a vector of the prescribed range T and one that shrinks it to 1e-9 (Moore-Penrose: a
    singular value set to 0 and to 1e-9 sigma_1). Every kind but Moore-Penrose has a fourth,
    wide operator: the plain one plus 1e7 (I - P_T), which the inverse annihilates, so the core
    H A F is the plain one's while ||a|| is about 1e7 sigma_max(H A F); its cases come after all
    others. The bench pools reach none of: subnormal and overflowing defects, residuals judged
    at the exact ||a||. An outcome other than a result, an ExistenceError (a CertificateError is
    one) or an InputError fails the case's check."""
    import geninv as gi
    from bench.workloads import Op

    def expected(outcome):
        if isinstance(outcome, BaseException) and not isinstance(
                outcome, (gi.ExistenceError, gi.InputError)):
            return f"{type(outcome).__name__}: {outcome}"
        return None

    rng, ops, cases = np.random.default_rng(seed), [], {}
    for cx in (False, True):
        cases.update(_grid_cases(rng, cx))
    for name in sorted(cases, key=lambda name: "/wide/" in name):  # the others keep their ids
        for k in GRID_EXPONENTS:
            for rank_tol in GRID_RANK_TOLS:
                tol = gi.ToleranceConfig(rank_rel_tol=rank_tol)
                ops.append(Op(f"grid/{name}/k={k}/rank_tol={rank_tol}", 6,
                              functools.partial(cases[name], 10.0 ** k, tol), expected))
    return ops


def _grid_cases(rng, cx: bool) -> dict:
    """kind/variant/field -> call(scale, tol) of one field's grid instances."""
    import geninv as gi
    from geninv import families

    a, t, s = families.random_outer_instance(rng, 6, 6, 3, cx)
    b = t.basis @ families.random_matrix(rng, 3, 6, cx)  # R(b) = T and N(c) = S
    c = families.random_matrix(rng, 6, 3, cx) @ gi.orthogonal_complement(s).basis.conj().T
    # p onto T and q onto a(T), both along S: outer inverses of I
    p, q = (gi.ObliqueProjector(x.inverse, x.prescribed_range, s, x.inverse_norm) for x in (
        gi.outer_prescribed(np.eye(6), r, s) for r in (t, gi.column_space(a @ t.basis))))
    families.random_rank_matrix(rng, 6, 6, 3, cx)  # three draws no case reads: the complex
    families.random_subspace(rng, 6, 3, cx)  # field's instances stay those of earlier records
    families.random_subspace(rng, 6, 3, cx)
    u, sigma, vh = np.linalg.svd(a)
    t0 = t.basis[:, :1]  # the unit vector shrunk
    cases = {}
    for variant, shrink in (("plain", 1.0), ("kills", 0.0), ("nearly", 1e-9)):
        name = f"{variant}/{'c' if cx else 'r'}"
        at_t = a - (1.0 - shrink) * (a @ t0) @ t0.conj().T
        mp_a = a if shrink == 1 else (u * np.append(sigma[:-1], shrink * sigma[0])) @ vh
        cases.update({
            f"moore_penrose/{name}": _scaled(gi.moore_penrose, mp_a),
            f"outer_prescribed/{name}": _scaled(gi.outer_prescribed, at_t, t, s),
            f"bc_inverse/{name}": _scaled(gi.bc_inverse, at_t, b, c),
            f"inverse_along/{name}": _scaled(gi.inverse_along, at_t, b),
            f"bott_duffin/{name}": _scaled(gi.bott_duffin, at_t, p, q)})
    wide = a + 1e7 * (np.eye(6) - t.basis @ t.basis.conj().T)  # (I - P_T) x = 0
    name = f"wide/{'c' if cx else 'r'}"
    cases.update({f"outer_prescribed/{name}": _scaled(gi.outer_prescribed, wide, t, s),
                  f"bc_inverse/{name}": _scaled(gi.bc_inverse, wide, b, c),
                  f"inverse_along/{name}": _scaled(gi.inverse_along, wide, b),
                  f"bott_duffin/{name}": _scaled(gi.bott_duffin, wide, p, q)})
    return cases


def _scaled(construct, a, *operands):
    """construct(scale * a, *operands, tol) as a call of (scale, tol)."""
    return lambda scale, tol: construct(scale * a, *operands, tol)


def header() -> dict:
    """What the bits of a record depend on besides the tree, the input and the seed."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def record(tree: Path, out: Path, seeds, pools=POOLS, every: int = 1) -> int:
    sys.path[:0] = [str(tree / "src"), str(tree)]
    from bench.workloads import POOLS as BENCH_POOLS

    builders = {**BENCH_POOLS, "curves": curves_pool, "grid": grid_pool}

    lines = 0
    with open(out, "w") as handle, tempfile.TemporaryDirectory() as workdir:
        handle.write(json.dumps({"header": header()}, sort_keys=True) + "\n")
        for pool in pools:
            for seed in seeds:
                ops = builders[pool](seed, Path(workdir) / f"{pool}{seed}")
                for k, op in list(enumerate(ops))[::every]:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            outcome = op.call()
                        except Exception as exc:  # the outcome is the error raised
                            outcome = exc
                    line = {"case": f"{pool}/{seed}/{k}/{op.label}", "outcome": digest(outcome),
                            "check": op.check(outcome)}
                    if caught:  # a warning that reached the caller
                        line["warnings"] = sorted({f"{w.category.__name__}: {w.message}"
                                                   for w in caught})
                    request = getattr(op.call, "__self__", None)  # a CLI request: its report
                    if request is not None:
                        line["report"] = hashlib.sha256(request.out.read_bytes()).hexdigest()
                    handle.write(json.dumps(line, sort_keys=True) + "\n")
                    lines += 1
    print(f"{lines} cases recorded to {out}")
    return 0


# leaves that carry a decision: outcome type, error, clause, oracle check, verdicts, alarm,
# failed indices (a CLI request's exit code is an int outcome; its report hash is a kind apart)
DECISIONS = {"error", "clause", "check", "verdicts", "alarm", "failed_indices"}


def _moved(a, b, path=""):
    """(path, a leaf, b leaf) of each leaf where a and b differ; path has no indices."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = list(dict.fromkeys([*a, *b]))
        return [m for k in keys for m in _moved(a.get(k), b.get(k), f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [m for x, y in zip(a, b) for m in _moved(x, y, path)]
    return [] if a == b else [(path or ".", a, b)]


def _move(a, b) -> tuple[int | float, float] | None:
    """How far apart two ``float.hex`` strings lie, in doubles and absolutely (both inf where one
    is not finite), or None unless both are floats."""
    try:
        x, y = float.fromhex(a), float.fromhex(b)
    except (TypeError, ValueError):
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf, math.inf
    ordered = [(i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)) for i in
               struct.unpack("<2q", struct.pack("<2d", x, y))]
    return abs(ordered[0] - ordered[1]), abs(x - y)


def diff(first: Path, second: Path) -> int:
    """The moved cases, grouped by pool and field: decision fields apart, CLI report hashes
    apart, each float field with its largest move in ulps and its largest absolute move, and the
    other fields (arrays, messages); 1 if any case moved."""
    a, b = ([json.loads(line) for line in p.read_text().splitlines()] for p in (first, second))
    headers = [rs.pop(0)["header"] if rs and "header" in rs[0] else None for rs in (a, b)]
    if any(headers):
        for which, head in zip(("first", "second"), headers):
            print(f"{which} header: {json.dumps(head, sort_keys=True)}")
        if headers[0] != headers[1]:
            print("the headers differ: bits may move with the numpy build or BLAS threads")
    cases_a, cases_b = ({r["case"]: r for r in rs} for rs in (a, b))
    if list(cases_a) != list(cases_b):
        print("the two records hold different cases")
        return 1
    groups: dict = {}  # (kind, pool, field) -> [cases moved, largest ulps, largest |move|]
    moved = 0
    for case, line in cases_a.items():
        leaves = _moved(line, cases_b[case])
        moved += bool(leaves)
        for field, x, y in leaves:
            move = _move(x, y)
            kind = ("report" if field == ".report"
                    else "decision" if DECISIONS & set(field.split(".")) or isinstance(x, int)
                    else "other" if move is None else "float")
            entry = groups.setdefault((kind, case.split("/")[0], field), [set(), 0, 0.0])
            entry[0].add(case)
            entry[1:] = map(max, entry[1:], move or (0, 0.0))
    for (kind, pool, field), (cases, ulps, absolute) in sorted(groups.items()):
        largest = (f", largest move {ulps:g} ulp{'s' * (ulps != 1)}, {absolute:.2g} absolute"
                   if kind == "float" else "")
        print(f"{kind} {pool} {field}: {len(cases)} case(s){largest}")
    print(f"{moved} of {len(cases_a)} cases moved")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("tree", type=Path)
    rec.add_argument("out", type=Path)
    rec.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    rec.add_argument("--pools", nargs="+", choices=POOLS, default=list(POOLS))
    rec.add_argument("--every", type=int, default=1,
                     help="record only every EVERY-th case of each pool and seed (a slice)")
    dif = sub.add_parser("diff")
    dif.add_argument("first", type=Path)
    dif.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.tree.resolve(), args.out, args.seeds, args.pools, args.every)
    return diff(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
