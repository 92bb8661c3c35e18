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
does. It matches the two records' cases by pool, seed, label and occurrence among equal labels,
not by the op's index in its pool, so a case added to or removed from a pool leaves the others
matched. Then it groups the moved cases by pool and field: decision fields (outcome type, error,
clause, check, verdicts, alarm, failed indices, exit code) apart from a CLI report's hash, which
moves with any float the report prints, and from the floats, each float field with its largest
move in ulps and its largest absolute move; it prints the count, and last each case that only one
record holds.
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
    at the exact ||a||. Last comes a near-threshold slice (``_near_threshold_cases``), where
    sigma_min(H A F) crosses rank_rel_tol ||a||, so a change to the existence decision shows. An
    outcome other than a result, an ExistenceError (a CertificateError is one) or an InputError
    fails the case's check."""
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
    for name, call in _near_threshold_cases(rng).items():  # after the others: they keep their ids
        ops.append(Op(f"grid/{name}", 6, call, expected))
    return ops


NEAR_EPS = tuple(10.0 ** -k for k in range(4, 17))  # the nearly degenerate probe's sweep
CROSSING_EPS = (3e-11, 1e-10, 3e-10)  # sigma_min(core) / ||a|| about rank_rel_tol 1e-10


def nearly_degenerate(eps: float) -> tuple:
    """a = diag(1, eps, 1, 1), T = span(e1, e2) and S = span(w, e4), w = (0, sqrt(1 - eps^2),
    eps, 0): both clauses hold, at sigma_min(A F) = eps and complement margin about 0.71 eps,
    but the core's sigma_min is eps^2 ||a||, so kappa = ||a|| ||x|| = 1 / eps^2."""
    import geninv as gi

    e = np.eye(4)
    w = np.array([[0.0], [np.sqrt(1 - eps**2)], [eps], [0.0]])
    return np.diag([1.0, eps, 1.0, 1.0]), gi.Subspace(4, e[:, :2]), gi.Subspace(
        4, np.hstack([w, e[:, 3:]]))


def crossing(kind: str, family: str, rng, complex_: bool):
    """eps -> a 6 x 6 problem, (a, b, c) for bc and (a, T, S) for outer, whose core's sigma_min
    is about eps ||a||: "shrink" scales a by eps on a unit vector t0 of T, "tilt" turns S's
    first basis vector to the angle eps from a t0."""
    import geninv as gi
    from geninv import families

    if kind == "bc":
        a, b, c = families.random_solvable_triple(rng, 6, 3, complex_)
        t, s = gi.column_space(b), gi.null_space(c)
    else:
        a, t, s = families.random_outer_instance(rng, 6, 6, 3, complex_)
    t0, s0 = t.basis[:, :1], s.basis[:, :1]
    u = a @ t0 / np.linalg.norm(a @ t0)
    w = s0 - u @ (u.conj().T @ s0)
    w /= np.linalg.norm(w)
    g = families.random_matrix(rng, 6, 3, complex_)

    def problem(eps: float) -> tuple:
        if family == "shrink":
            return (a - (1 - eps) * (a @ t0) @ t0.conj().T, *((b, c) if kind == "bc" else (t, s)))
        turned = np.hstack([np.cos(eps) * u + np.sin(eps) * w, s.basis[:, 1:]])
        tilted = gi.Subspace(6, np.linalg.qr(turned)[0])
        if kind == "bc":  # N(c) is the tilted S
            return a, b, g @ gi.orthogonal_complement(tilted).basis.conj().T
        return a, t, tilted
    return problem


def _near_threshold_cases(rng) -> dict:
    """label -> call of the grid's near-threshold slice, at the default tolerance: outer_prescribed
    of ``nearly_degenerate`` at each of ``NEAR_EPS``, and bc_inverse on both ``crossing`` families,
    real and complex, at each of ``CROSSING_EPS``."""
    import geninv as gi

    cases = {f"outer_prescribed/near/eps={eps:.0e}/r": functools.partial(
        gi.outer_prescribed, *nearly_degenerate(eps)) for eps in NEAR_EPS}
    for family in ("shrink", "tilt"):
        for cx in (False, True):
            problem = crossing("bc", family, rng, cx)
            cases.update({f"bc_inverse/{family}/eps={eps:.0e}/{'c' if cx else 'r'}":
                          functools.partial(gi.bc_inverse, *problem(eps)) for eps in CROSSING_EPS})
    return cases


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


def _keyed(records: list) -> dict:
    """(pool, seed, label, occurrence among equal labels) -> (case id, the line without it)."""
    keyed, seen = {}, {}
    for line in records:
        line = dict(line)
        case = line.pop("case")
        pool, seed, _, label = case.split("/", 3)  # the op's index in its pool drops out
        seen[pool, seed, label] = seen.get((pool, seed, label), -1) + 1
        keyed[pool, seed, label, seen[pool, seed, label]] = case, line
    return keyed


def diff(first: Path, second: Path) -> int:
    """The moved cases among those both records hold, grouped by pool and field: decision fields
    apart, CLI report hashes apart, each float field with its largest move in ulps and its largest
    absolute move, and the other fields (arrays, messages); then the cases only one record holds.
    1 if any case moved, was removed or was added."""
    a, b = ([json.loads(line) for line in p.read_text().splitlines()] for p in (first, second))
    headers = [rs.pop(0)["header"] if rs and "header" in rs[0] else None for rs in (a, b)]
    if any(headers):
        for which, head in zip(("first", "second"), headers):
            print(f"{which} header: {json.dumps(head, sort_keys=True)}")
        if headers[0] != headers[1]:
            print("the headers differ: bits may move with the numpy build or BLAS threads")
    cases_a, cases_b = _keyed(a), _keyed(b)
    common = [key for key in cases_a if key in cases_b]
    groups: dict = {}  # (kind, pool, field) -> [cases moved, largest ulps, largest |move|]
    moved = 0
    for key in common:
        (case, line), (_, other) = cases_a[key], cases_b[key]
        leaves = _moved(line, other)
        moved += bool(leaves)
        for field, x, y in leaves:
            move = _move(x, y)
            kind = ("report" if field == ".report"
                    else "decision" if DECISIONS & set(field.split(".")) or isinstance(x, int)
                    else "other" if move is None else "float")
            entry = groups.setdefault((kind, key[0], field), [set(), 0, 0.0])
            entry[0].add(case)
            entry[1:] = map(max, entry[1:], move or (0, 0.0))
    for (kind, pool, field), (cases, ulps, absolute) in sorted(groups.items()):
        largest = (f", largest move {ulps:g} ulp{'s' * (ulps != 1)}, {absolute:.2g} absolute"
                   if kind == "float" else "")
        print(f"{kind} {pool} {field}: {len(cases)} case(s){largest}")
    print(f"{moved} of {len(common)} cases moved")
    removed = [case for key, (case, _) in cases_a.items() if key not in cases_b]
    added = [case for key, (case, _) in cases_b.items() if key not in cases_a]
    for case in removed:
        print(f"removed {case}")
    for case in added:
        print(f"added {case}")
    if removed or added:
        print(f"{len(removed)} case(s) removed, {len(added)} added")
    return 1 if moved or removed or added else 0


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
