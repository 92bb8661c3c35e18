"""Command-line interface.

Every subcommand reads matrices from files in the package's matrix file
format, runs one library operation and emits a deterministic JSON report
(schema 1). Exit codes: 0 success, 1 input error, 2 existence failure; error
reports always carry "error", "clause" and "margin" keys.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import diagnostics, families, kernel
from .calculus import MatrixCurve, finite_difference_check
from .errors import ExistenceError, GenInvError, InputError
from .inverses import (
    InverseCertificate,
    bc_inverse,
    bott_duffin,
    inverse_along,
    moore_penrose,
    outer_prescribed,
)
from .kernel import ToleranceConfig
from .matio import matrix_to_json, parse_matrix
from .perturb import perturbed_bc_inverse
from .subspace import ObliqueProjector, column_space, gap, gap_sampling_oracle

SCHEMA_VERSION = 1
_SEQCHECK_DEFAULT_RES_TOL = 1e-2  # finite-sequence convergence proxy


@dataclass
class RunConfig:
    rank_rel_tol: float = 1e-10
    residual_tol: float | None = None  # None = per-subcommand default
    seed: int = 0
    fd_step_sweep: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
    out: str | None = None
    kind: str = "mp"
    t0: float = 0.0
    family: str = "additive"
    indices: int = 50
    trials: int = 0

    def tolerances(self, subcommand: str) -> ToleranceConfig:
        res = self.residual_tol
        if res is None:
            res = _SEQCHECK_DEFAULT_RES_TOL if subcommand == "seqcheck" else 1e-10
        return ToleranceConfig(
            rank_rel_tol=self.rank_rel_tol,
            residual_tol=res,
            fd_step_sweep=self.fd_step_sweep,
        )


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if math.isnan(v) else v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _certificate_report(subcommand: str, cert: InverseCertificate) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "subcommand": subcommand,
        "kind": cert.kind,
        "field": "complex" if np.iscomplexobj(cert.inverse) else "real",
        "inverse": matrix_to_json(cert.inverse),
        "residuals": {k: float(v) for k, v in sorted(cert.residuals.items())},
        "restricted_condition": float(cert.restricted_condition),
        "range_gap": float(cert.range_gap),
        "nullspace_gap": float(cert.nullspace_gap),
        "complement_margin": float(cert.complement_margin),
    }


def _cmd_pinv(paths, config: RunConfig) -> dict:
    tol = config.tolerances("pinv")
    return _certificate_report("pinv", moore_penrose(parse_matrix(paths[0]), tol))


def _cmd_bcinv(paths, config: RunConfig) -> dict:
    tol = config.tolerances("bcinv")
    a, b, c = (parse_matrix(p) for p in paths)
    return _certificate_report("bcinv", bc_inverse(a, b, c, tol))


def _cmd_outer(paths, config: RunConfig) -> dict:
    tol = config.tolerances("outer")
    a = parse_matrix(paths[0])
    t_space = column_space(parse_matrix(paths[1]), tol)
    s_space = column_space(parse_matrix(paths[2]), tol)
    return _certificate_report("outer", outer_prescribed(a, t_space, s_space, tol))


def _cmd_along(paths, config: RunConfig) -> dict:
    tol = config.tolerances("along")
    return _certificate_report(
        "along", inverse_along(parse_matrix(paths[0]), parse_matrix(paths[1]), tol)
    )


def _cmd_bottduffin(paths, config: RunConfig) -> dict:
    tol = config.tolerances("bottduffin")
    a = parse_matrix(paths[0])
    p = ObliqueProjector.from_matrix(parse_matrix(paths[1]), tol)
    q = ObliqueProjector.from_matrix(parse_matrix(paths[2]), tol)
    return _certificate_report("bottduffin", bott_duffin(a, p, q, tol))


def _cmd_gap(paths, config: RunConfig) -> dict:
    tol = config.tolerances("gap")
    m_space = column_space(parse_matrix(paths[0]), tol)
    n_space = column_space(parse_matrix(paths[1]), tol)
    result = gap(m_space, n_space)
    report = {
        "schema": SCHEMA_VERSION,
        "subcommand": "gap",
        "delta_mn": result.delta_mn,
        "delta_nm": result.delta_nm,
        "gap": result.gap,
        "dim_m": m_space.dim,
        "dim_n": n_space.dim,
    }
    if config.trials > 0:
        report["sampling_lower_bound"] = gap_sampling_oracle(
            m_space, n_space, config.trials, config.seed
        )
    return report


def _cmd_perturb(paths, config: RunConfig) -> dict:
    tol = config.tolerances("perturb")
    a, b, c, e = (parse_matrix(p) for p in paths)
    cert = bc_inverse(a, b, c, tol)
    report = perturbed_bc_inverse(cert, e, tol)
    return {
        "schema": SCHEMA_VERSION,
        "subcommand": "perturb",
        "radius": report.radius,
        "outside_ball": report.outside_ball,
        "formula_inverse": matrix_to_json(report.formula_inverse),
        "direct_inverse": None
        if report.direct_inverse is None
        else matrix_to_json(report.direct_inverse),
        "discrepancy": report.discrepancy,
        "factorization_discrepancy": report.factorization_discrepancy,
        "bound_value": "inapplicable" if report.bound_value is None else report.bound_value,
        "actual_error": report.actual_error,
    }


def _cmd_derivcheck(paths, config: RunConfig) -> dict:
    tol = config.tolerances("derivcheck")
    mats = [parse_matrix(p) for p in paths]
    domain = (config.t0 - 1.0, config.t0 + 1.0)
    if config.kind == "mp":
        base, step = mats
        curves = [MatrixCurve(lambda t: base + t * step, domain, "a")]
    elif config.kind == "bc":
        a0, a1, b0, b1, c0, c1 = mats
        curves = [
            MatrixCurve(lambda t: a0 + t * a1, domain, "a"),
            MatrixCurve(lambda t: b0 + t * b1, domain, "b"),
            MatrixCurve(lambda t: c0 + t * c1, domain, "c"),
        ]
    elif config.kind == "oip":
        a0, a1, t0m, t1m, s0m, s1m = mats

        def projector_curve(base, step):
            def evaluate(t):
                q, _ = np.linalg.qr(base + t * step)
                return q @ q.conj().T

            return evaluate

        curves = [
            MatrixCurve(lambda t: a0 + t * a1, domain, "a"),
            MatrixCurve(projector_curve(t0m, t1m), domain, "p"),
            MatrixCurve(projector_curve(s0m, s1m), domain, "q"),
        ]
    else:
        raise InputError(f"unknown derivative kind {config.kind!r}")
    report = finite_difference_check(curves, config.t0, tol, config.kind)
    return {
        "schema": SCHEMA_VERSION,
        "subcommand": "derivcheck",
        "kind": config.kind,
        "t0": report.t0,
        "formula_derivative": matrix_to_json(report.formula_derivative),
        "fd_errors": [[s, e] for s, e in report.fd_errors],
        "observed_order": report.observed_order,
    }


def _cmd_seqcheck(paths, config: RunConfig) -> dict:
    tol = config.tolerances("seqcheck")
    rng = np.random.default_rng(config.seed)
    a, b, c = (parse_matrix(p) for p in paths)
    if config.family == "additive":
        limit = (a, b, c)
        sequence = families.additive_family(a, b, c, config.indices, rng, tol)
    elif config.family == "rotating":
        limit = (a, b, c)
        sequence = families.rotating_family(a, b, c, config.indices, rng, tol)
    elif config.family == "rankdrop":
        rank = kernel.numerical_rank(kernel.singular_values(a), tol)
        if rank >= a.shape[0]:
            raise InputError("rankdrop families need a rank-deficient limit matrix")
        limit, sequence = families.rankdrop_family(
            rng, a.shape[0], rank, config.indices, np.iscomplexobj(a)
        )
    else:
        raise InputError(f"unknown family {config.family!r}")
    report = diagnostics.sequence_report(limit, sequence, tol)
    return {
        "schema": SCHEMA_VERSION,
        "subcommand": "seqcheck",
        "family": config.family,
        "indices": config.indices,
        "verdicts": dict(sorted(report.verdicts.items())),
        "alarm": report.alarm,
        "failed_indices": list(report.failed_indices),
        "records": {name: getattr(report, name) for name in diagnostics.RECORD_NAMES},
    }


_HANDLERS = {
    "pinv": (_cmd_pinv, 1),
    "bcinv": (_cmd_bcinv, 3),
    "outer": (_cmd_outer, 3),
    "along": (_cmd_along, 2),
    "bottduffin": (_cmd_bottduffin, 3),
    "gap": (_cmd_gap, 2),
    "perturb": (_cmd_perturb, 4),
    "derivcheck": (_cmd_derivcheck, None),  # arity depends on --kind
    "seqcheck": (_cmd_seqcheck, 3),
}


def run_subcommand(name: str, inputs, config: RunConfig) -> tuple[dict, int]:
    """Run one subcommand; returns (report, exit_code) and never raises."""
    try:
        if name not in _HANDLERS:
            raise InputError(f"unknown subcommand {name!r}")
        handler, arity = _HANDLERS[name]
        if name == "derivcheck":
            arity = 2 if config.kind == "mp" else 6
        if arity is not None and len(inputs) != arity:
            raise InputError(f"{name} takes {arity} input file(s), got {len(inputs)}")
        report = handler(list(inputs), config)
        return _json_safe(report), 0
    except ExistenceError as exc:
        return _error_report(name, exc, exc.clause, _json_safe(exc.margin)), 2
    except (GenInvError, OSError, ValueError, np.linalg.LinAlgError) as exc:
        return _error_report(name, exc, "input"), 1


def _error_report(subcommand: str, exc: Exception, clause: str, margin=None) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "subcommand": subcommand,
        "error": str(exc),
        "clause": clause,
        "margin": margin,
    }


def _parse_steps(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise InputError(f"unparsable step list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geninv",
        description="Generalized inverses with prescribed range and null space.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=1e-10, help="relative rank cutoff")
    common.add_argument("--tol-res", type=float, default=None, help="residual tolerance")
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default: $GENINV_SEED or 0)")
    common.add_argument("--steps", type=str, default=None, help="comma list of FD steps")
    common.add_argument("--out", type=str, default=None, help="write the JSON report here")

    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text, arity in (
        ("pinv", "Moore-Penrose inverse of A", ("A",)),
        ("bcinv", "(B,C)-inverse of A", ("A", "B", "C")),
        ("outer", "outer inverse of A with range span(T) and null space span(S)", ("A", "T", "S")),
        ("along", "inverse of A along D", ("A", "D")),
        ("bottduffin", "(P,Q)-inverse of A for idempotents P, Q", ("A", "P", "Q")),
        ("gap", "gap between span(M) and span(N)", ("M", "N")),
        ("perturb", "closed-form perturbed inverse of A+E", ("A", "B", "C", "E")),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("inputs", nargs=len(arity), metavar=("FILE",) * len(arity))
        if name == "gap":
            p.add_argument("--trials", type=int, default=0, help="sampling-oracle trials")

    p = sub.add_parser("derivcheck", parents=[common], help="finite-difference derivative check")
    p.add_argument("--kind", choices=("bc", "mp", "oip"), default="mp")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument(
        "inputs",
        nargs="+",
        metavar="FILE",
        help="mp: A0 A1; bc: A0 A1 B0 B1 C0 C1; oip: A0 A1 T0 T1 S0 S1 (base + direction)",
    )

    p = sub.add_parser("seqcheck", parents=[common], help="sequence convergence diagnostics")
    p.add_argument("--family", choices=("additive", "rotating", "rankdrop"), default="additive")
    p.add_argument("--indices", type=int, default=50)
    p.add_argument("inputs", nargs=3, metavar=("A", "B", "C"))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # map argparse usage errors onto the input-error exit code
        return 0 if exc.code in (0, None) else 1
    try:
        seed = args.seed
        if seed is None:
            seed = int(os.environ.get("GENINV_SEED", "0"))
        config = RunConfig(
            rank_rel_tol=args.tol_rank,
            residual_tol=args.tol_res,
            seed=seed,
            fd_step_sweep=_parse_steps(args.steps) if args.steps else (1e-2, 1e-3, 1e-4, 1e-5),
            out=args.out,
            kind=getattr(args, "kind", "mp"),
            t0=getattr(args, "t0", 0.0),
            family=getattr(args, "family", "additive"),
            indices=getattr(args, "indices", 50),
            trials=getattr(args, "trials", 0),
        )
    except (GenInvError, ValueError) as exc:
        report = _error_report(args.subcommand, exc, "input")
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
        return 1
    report, code = run_subcommand(args.subcommand, args.inputs, config)
    text = json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
