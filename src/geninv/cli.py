"""Command-line interface.

Every subcommand reads matrices from files in the package's matrix file
format, runs one library operation and emits a deterministic JSON report
(schema 1). Exit codes: 0 success, 1 input error, 2 existence failure; error
reports always carry "error", "clause" and "margin" keys. Every report, error
reports included, goes where ``--out`` points, or to stdout if that file
cannot be written (then as an input error). Usage errors found by argparse
(a wrong number of files, an unknown option or choice) exit 1 with no JSON.
``seqcheck --indices`` must be at least 1. Only gap and seqcheck take ``--seed``
(else $GENINV_SEED, else 0), and only derivcheck takes ``--steps``.

Each subcommand is one subparser carrying its handler; a handler takes the
parsed arguments, the tolerances and the parsed matrices and returns its own
report keys, to which the dispatcher adds "schema" and "subcommand".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

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
from .kernel import DEFAULT_TOL, ToleranceConfig
from .matio import matrix_to_json, parse_matrix
from .perturb import perturbed_bc_inverse
from .subspace import ObliqueProjector, column_space, gap, gap_sampling_oracle

SCHEMA_VERSION = 1
_SEQCHECK_DEFAULT_RES_TOL = 1e-2  # finite-sequence convergence proxy


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        # walked entry by entry only when a NaN entry must become null
        entries = matrix_to_json(value)
        return _json_safe(entries) if np.isnan(value).any() else entries
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if math.isnan(v) else v
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _certificate(cert: InverseCertificate) -> dict:
    return {
        "kind": cert.kind,
        "field": "complex" if np.iscomplexobj(cert.inverse) else "real",
        "inverse": cert.inverse,
        "residuals": cert.residuals,
        "restricted_condition": cert.restricted_condition,
        "range_gap": cert.range_gap,
        "nullspace_gap": cert.nullspace_gap,
        "complement_margin": cert.complement_margin,
    }


def _pinv(args, tol, a) -> dict:
    return _certificate(moore_penrose(a, tol))


def _bcinv(args, tol, a, b, c) -> dict:
    return _certificate(bc_inverse(a, b, c, tol))


def _outer(args, tol, a, t, s) -> dict:
    return _certificate(outer_prescribed(a, column_space(t, tol), column_space(s, tol), tol))


def _along(args, tol, a, d) -> dict:
    return _certificate(inverse_along(a, d, tol))


def _bottduffin(args, tol, a, p, q) -> dict:
    p, q = (ObliqueProjector.from_matrix(m, tol) for m in (p, q))
    return _certificate(bott_duffin(a, p, q, tol))


def _gap(args, tol, m, n) -> dict:
    m_space, n_space = column_space(m, tol), column_space(n, tol)
    report = {**gap(m_space, n_space)._asdict(), "dim_m": m_space.dim, "dim_n": n_space.dim}
    if args.trials > 0:
        report["sampling_lower_bound"] = gap_sampling_oracle(
            m_space, n_space, args.trials, args.seed
        )
    return report


def _perturb(args, tol, a, b, c, e) -> dict:
    report = dict(vars(perturbed_bc_inverse(bc_inverse(a, b, c, tol), e, tol)))
    if report["bound_value"] is None:
        report["bound_value"] = "inapplicable"
    return report


def _derivcheck(args, tol, *mats) -> dict:
    arity = 2 if args.kind == "mp" else 6
    if len(mats) != arity:
        raise InputError(f"derivcheck takes {arity} input file(s), got {len(mats)}")
    for k in range(0, arity, 2):
        if mats[k].shape != mats[k + 1].shape:
            raise InputError(
                "derivcheck base %s is %dx%d but its direction %s is %dx%d"
                % (args.inputs[k], *mats[k].shape, args.inputs[k + 1], *mats[k + 1].shape)
            )

    # for oip the trailing pairs are spanning curves of the range and the null space
    labels = "ats" if args.kind == "oip" else "abc"
    domain = (args.t0 - 1.0, args.t0 + 1.0)
    curves = [
        MatrixCurve(lambda t, base=base, step=step: base + t * step, domain, label)
        for base, step, label in zip(mats[::2], mats[1::2], labels)
    ]
    return {"kind": args.kind, **vars(finite_difference_check(curves, args.t0, tol, args.kind))}


def _seqcheck(args, tol, a, b, c) -> dict:
    if args.indices < 1:
        raise InputError(f"--indices must be at least 1, got {args.indices}")
    rng = np.random.default_rng(args.seed)
    if args.family == "rankdrop":
        rank = kernel.numerical_rank(kernel.singular_values(a), tol)
        if rank >= a.shape[0]:
            raise InputError("rankdrop families need a rank-deficient limit matrix")
        limit, sequence = families.rankdrop_family(
            rng, a.shape[0], rank, args.indices, np.iscomplexobj(a)
        )
    else:
        make = families.additive_family if args.family == "additive" else families.rotating_family
        limit, sequence = (a, b, c), make(a, b, c, args.indices, rng, tol)
    report = diagnostics.sequence_report(limit, sequence, tol)
    return {
        "family": args.family,
        "indices": args.indices,
        "verdicts": report.verdicts,
        "alarm": report.alarm,
        "failed_indices": report.failed_indices,
        "records": {name: getattr(report, name) for name in diagnostics.RECORD_NAMES},
    }


def _tolerances(args) -> ToleranceConfig:
    steps = DEFAULT_TOL.fd_step_sweep
    if "steps" in args and args.steps:
        try:
            steps = tuple(float(tok) for tok in args.steps.split(",") if tok)
        except ValueError:
            raise InputError(f"unparsable step list {args.steps!r}") from None
    return ToleranceConfig(args.tol_rank, args.tol_res, steps)


def _error(exc: Exception, clause: str, margin=None) -> dict:
    return {"error": str(exc), "clause": clause, "margin": margin}


def _render(args, body: dict) -> str:
    report = {"schema": SCHEMA_VERSION, "subcommand": args.subcommand, **body}
    text = json.dumps(_json_safe(report), sort_keys=True, separators=(",", ":"), allow_nan=False)
    return text + "\n"


def _respond(args) -> tuple[str, int]:
    """The rendered report and exit code of one parsed request."""
    try:
        if "seed" in args and args.seed is None:
            seed = os.environ.get("GENINV_SEED", "0")
            try:
                args.seed = int(seed)
            except ValueError:
                raise InputError(f"$GENINV_SEED must be an integer, got {seed!r}") from None
        tol = _tolerances(args)
        return _render(args, args.handler(args, tol, *map(parse_matrix, args.inputs))), 0
    except ExistenceError as exc:
        return _render(args, _error(exc, exc.clause, exc.margin)), 2
    except (GenInvError, OSError, ValueError, np.linalg.LinAlgError) as exc:
        return _render(args, _error(exc, "input")), 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geninv",
        description="Generalized inverses with prescribed range and null space.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, help_text, files, nargs=None, tol_res=DEFAULT_TOL.residual_tol):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("inputs", nargs=nargs or len(files.split()), metavar="FILE", help=files)
        p.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_rel_tol,
                       help="relative rank cutoff")
        p.add_argument("--tol-res", type=float, default=tol_res, help="residual tolerance")
        p.add_argument("--out", help="write the JSON report here")
        return p

    command("pinv", _pinv, "Moore-Penrose inverse of A", "A")
    command("bcinv", _bcinv, "(B,C)-inverse of A", "A B C")
    command("outer", _outer, "outer inverse of A with range span(T), null space span(S)", "A T S")
    command("along", _along, "inverse of A along D", "A D")
    command("bottduffin", _bottduffin, "(P,Q)-inverse of A for idempotents P, Q", "A P Q")
    p = command("gap", _gap, "gap between span(M) and span(N)", "M N")
    p.add_argument("--trials", type=int, default=0, help="sampling-oracle trials")
    p.add_argument("--seed", type=int, help="RNG seed (default: $GENINV_SEED or 0)")
    command("perturb", _perturb, "closed-form perturbed inverse of A+E", "A B C E")
    p = command(
        "derivcheck",
        _derivcheck,
        "finite-difference derivative check",
        "mp: A0 A1; bc: A0 A1 B0 B1 C0 C1; oip: A0 A1 T0 T1 S0 S1 (base + direction)",
        nargs="+",
    )
    p.add_argument("--kind", choices=("bc", "mp", "oip"), default="mp")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--steps", help="comma list of FD steps")
    p = command(
        "seqcheck", _seqcheck, "sequence convergence diagnostics", "A B C",
        tol_res=_SEQCHECK_DEFAULT_RES_TOL,
    )
    p.add_argument("--family", choices=("additive", "rotating", "rankdrop"), default="additive")
    p.add_argument("--indices", type=int, default=50, help="sequence length, at least 1")
    p.add_argument("--seed", type=int, help="RNG seed (default: $GENINV_SEED or 0)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse usage errors exit 1, with no JSON report
        return 0 if exc.code in (0, None) else 1
    text, code = _respond(args)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
            return code
        except OSError as exc:
            text, code = _render(args, _error(exc, "input")), 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
