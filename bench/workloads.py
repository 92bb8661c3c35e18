"""The benchmark's three op pools: certify, drivers and cli.

A pool is a fixed list of ops whose composition (kinds, sizes, fields,
infeasible and scaled variants) is the same for every seed; the seed only
draws the matrices. The runner cycles through whole pools, so every run
measures the same mix and the traced counts repeat exactly.

Each op holds a zero-argument ``call`` into the geninv public API and a
``check(outcome)`` that compares the outcome (a result, an exit code or the
exception raised) with the independent oracle and returns None on success or
the reason for failure. Library functions are looked up on their module at
call time, so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

import geninv as gi
from geninv import cli as gcli
from geninv import families

from . import gen, oracle

INVERSE_RTOL = 1e-10  # relative Frobenius error allowed against the oracle
INDICES = 50  # sequence length of the drivers' continuity reports
SEQ_TOL = gi.ToleranceConfig(residual_tol=1e-2)  # the seqcheck convergence proxy


@dataclass(frozen=True)
class Op:
    label: str
    size: int
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    indices: int = 0  # sequence indices the op evaluates (drivers)


def describe(outcome) -> str:
    if isinstance(outcome, BaseException):
        return f"{type(outcome).__name__}: {outcome}"
    return f"result {type(outcome).__name__}"


def _field(complex_: bool) -> str:
    return "c" if complex_ else "r"


def _expect_inverse(expected):
    expected = cache(expected)

    def check(outcome):
        if isinstance(outcome, BaseException):
            return describe(outcome)
        err = oracle.rel_error(outcome.inverse, expected())
        return None if err <= INVERSE_RTOL else f"inverse off the oracle by {err:.2e}"

    return check


def _expect_clause(clause: str):
    def check(outcome):
        if not isinstance(outcome, gi.ExistenceError) or isinstance(
            outcome, gi.CertificateError
        ):
            return f"expected ExistenceError({clause!r}), got {describe(outcome)}"
        if outcome.clause != clause:
            return f"expected clause {clause!r}, got {outcome.clause!r}"
        return None

    return check


def _rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def _build(seed: int, specs) -> list[Op]:
    """One op per (maker, *args) spec, each from its own stream, in seeded order."""
    ops = [make(_rng(seed, i), *args) for i, (make, *args) in enumerate(specs)]
    order = _rng(seed, len(specs)).permutation(len(ops))
    return [ops[i] for i in order]


# --------------------------------------------------------------- certify

KINDS = ("mp", "outer", "outer_rect", "bc", "bott_duffin", "along")
# (kind, exponent): every |k| in {4, 6, 8} once per sign.
SCALED = (("mp", 6), ("mp", -8), ("outer", -4), ("bc", 8), ("bott_duffin", -6), ("along", 4))


def certify_specs():
    """(kind, n, complex, defect, scale exponent) for the 92 ops of the pool.

    74 feasible ops, mostly at n=64, then 128 and 256; 12 infeasible ones
    (1 in 8) and 6 scaled ones (1 in 16). The complex (b, c), Bott-Duffin and
    along inverses at n=256 are left out: they took 40% of a pass. Without
    them a run holds more passes, and the 90th percentile lies among the
    samples of the two like-sized complex Bott-Duffin ops at n=128 instead of
    on the step between two n=256 ops of different cost.
    """
    specs = [
        (kind, n, cx, None, 0)
        for n, reps in ((64, 3), (128, 2), (256, 1))
        for _ in range(reps)
        for kind in KINDS
        for cx in (False, True)
        if not (n == 256 and cx and kind in ("bc", "bott_duffin", "along"))
    ]
    specs += [(kind, 64, False, None, 0) for kind in KINDS[:5]]
    for i, kind in enumerate(KINDS[1:]):
        specs.append((kind, 64, i % 2 == 1, gen.NOT_INJECTIVE, 0))
        specs.append((kind, 64, i % 2 == 0, gen.NOT_COMPLEMENT, 0))
    specs.append(("outer", 128, False, gen.NOT_INJECTIVE, 0))
    specs.append(("bc", 128, True, gen.NOT_COMPLEMENT, 0))
    specs += [(kind, 64, i % 2 == 1, None, k) for i, (kind, k) in enumerate(SCALED)]
    return specs


def _certify_op(rng, kind, n, cx, defect, exponent) -> Op:
    scale = 10.0**exponent
    label = f"{kind}/{n}/{_field(cx)}"
    if defect:
        label += "/infeasible:" + ("injective" if defect == gen.NOT_INJECTIVE else "complement")
    if exponent:
        label += f"/x1e{exponent:+d}"
    if kind == "mp":
        a = scale * gen.conditioned(rng, n, n, cx)
        return Op(label, n, lambda: gi.moore_penrose(a), _expect_inverse(lambda: oracle.pinv(a)))

    m = 3 * n // 4 if kind == "outer_rect" else n
    inst = gen.outer_instance(rng, m, n, n // 2, cx, defect).scaled(scale)
    a = inst.a
    if kind in ("outer", "outer_rect"):
        t, s = gi.Subspace(n, inst.t), gi.Subspace(m, inst.s)
        call = lambda: gi.outer_prescribed(a, t, s)  # noqa: E731
    elif kind == "bc":
        b, c = inst.bc_pair(rng)
        call = lambda: gi.bc_inverse(a, b, c)  # noqa: E731
    elif kind == "bott_duffin":
        p, q = (gi.ObliqueProjector.from_matrix(x) for x in inst.projectors())
        call = lambda: gi.bott_duffin(a, p, q)  # noqa: E731
    else:
        d = inst.along_element(rng)
        call = lambda: gi.inverse_along(a, d)  # noqa: E731
    if inst.clause:
        return Op(label, n, call, _expect_clause(inst.clause))
    expected = lambda: oracle.outer_inverse(a, inst.t, inst.s_perp)  # noqa: E731
    return Op(label, n, call, _expect_inverse(expected))


def certify_pool(seed: int, workdir: Path) -> list[Op]:
    return _build(seed, [(_certify_op, *spec) for spec in certify_specs()])


# --------------------------------------------------------------- drivers


def _spectral(x) -> float:
    return float(np.linalg.norm(x, 2))


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= 1e-8 * max(1.0, scale)


def _check_report(report, expect: bool, want_error: float, scale: float):
    if report.alarm:
        return "verdict alarm raised"
    if report.failed_indices:
        return f"failed indices {list(report.failed_indices)}"
    wrong = sorted(k for k, v in report.verdicts.items() if v != expect)
    if wrong:
        return f"verdicts {wrong} are not {expect}"
    if not _close(report.inverse_error[-1], want_error, scale):
        return f"final inverse error {report.inverse_error[-1]:.6e}, oracle {want_error:.6e}"
    return None


def _sequence_op(rng, family: str, n: int) -> Op:
    inst = gen.outer_instance(rng, n, n, n // 2, False)
    a = inst.a
    b, c = inst.bc_pair(rng)
    family_seed = int(rng.integers(2**63))

    def call():
        frng = np.random.default_rng(family_seed)
        if family == "rankdrop":
            limit, seq = families.rankdrop_family(frng, n, n // 2, INDICES)
        else:
            limit = (a, b, c)
            build = getattr(families, f"{family}_family")
            seq = build(a, b, c, INDICES, frng, SEQ_TOL)
        return gi.sequence_report(limit, seq, SEQ_TOL), limit, seq

    def check(outcome):
        if isinstance(outcome, BaseException):
            return describe(outcome)
        report, limit, seq = outcome
        x = oracle.bc_inverse(*limit)
        want = _spectral(oracle.bc_inverse(*seq[-1]) - x)
        return _check_report(report, family != "rankdrop", want, _spectral(x))

    return Op(f"sequence/{family}/{n}", n, call, check, INDICES)


def _continuity_op(rng, family: str, cx: bool) -> Op:
    family_seed = int(rng.integers(2**63))
    name = "mp_convergent_sequence" if family == "convergent" else "mp_rankdrop_sequence"

    def call():
        frng = np.random.default_rng(family_seed)
        a, seq = getattr(families, name)(frng, 8, 4, INDICES, cx)
        return gi.mp_continuity_report(a, seq, SEQ_TOL), a, seq

    def check(outcome):
        if isinstance(outcome, BaseException):
            return describe(outcome)
        report, a, seq = outcome
        x = oracle.pinv(a)
        want = _spectral(oracle.pinv(seq[-1]) - x)
        return _check_report(report, family == "convergent", want, _spectral(x))

    return Op(f"continuity/{family}/8/{_field(cx)}", 8, call, check, INDICES)


def _retry(make, rng, tries: int = 20):
    """Rejection-sampled family generators can give up; draw again."""
    for _ in range(tries):
        try:
            return make(rng)
        except gi.GenInvError:
            continue
    raise RuntimeError("family generator failed on every draw")


def _derivative_op(rng, kind: str, cx: bool) -> Op:
    if kind == "bc":
        curves = _retry(lambda r: families.bc_curves(r, 12, 6, cx), rng)

        def inverse_at(t):
            a, b, c = (curve(t) for curve in curves)
            return oracle.bc_inverse(a, b, c)

    elif kind == "mp":
        curves = [families.mp_curve(rng, 12, 10, 5, cx)]

        def inverse_at(t):
            return oracle.pinv(curves[0](t))

    else:
        curves = _retry(lambda r: families.oip_curves(r, 12, 10, 5, cx), rng)

        def inverse_at(t):
            a, p, q = (curve(t) for curve in curves)
            return oracle.outer_inverse(a, oracle.range_basis(p), oracle.complement_basis(q))

    def derivative(h=1e-3):  # fourth-order central difference
        near = inverse_at(h) - inverse_at(-h)
        far = inverse_at(2 * h) - inverse_at(-2 * h)
        return (8.0 * near - far) / (12.0 * h)

    expected = cache(derivative)

    def call():
        return gi.finite_difference_check(curves, 0.0, gi.DEFAULT_TOL, kind)

    def check(outcome):
        if isinstance(outcome, BaseException):
            return describe(outcome)
        order = outcome.observed_order
        if order != "exact" and not 1.5 <= order <= 2.5:
            return f"observed order {order}, expected 2"
        err = oracle.rel_error(outcome.formula_derivative, expected())
        return None if err <= 1e-6 else f"derivative off the oracle by {err:.2e}"

    return Op(f"derivative/{kind}/12/{_field(cx)}", 12, call, check)


def _perturb_op(rng, n: int, cx: bool, outside: bool) -> Op:
    inst = gen.outer_instance(rng, n, n, n // 2, cx)
    b, c = inst.bc_pair(rng)
    cert = gi.bc_inverse(inst.a, b, c)
    radius = 1.0 / _spectral(cert.inverse)
    g = gen.gaussian(rng, n, n, cx)
    g /= _spectral(g)
    if outside:
        # a multiple of a plus a small turn: 1.5 radii out, inverse still exists
        eps = 1.5 / (_spectral(inst.a) * _spectral(cert.inverse))
        e = eps * inst.a + 0.05 * radius * g
    else:
        e = 0.3 * radius * g
    expected = cache(lambda: oracle.outer_inverse(inst.a + e, inst.t, inst.s_perp))

    def call():
        return gi.perturbed_bc_inverse(cert, e)

    def check(outcome):
        if isinstance(outcome, BaseException):
            return describe(outcome)
        if outcome.outside_ball != outside:
            return f"outside_ball={outcome.outside_ball}, expected {outside}"
        if outcome.direct_inverse is None:
            return "no direct inverse"
        for name in ("formula_inverse", "direct_inverse"):
            err = oracle.rel_error(getattr(outcome, name), expected())
            if err > INVERSE_RTOL:
                return f"{name} off the oracle by {err:.2e}"
        return None

    where = "outside" if outside else "inside"
    return Op(f"perturb/{where}/{n}/{_field(cx)}", n, call, check)


def _zero_limit_op(rng, zero_from: int | None) -> Op:
    """Certificates of (a_k, b_k, c_k) whose inverse is zero exactly where b_k = c_k = 0.

    zero_from=None alternates zero and nonzero inverses, ending nonzero.
    """
    n, count = 6, 12
    inst = gen.outer_instance(rng, n, n, n // 2, False)
    b, c = inst.bc_pair(rng)
    drift = 0.05 * gen.gaussian(rng, n, n, False) / n
    if zero_from is None:
        zero = [k % 2 == 1 for k in range(1, count + 1)]
        expected = (False, None)
    else:
        zero = [k >= zero_from for k in range(1, count + 1)]
        expected = (True, zero_from)
    problems = [
        (inst.a + drift / k, 0 * b if z else b, 0 * c if z else c)
        for k, z in zip(range(1, count + 1), zero)
    ]

    def call():
        return gi.zero_limit_check([gi.bc_inverse(*p) for p in problems])

    def check(outcome):
        if isinstance(outcome, BaseException):
            return describe(outcome)
        return None if tuple(outcome) == expected else f"got {outcome}, expected {expected}"

    return Op(f"zero_limit/{zero_from or 'divergent'}/{n}", n, call, check)


DRIVER_SPECS = (
    *((_sequence_op, f, n) for n in (6, 20) for f in ("additive", "rotating", "rankdrop")),
    (_sequence_op, "additive", 20),
    *((_continuity_op, f, cx) for f in ("convergent", "rankdrop") for cx in (False, True)),
    # Cost order: perturbation < zero-limit < mp, oip derivative < (b, c)
    # derivative < continuity, 6x6 sequence < 20x20 sequence. The five
    # like-sized (b, c) checks fill ranks 11-15 of 26, so the median op is one
    # of them; the four 20x20 sequences fill ranks 23-26, so the 90th
    # percentile lies among them and not on the step below them.
    *((_derivative_op, kind, False) for kind in ("bc",) * 5 + ("mp", "oip")),
    *(
        (_perturb_op, n, n % 2 == 1, outside)
        for n, outside in ((10, False), (11, False), (12, False), (10, True), (11, True))
    ),
    *((_zero_limit_op, z) for z in (5, 9, None)),
)


def drivers_pool(seed: int, workdir: Path) -> list[Op]:
    return _build(seed, DRIVER_SPECS)


# ------------------------------------------------------------------- cli


def write_matrix(path: Path, a) -> None:
    """Write the geninv matrix file format with 17 significant digits."""
    a = np.asarray(a)
    rows, cols = a.shape
    body = a
    if np.iscomplexobj(a):
        body = np.stack([a.real, a.imag], axis=-1).reshape(rows, 2 * cols)
    with open(path, "w") as handle:
        handle.write(f"{rows} {cols} {'complex' if np.iscomplexobj(a) else 'real'}\n")
        np.savetxt(handle, body, fmt="%.17g")


def _json_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1] if arr.ndim == 3 else arr


class _CliOp:
    """Files and argv for one in-process CLI request."""

    def __init__(self, prefix: Path, subcommand: str, matrices: dict):
        self.out = Path(f"{prefix}.json")
        paths = []
        for name, a in matrices.items():
            path = Path(f"{prefix}_{name}.mat")
            write_matrix(path, a)
            paths.append(str(path))
        self.paths = paths
        self.argv = [subcommand, *paths, "--out", str(self.out)]

    def call(self):
        self.out.unlink(missing_ok=True)
        return gcli.main(self.argv)

    def report(self) -> dict:
        with open(self.out) as handle:
            return json.load(handle)


def _cli_inverse_op(rng, prefix, sub, n, cx) -> Op:
    m = 5 * n // 4 if sub == "outer_rect" else n
    inst = gen.outer_instance(rng, m, n, n // 2, cx)
    a = inst.a
    key = "inverse"
    if sub == "pinv":
        a = gen.conditioned(rng, n, n, cx)
        files = {"a": a}
        expected = lambda: oracle.pinv(a)  # noqa: E731
    else:
        expected = lambda: oracle.outer_inverse(a, inst.t, inst.s_perp)  # noqa: E731
        if sub == "bcinv":
            b, c = inst.bc_pair(rng)
            files = {"a": a, "b": b, "c": c}
        elif sub in ("outer", "outer_rect"):
            files = {"a": a, "t": inst.t, "s": inst.s}
        elif sub == "along":
            files = {"a": a, "d": inst.along_element(rng)}
        elif sub == "bottduffin":
            p, q = inst.projectors()
            files = {"a": a, "p": p, "q": q}
        else:  # perturb, inside the openness ball
            b, c = inst.bc_pair(rng)
            g = gen.gaussian(rng, n, n, cx)
            x = oracle.outer_inverse(a, inst.t, inst.s_perp)
            e = 0.3 * g / (_spectral(g) * _spectral(x))
            files = {"a": a, "b": b, "c": c, "e": e}
            expected = lambda: oracle.outer_inverse(a + e, inst.t, inst.s_perp)  # noqa: E731
            key = "formula_inverse"
    request = _CliOp(prefix, "outer" if sub == "outer_rect" else sub, files)
    expected = cache(expected)

    def check(code):
        if code != 0:
            return f"exit code {code!r}, expected 0"
        err = oracle.rel_error(_json_matrix(request.report()[key]), expected())
        return None if err <= INVERSE_RTOL else f"{key} off the oracle by {err:.2e}"

    shape = f"{m}x{n}" if m != n else f"{n}"
    return Op(f"{sub}/{shape}/{_field(cx)}", n, request.call, check)


def _cli_gap_op(rng, prefix, cx) -> Op:
    m = gen.gaussian(rng, 3000, 8, cx)
    n = m + 0.2 * gen.gaussian(rng, 3000, 8, cx)
    request = _CliOp(prefix, "gap", {"m": m, "n": n})
    want = cache(lambda: oracle.gap(m, n))

    def check(code):
        if code != 0:
            return f"exit code {code!r}, expected 0"
        got = request.report()["gap"]
        return None if abs(got - want()) <= 1e-10 else f"gap {got!r}, oracle {want()!r}"

    return Op(f"gap/3000x8/{_field(cx)}", 3000, request.call, check)


def _cli_error_op(rng, prefix, sub, cx, defect) -> Op:
    """A request that must fail: a malformed file (exit 1) or no inverse (exit 2)."""
    n = 128
    inst = gen.outer_instance(rng, n, n, n // 2, cx, defect)
    if sub == "bcinv":
        b, c = inst.bc_pair(rng)
        files = {"a": inst.a, "b": b, "c": c}
    else:
        files = {"a": inst.a, "t": inst.t, "s": inst.s}
    request = _CliOp(prefix, sub, files)
    if defect is None:
        # corrupt one entry in the middle of the last file
        path = Path(request.paths[-1])
        lines = path.read_text().splitlines()
        tokens = lines[len(lines) // 2].split()
        tokens[len(tokens) // 2] = "1.5.2"
        lines[len(lines) // 2] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        want_code, want_clause, what = 1, "input", "malformed"
    else:
        want_code, want_clause, what = 2, inst.clause, "no-inverse"

    def check(code):
        if code != want_code:
            return f"exit code {code!r}, expected {want_code}"
        clause = request.report().get("clause")
        return None if clause == want_clause else f"clause {clause!r}, expected {want_clause!r}"

    return Op(f"{sub}/{n}/{_field(cx)}/{what}", n, request.call, check)


CLI_SPECS = (
    *(
        (_cli_inverse_op, sub, n, cx)
        for sub, n, cx in (
            ("pinv", 128, False),
            ("pinv", 128, True),
            ("pinv", 128, False),
            ("pinv", 200, False),
            ("pinv", 300, False),
            ("bcinv", 128, False),
            ("bcinv", 128, True),
            ("outer", 128, False),
            ("outer", 128, True),
            ("outer_rect", 128, False),
            ("along", 128, False),
            ("along", 128, True),
            ("bottduffin", 128, False),
            ("bottduffin", 128, True),
            ("perturb", 128, False),
            ("perturb", 128, True),
        )
    ),
    *((_cli_gap_op, cx) for cx in (False, True, False, True, False)),
    (_cli_error_op, "bcinv", False, None),
    (_cli_error_op, "outer", True, None),
    (_cli_error_op, "bcinv", False, gen.NOT_COMPLEMENT),
    (_cli_error_op, "outer", True, gen.NOT_INJECTIVE),
)


def cli_pool(seed: int, workdir: Path) -> list[Op]:
    os.makedirs(workdir, exist_ok=True)
    specs = [(make, workdir / f"op{i}", *args) for i, (make, *args) in enumerate(CLI_SPECS)]
    return _build(seed, specs)


POOLS = {"certify": certify_pool, "drivers": drivers_pool, "cli": cli_pool}
