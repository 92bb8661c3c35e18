"""In-memory span tracer around the geninv modules and numpy.linalg.

Each public function of the traced geninv modules is wrapped once and the
wrapper is bound in place of the original in every geninv module that holds
it: modules import names directly (``from .kernel import spectral_norm``), so
rebinding the defining module alone would miss most calls. The numpy.linalg
entry points are looked up as attributes at call time, so one rebinding each
catches every caller. Originals are restored on exit.

A span is ``[name, start, end, parent, op, error, info]``: parent is the
index of the enclosing span, op the benchmark op id, error the exception type
the call ended with (or None) and info what the function's meter returned.
Spans are recorded only inside ``Tracer.run``, so set-up and output checks
stay out of the trace. They are kept in memory and ``write_spans`` writes
them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

import numpy as np

LAYERS = (
    "kernel",
    "subspace",
    "inverses",
    "perturb",
    "calculus",
    "diagnostics",
    "families",
    "matio",
    "cli",
)
LINALG = ("svd", "qr", "lstsq", "inv", "solve", "matrix_rank")

NAME, START, END, PARENT, OP, ERROR, INFO = range(7)


def linalg_operands(name: str, args, kwargs) -> tuple:
    """What linalg_flops needs of one numpy.linalg call, cheap to take in a span.

    (shape of a, shape of the second operand, full_matrices, compute_uv,
    complex); the flop count itself is computed after the run.
    """
    a = args[0] if args else kwargs.get("a", kwargs.get("A"))
    if name == "svd":
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        return np.shape(a), (), bool(full), bool(uv), np.iscomplexobj(a)
    b = args[1] if len(args) > 1 else kwargs.get("b")
    return np.shape(a), np.shape(b), True, True, np.iscomplexobj(a)


def linalg_flops(name: str, operands) -> float:
    """Computed flop count of one numpy.linalg call, from its operand shapes.

    Textbook dense counts (Golub & Van Loan): thin SVD by R-SVD, full-U SVD,
    singular values only, Householder QR with explicit Q, LU solve and
    inverse, SVD-based least squares. Complex operands count 4 real flops per
    multiply-add. These are computed, not measured.
    """
    shape, rhs, full, uv, complex_ = operands
    if len(shape) < 2:
        return 0.0
    batch = float(np.prod(shape[:-2])) if len(shape) > 2 else 1.0
    m, n = shape[-2:]
    big, k = max(m, n), min(m, n)
    if name in ("svd", "matrix_rank"):
        if name == "matrix_rank" or not uv:
            flops = 4.0 * big * k * k - 4.0 * k**3 / 3.0
        elif full:
            flops = 4.0 * big * big * k + 8.0 * big * k * k + 9.0 * k**3
        else:
            flops = 6.0 * big * k * k + 20.0 * k**3
    elif name == "qr":
        flops = 4.0 * big * k * k - 4.0 * k**3 / 3.0
    elif name == "inv":
        flops = 2.0 * n**3
    else:  # solve, lstsq: right-hand sides from the second operand
        nrhs = rhs[-1] if len(rhs) == len(shape) else 1
        if name == "solve":
            flops = 2.0 * n**3 / 3.0 + 2.0 * n * n * nrhs
        else:
            flops = 4.0 * big * k * k + 8.0 * k**3 + 2.0 * big * k * nrhs
    if complex_:
        flops *= 4.0
    return batch * flops


def _traced_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield name, value


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    meters maps a span name to ``meter(args, kwargs, result)``, called after a
    successful call; its value is stored as the span's info.
    """

    def __init__(self, meters=None):
        self.spans: list[list] = []
        self.meters = dict(meters or {})
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"geninv.{layer}")
            for name, fn in _traced_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        packages = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "geninv" or name.startswith("geninv.")
        ]
        for module in packages:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bind(module, name, hit[1])
        for name in LINALG:
            fn = getattr(np.linalg, name)
            meter = functools.partial(_linalg_meter, name)
            self._bind(np.linalg, name, self._wrap(f"linalg.{name}", fn, meter))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _bind(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, name: str, fn, meter=None):
        meter = meter or self.meters.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], self._op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc)
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if meter is not None:
                span[INFO] = meter(args, kwargs, result)
            return result

        return traced

    def run(self, op_id: int, call):
        """Call ``call()`` as op ``op_id`` under an "op" span.

        Returns (outcome, seconds), where outcome is the result or the
        exception the call raised.
        """
        self._op = op_id
        span = ["op", 0.0, 0.0, -1, op_id, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            outcome = call()
        except Exception as exc:
            outcome = exc
            span[ERROR] = type(exc)
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            self._op = None
        return outcome, span[END] - span[START]

    def child_cost(self, calls: int = 2000, repeats: int = 3) -> dict[bool, float]:
        """Seconds one traced call adds to the self time of its parent span.

        A wrapper's bookkeeping and meter run outside its own span, so their
        cost lands in the parent's self time. It is timed here on wrapped
        no-op calls, for numpy.linalg calls (key True) and the rest (False),
        so that layer_metrics can take it out again. The calibration spans are
        dropped.
        """
        a = np.eye(4)

        def noop(*args):
            return None

        def loop(fn):
            for _ in range(calls):
                fn(a)

        costs = {}
        svd_meter = functools.partial(_linalg_meter, "svd")
        for linalg, name, meter in ((False, "calibrate.noop", None), (True, "linalg.svd", svd_meter)):
            wrapped = self._wrap(name, noop, meter)
            best = float("inf")
            for _ in range(repeats):
                first = len(self.spans)
                start = perf_counter()
                loop(noop)
                bare = perf_counter() - start
                self.run(-1, lambda: loop(wrapped))
                op, children = self.spans[first], self.spans[first + 1 :]
                covered = sum(span[END] - span[START] for span in children)
                best = min(best, (op[END] - op[START] - covered - bare) / calls)
                del self.spans[first:]
            costs[linalg] = max(best, 0.0)
        return costs


def _linalg_meter(name, args, kwargs, result):
    return linalg_operands(name, args, kwargs)


def write_spans(path, spans, labels) -> None:
    """Write spans as JSON lines after a header line that names each op id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(json.dumps({"ops": labels}) + "\n")
        for span in spans:
            error = span[ERROR]
            record = span[:ERROR] + [error.__name__ if error else None]
            handle.write(json.dumps(record) + "\n")
