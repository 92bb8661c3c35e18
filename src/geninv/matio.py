"""Matrix file parsing and serialization.

Format: a header line ``rows cols field`` with field in {real, complex},
followed by whitespace-separated entries in row-major order. Complex entries
are written as ``re im`` token pairs. Serialization uses 17 significant
digits, so parse(serialize(a)) reproduces a bit for bit, signed zeros included.

A token is anything Python's ``float()`` accepts, and rows may break at any
``str.splitlines`` break. A bad or non-finite token is an error naming its
line and its position in that line.
"""

from __future__ import annotations

import math
import os.path
import re
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import InputError

# the header ends at the first break str.splitlines knows, not only at "\n"
_FIRST_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


def _tokens_with_positions(lines, start):
    for line_no, line in enumerate(lines, start=start):
        for col_no, token in enumerate(line.split(), start=1):
            yield token, line_no, col_no


def _parse_float(token: str, line_no: int, col_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise InputError(
            f"unparsable entry {token!r} at line {line_no}, token {col_no}"
        ) from None
    if not math.isfinite(value):
        raise InputError(
            f"non-finite entry {token!r} at line {line_no}, token {col_no}"
        )
    return value


def parse_matrix(source) -> np.ndarray:
    """Parse a matrix from a path, a string of file content, or a text stream."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and not source:  # Path("") is ".", which exists
        text = source
    else:
        path = Path(source)
        if os.path.exists(path):  # False, not OSError, for content longer than a file name
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:  # a directory, an unreadable file; str(exc) names the path
                raise InputError(str(exc)) from None
            except UnicodeDecodeError as exc:
                raise InputError(f"matrix file {source} is not UTF-8 text: {exc}") from None
        elif isinstance(source, str) and "\n" in source:
            text = source
        else:
            raise InputError(f"no such matrix file: {source}")
    header_line = _FIRST_LINE.match(text)[0]
    header = header_line.split()
    if not header:
        raise InputError("missing header line 'rows cols field'")
    if len(header) != 3:
        raise InputError(f"malformed header {header_line!r}, expected 'rows cols field'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise InputError(f"malformed header {header_line!r}, rows/cols must be integers") from None
    field = header[2]
    if rows < 1 or cols < 1:
        raise InputError("rows and cols must be positive")
    if field not in ("real", "complex"):
        raise InputError(f"unknown field {field!r}, expected 'real' or 'complex'")

    # the header's tokens lead text.split(): its line ends at a break, and breaks are whitespace;
    # np.array calls float() on each body token, as the loop below, without a frame per token
    try:
        values = np.array(text.split()[len(header) :], dtype=np.float64)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():  # the loop names the first bad token
        tokens = _tokens_with_positions(text.splitlines()[1:], start=2)
        values = np.array([_parse_float(*token) for token in tokens], dtype=np.float64)
    per_entry = 2 if field == "complex" else 1
    if field == "complex" and len(values) % 2:
        raise InputError(
            f"complex body must hold 're im' pairs, found {len(values)} tokens"
        )
    found = len(values) // per_entry
    if found != rows * cols:
        raise InputError(f"expected {rows * cols} entries, found {found}")
    if field == "complex":  # (re, im) pairs are complex128's memory layout: exact, no copy
        return values.view(np.complex128).reshape(rows, cols)
    return values.reshape(rows, cols)


def serialize_matrix(a) -> str:
    """Render a matrix in the file format at full double precision."""
    a = np.asarray(a)
    if a.ndim != 2 or 0 in a.shape:
        raise InputError("only nonempty 2-d matrices can be serialized")
    field = "complex" if np.iscomplexobj(a) else "real"
    body = np.stack([a.real, a.imag], axis=-1).reshape(len(a), -1) if field == "complex" else a
    out = StringIO()
    np.savetxt(out, body, fmt="%.17g", header=f"{a.shape[0]} {a.shape[1]} {field}", comments="")
    return out.getvalue()


def save_matrix(a, path) -> None:
    Path(path).write_text(serialize_matrix(a))


def matrix_to_json(a):
    """Nested lists for JSON embedding; complex entries become [re, im] pairs."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = np.stack([a.real, a.imag], axis=-1)
    return a.astype(np.float64, copy=False).tolist()
