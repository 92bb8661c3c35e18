import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import matio
from geninv.errors import InputError
from geninv.matio import matrix_to_json, parse_matrix, serialize_matrix


def test_parse_identity():
    assert np.array_equal(parse_matrix(io.StringIO("2 2 real\n1 0\n0 1")), np.eye(2))


def test_parse_complex_unit():
    a = parse_matrix(io.StringIO("1 1 complex\n0 1"))
    assert a.dtype == np.complex128
    assert a[0, 0] == 1j


def test_parse_count_mismatch_message():
    with pytest.raises(InputError, match="expected 4 entries, found 3"):
        parse_matrix(io.StringIO("2 2 real\n1 0\n0"))


def test_parse_reports_token_position():
    with pytest.raises(InputError, match="line 3, token 2"):
        parse_matrix(io.StringIO("2 2 real\n1 0\n0 x"))


def test_parse_rejects_non_finite_tokens():
    with pytest.raises(InputError, match="non-finite"):
        parse_matrix(io.StringIO("1 2 real\nnan 1"))
    with pytest.raises(InputError, match="non-finite"):
        parse_matrix(io.StringIO("1 2 real\n1 inf"))


def test_parse_header_validation():
    with pytest.raises(InputError, match="header"):
        parse_matrix(io.StringIO("2 2\n1 0\n0 1"))
    with pytest.raises(InputError, match="field"):
        parse_matrix(io.StringIO("1 1 rational\n1"))
    with pytest.raises(InputError, match="positive"):
        parse_matrix(io.StringIO("0 2 real\n"))


def test_parse_complex_odd_tokens_rejected():
    with pytest.raises(InputError, match="pairs"):
        parse_matrix(io.StringIO("1 1 complex\n1"))


def test_roundtrip_real_exact(rng):
    for _ in range(20):
        a = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        a *= 10.0 ** rng.integers(-200, 200)
        again = parse_matrix(io.StringIO(serialize_matrix(a)))
        assert np.array_equal(a, again)


def test_roundtrip_complex_exact(rng):
    for _ in range(20):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        again = parse_matrix(io.StringIO(serialize_matrix(a)))
        assert np.array_equal(a, again)


def _bits(a):
    a = np.ascontiguousarray(a)
    return (a.view(np.float64) if np.iscomplexobj(a) else a).view(np.uint64)


@pytest.mark.parametrize("complex_", [False, True])
def test_roundtrip_keeps_every_bit(complex_):
    # np.array_equal cannot see the sign of a zero; the bit patterns can
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e-300, -1e-300, 1.0 / 3.0]
    a = np.array(special).reshape(2, 5)
    if complex_:
        a = a + 0j
        a.imag = np.array(special[::-1]).reshape(2, 5)
        a = np.vstack([a, [[complex(-0.0, 1.0), complex(2.0, -0.0)] * 2 + [0j]]])
    again = parse_matrix(io.StringIO(serialize_matrix(a)))
    assert again.dtype == a.dtype
    assert np.array_equal(_bits(again), _bits(a))


def reference_serialize(a) -> str:
    """The writer as it was before numpy wrote it: every entry through its own f-string."""
    a = np.asarray(a)
    complex_ = np.iscomplexobj(a)
    lines = [f"{a.shape[0]} {a.shape[1]} {'complex' if complex_ else 'real'}"]
    for row in a:
        if complex_:
            lines.append(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row))
        else:
            lines.append(" ".join(f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


SPECIAL_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.0 / 3.0, -1.0]


def _random_entries(rng, shape):
    """Floats across the whole range, about a third of them special: signed zeros,
    subnormals, +-1e300."""
    scaled = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    return np.where(rng.random(shape) < 0.3, rng.choice(SPECIAL_ENTRIES, size=shape), scaled)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.complex64,
                                   np.int64, np.int8, np.bool_])
def test_serialize_matches_the_per_entry_reference_byte_for_byte(dtype):
    # numpy's writer against the f-string per entry it replaced, on random shapes; a float32
    # +-1e300 is +-inf, which both write as "inf"
    rng = np.random.default_rng(0)
    for _ in range(60):
        shape = tuple(rng.integers(1, 7, size=2).tolist())
        if dtype is np.bool_:
            a = rng.random(shape) < 0.5
        elif np.dtype(dtype).kind == "i":
            info = np.iinfo(dtype)
            a = rng.integers(max(info.min, -(10**15)), min(info.max, 10**15), size=shape,
                             dtype=dtype, endpoint=True)
        else:
            a = _random_entries(rng, shape)
            a = a + 1j * _random_entries(rng, shape) if np.dtype(dtype).kind == "c" else a
            with np.errstate(over="ignore"):
                a = a.astype(dtype)
        assert serialize_matrix(a) == reference_serialize(a)
        assert serialize_matrix(np.asfortranarray(a)) == reference_serialize(a)


def test_roundtrip_through_file(tmp_path):
    a = np.array([[1.0 / 3.0, -2.0 ** -52], [1e300, -0.0]])
    path = tmp_path / "m.mat"
    gi.save_matrix(a, path)
    assert np.array_equal(gi.parse_matrix(path), a)


def test_missing_file_is_input_error():
    with pytest.raises(InputError, match="no such matrix file"):
        parse_matrix("/nonexistent/matrix.mat")


def test_matrix_to_json_shapes():
    assert matrix_to_json(np.eye(2)) == [[1.0, 0.0], [0.0, 1.0]]
    assert matrix_to_json(np.array([[1 + 2j]])) == [[[1.0, 2.0]]]


def test_long_content_string_is_parsed_as_content():
    # longer than the 255-byte file-name limit, so it cannot be probed as a path
    a = np.arange(400.0).reshape(20, 20)
    text = serialize_matrix(a)
    assert len(text) > 255
    assert np.array_equal(parse_matrix(text), a)


def test_overlong_missing_path_is_input_error():
    with pytest.raises(InputError, match="no such matrix file"):
        parse_matrix("m" * 300 + ".mat")
    with pytest.raises(InputError, match="no such matrix file"):
        parse_matrix("missing.mat")


def test_parse_directory_is_input_error(tmp_path):
    # an unreadable path is an InputError naming it, never a raw OSError
    for source in (tmp_path, str(tmp_path)):
        with pytest.raises(InputError, match=re.escape(str(tmp_path))):
            parse_matrix(source)


def test_empty_text_is_missing_its_header(tmp_path, monkeypatch):
    # the empty string is an empty text, as an empty stream is, and not the path "." that
    # Path("") names: its error is the missing header, from any working directory
    monkeypatch.chdir(tmp_path)
    for source in ("", io.StringIO("")):
        with pytest.raises(InputError, match="^missing header line 'rows cols field'$"):
            parse_matrix(source)


def test_parse_non_utf8_file_is_input_error(tmp_path):
    path = tmp_path / "binary.mat"
    path.write_bytes(b"\xff\xfe\x00\x81\x9f")
    with pytest.raises(InputError, match=re.escape(str(path))):
        parse_matrix(path)


@pytest.mark.parametrize("complex_", [False, True])
def test_matrix_to_json_equals_entrywise_floats(complex_):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 5)) + (1j * rng.standard_normal((7, 5)) if complex_ else 0.0)
    a = gi.moore_penrose(a).inverse
    if complex_:
        entrywise = [[[float(v.real), float(v.imag)] for v in row] for row in a]
    else:
        entrywise = [[float(v) for v in row] for row in a]
    got = matrix_to_json(a)
    assert got == entrywise
    flat = np.ravel(got).tolist()
    assert all(type(v) is float for v in flat)


# -- the vectorized parse against a per-token float() reference --------------

LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SHORT_FORMS = ["5.", "+.5", "-.5", "1_0", "-0", "0e0", "1E5", "1e-400"]
SHORT_FORMS += ["\u0661\u0662", "\uff11\uff12"]  # Arabic-Indic and fullwidth digits
BAD_TOKENS = ["x", "1.5.2", "nan", "inf", "-inf", "1e400", "0x1p3", "1__0"]


def reference_parse(text):
    """The body parsed one token at a time with float(), as the format defines it."""
    lines = text.splitlines()
    rows, cols, field = lines[0].split()
    rows, cols = int(rows), int(cols)
    values = []
    for line_no, line in enumerate(lines[1:], start=2):
        for col_no, token in enumerate(line.split(), start=1):
            try:
                value = float(token)
            except ValueError:
                raise InputError(
                    f"unparsable entry {token!r} at line {line_no}, token {col_no}"
                ) from None
            if not math.isfinite(value):
                raise InputError(f"non-finite entry {token!r} at line {line_no}, token {col_no}")
            values.append(value)
    if field == "complex":
        if len(values) % 2:
            raise InputError(f"complex body must hold 're im' pairs, found {len(values)} tokens")
        if len(values) // 2 != rows * cols:
            raise InputError(f"expected {rows * cols} entries, found {len(values) // 2}")
        out = np.empty(rows * cols, dtype=np.complex128)
        out.real, out.imag = values[0::2], values[1::2]
        return out.reshape(rows, cols)
    if len(values) != rows * cols:
        raise InputError(f"expected {rows * cols} entries, found {len(values)}")
    return np.array(values, dtype=np.float64).reshape(rows, cols)


def _outcome(parse, text):
    try:
        return _bits(parse(text)).tolist(), None
    except InputError as exc:
        return None, str(exc)


_finite_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(SHORT_FORMS),
)


@st.composite
def matrix_texts(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    field = draw(st.sampled_from(["real", "complex"]))
    per_row = cols * (2 if field == "complex" else 1)
    rows_of_tokens = [draw(st.lists(_finite_tokens, min_size=per_row, max_size=per_row))
                      for _ in range(rows)]
    flat = [(r, c) for r in range(rows) for c in range(per_row)]
    for _ in range(draw(st.integers(0, 2))):  # bad tokens anywhere; the first one is named
        r, c = draw(st.sampled_from(flat))
        rows_of_tokens[r][c] = draw(st.sampled_from(BAD_TOKENS))
    change = draw(st.sampled_from(["none", "none", "drop", "add"]))
    if change == "drop":  # an odd complex body, or one entry short
        rows_of_tokens[-1].pop()
    elif change == "add":
        rows_of_tokens[-1].append("1")
    if draw(st.booleans()):  # one break everywhere: \r-only and \r\n files among them
        breaks = [draw(st.sampled_from(LINE_BREAKS))] * (rows + 1)
    else:
        breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=rows + 1, max_size=rows + 1))
    spaces = st.sampled_from([" ", "  ", "\t", " \t ", "\x1f", "\xa0", "\u3000"])
    text = f"{rows} {cols} {field}" + breaks[0]
    for tokens, brk in zip(rows_of_tokens, breaks[1:]):
        text += "".join(draw(spaces) + token for token in tokens) + brk
    return text


@settings(max_examples=400, deadline=None)
@given(matrix_texts())
@example("2 1 complex\r-0 1\r2 -0\r")  # \r-only, signed zeros in both parts
@example("1 2 real\r\n1e400 x\r\n")
@example("1 1 complex\u2028 -0.0 1_0\u2029")
def test_parse_matches_per_token_float_reference(text):
    got = _outcome(lambda t: parse_matrix(io.StringIO(t)), text)
    assert got == _outcome(reference_parse, text)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("shape", [(50, 50), (3000, 8)])
def test_valid_files_never_enter_the_token_loop(monkeypatch, tmp_path, field, shape):
    rng = np.random.default_rng(0)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    if field == "complex":
        a = a + 1j * rng.standard_normal(shape)
    path = tmp_path / "m.mat"
    gi.save_matrix(a, path)

    def fail(*token):
        raise AssertionError(f"token loop entered on a valid file at {token}")

    monkeypatch.setattr(matio, "_parse_float", fail)
    assert np.array_equal(_bits(parse_matrix(path)), _bits(a))
