import io
import re

import numpy as np
import pytest

import geninv as gi
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
