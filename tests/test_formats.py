import json
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (default_digit_limit, random_exact_matrix,
                      random_exact_spec)
from hessenbergian import (ComplexRational, FormatError,
                           IntegerTooLargeForJson, IrregularOrder, LdevcSpec,
                           WrongEntryCount)
from hessenbergian.formats import (convert_spec, dump_text, matrix_from_json,
                                   matrix_to_json, parse_text, scalar_to_json,
                                   spec_from_json, spec_to_json)

CR = ComplexRational


def test_scalar_forms():
    m, backend = matrix_from_json(
        {"order": 2, "rows": [[[1, 2, 3, 4], [5, 1, 0, 1]],
                              [[0, 1, 0, 1], [2, 1, 0, 1]]]})
    assert backend == "exact"
    assert m.rows[0][0] == CR(Fraction(1, 2), Fraction(3, 4))
    f, backend = matrix_from_json(
        {"order": 2, "rows": [[[0.5, -1.5], [1, 0]], [[2, 3], [0.25, 0]]]})
    assert backend == "float"
    assert f.rows[0][0] == 0.5 - 1.5j
    assert f.rows[1][0] == 2 + 3j


def test_bare_integers_are_neutral():
    m, backend = matrix_from_json({"order": 2, "rows": [[1, 2], [3, 4]]})
    assert backend == "exact"
    assert [row.tolist() for row in m.rows] == [[1, 2], [3, 4]]
    # the same bare ints inside a float document become complex doubles
    f, backend = matrix_from_json({"order": 2, "rows": [[1, 2.0], [3, 4]]})
    assert backend == "float"
    assert f.is_float_backed
    assert f.rows[1][0] == 3 + 0j


def test_mixed_realizations_rejected():
    for backend in (None, "exact", "float"):
        with pytest.raises(FormatError):
            matrix_from_json({"order": 2, "rows": [[[1, 1, 0, 1], [0.5, 0]],
                                                   [[1, 2], [3, 4]]]}, backend)
        # mixing across sections of a spec document is just as invalid
        with pytest.raises(FormatError):
            spec_from_json({"N": 0, "horizon": 0, "coeffs": [[[1, 1, 0, 1]]],
                            "forcing": [0.5]}, backend)


def test_bad_scalars_rejected():
    for bad in ("x", True, [1, 2, 3], [1, 0, 0, 1], [1, 1, 1, 0],
                [1.0, 2, 3, 4], {"re": 1}, None, [1, [2]]):
        with pytest.raises(FormatError):
            matrix_from_json({"order": 1, "rows": [[bad]]})


def test_document_shape_validation():
    with pytest.raises(FormatError):
        matrix_from_json([1, 2, 3])
    with pytest.raises(FormatError):
        matrix_from_json({"order": 1})
    with pytest.raises(FormatError):
        matrix_from_json({"order": 1, "rows": [[1]], "extra": 0})
    with pytest.raises(FormatError):
        matrix_from_json({"order": "2", "rows": [[1]]})
    with pytest.raises(FormatError):
        matrix_from_json({"order": 1, "rows": [1]})
    with pytest.raises(WrongEntryCount):
        matrix_from_json({"order": 2, "rows": [[1, 2, 3], [4, 5]]})


def test_spec_documents():
    obj = {"N": 1, "horizon": 1,
           "coeffs": [[[-2, 1, 0, 1], [1, 1, 0, 1]],
                      [[0, 1, 0, 1], [-2, 1, 0, 1], [1, 1, 0, 1]]],
           "forcing": [[0, 1, 0, 1], [0, 1, 0, 1]]}
    spec, backend = spec_from_json(obj)
    assert backend == "exact"
    assert spec.index_N == 1 and spec.horizon == 1
    assert spec.coeffs[0][0] == CR(-2)
    assert spec_to_json(spec) == obj
    with pytest.raises(FormatError):
        spec_from_json({"N": 1, "horizon": 0, "coeffs": [[1, 1]]})
    with pytest.raises(IrregularOrder):
        spec_from_json({"N": 0, "horizon": 0, "coeffs": [[0]], "forcing": [1]})
    small = {"N": 1, "horizon": 0, "coeffs": [[0, 1]], "forcing": [0]}
    for field, value, message in (
            ("N", 1.0, "N and horizon must be integers"),
            ("N", True, "N and horizon must be integers"),
            ("horizon", "0", "N and horizon must be integers"),
            ("forcing", 1, "forcing must be a list")):
        with pytest.raises(FormatError, match=message):
            spec_from_json({**small, field: value})


def test_scalar_to_json_goldens():
    assert scalar_to_json(CR(Fraction(7, 4), 1)) == [7, 4, 1, 1]
    assert scalar_to_json(Fraction(1, 3)) == [1, 3, 0, 1]
    assert scalar_to_json(5) == [5, 1, 0, 1]
    assert scalar_to_json(0.5 - 2j) == [0.5, -2.0]
    assert scalar_to_json(np.complex128(1.5 + 0.5j)) == [1.5, 0.5]


def test_matrix_round_trip():
    rng = random.Random(83)
    m = random_exact_matrix(5, rng)
    again, backend = matrix_from_json(matrix_to_json(m))
    assert backend == "exact" and again == m
    floaty, backend = matrix_from_json(
        {"order": 2, "rows": [[[0.5, 0.0], [1.5, 2.5]], [[0.0, 1.0], [3.0, 0.0]]]})
    again2, _ = matrix_from_json(matrix_to_json(floaty))
    assert again2 == floaty


def test_spec_round_trip():
    rng = random.Random(89)
    spec = random_exact_spec(2, 4, rng)
    again, backend = spec_from_json(spec_to_json(spec))
    assert backend == "exact" and again == spec


def test_convert_between_realizations():
    doc = {"order": 1, "rows": [[[3, 4, 1, 2]]]}
    m, _ = matrix_from_json(doc)
    f, backend = matrix_from_json(doc, "float")
    assert backend == "float" and f.rows[0][0] == 0.75 + 0.5j
    back, backend = matrix_from_json(matrix_to_json(f), "exact")
    assert backend == "exact"
    assert back == m  # dyadic floats convert back exactly
    rng = random.Random(97)
    spec = random_exact_spec(1, 2, rng)
    fs = convert_spec(spec, "float")
    assert fs.coeffs[0][0] == complex(spec.coeffs[0][0])


def _float_hex(z: complex) -> tuple:
    # tells -0.0 from 0.0, which == does not
    return z.real.hex(), z.imag.hex()


_parts = st.one_of(st.integers(-20, 20),
                   st.integers(-2 ** 1100, 2 ** 1100))
_dens = _parts.filter(bool)


@given(_parts, _dens, _parts, _dens)
@example(0, -1, 0, -7)            # zero numerators over negative denominators
@example(-1, 10 ** 400, 1, -10 ** 400)  # underflow to -0.0 on both parts
@example(3, -4, -1, -2)
@example(10 ** 400, 1, 0, 1)      # beyond the double range
@example(1, 1, -2 ** 1100, 3)
@settings(max_examples=300)
def test_exact_scalar_read_as_float_is_bit_identical(a, b, c, d):
    doc = {"order": 1, "rows": [[[a, b, c, d]]]}
    try:
        want = complex(CR(Fraction(a, b), Fraction(c, d)))
    except OverflowError:
        with pytest.raises(FormatError):
            matrix_from_json(doc, "float")
        return
    got = matrix_from_json(doc, "float")[0].rows[0][0]
    assert _float_hex(got) == _float_hex(want)


def test_float_document_read_as_exact_goes_through_complex():
    near = 2 ** 60 + 1  # not a double; complex() rounds it to 2**60
    m, backend = matrix_from_json(
        {"order": 2, "rows": [[0.5, near], [1.0, 2.0]]}, "exact")
    assert backend == "exact"
    assert m.rows[0][1] == CR.from_complex(complex(near)) != near
    with pytest.raises(FormatError):
        matrix_from_json(
            {"order": 2, "rows": [[0.5, 10 ** 400], [1.0, 2.0]]}, "exact")


def test_convert_spec_refuses_mixed_spec():
    # no document can express this spec, so the wire rule refuses it
    spec = LdevcSpec(0, 0, [[CR(1)]], [0.5])
    for backend in ("exact", "float"):
        with pytest.raises(FormatError):
            convert_spec(spec, backend)


def test_dump_text_is_canonical():
    obj = {"order": 1, "rows": [[[1, 2, 0, 1]]]}
    assert dump_text(obj) == dump_text(obj) == '{"order":1,"rows":[[[1,2,0,1]]]}'
    assert json.loads(dump_text(obj)) == obj


def test_parse_text_errors():
    with pytest.raises(FormatError):
        parse_text("{not json")
    assert parse_text('{"a": 1}') == {"a": 1}
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(FormatError):
            parse_text(f"[{token}]")


def test_non_finite_float_has_no_exact_conversion():
    with pytest.raises(FormatError):
        matrix_from_json({"order": 1, "rows": [[1e400]]}, "exact")
    spec = LdevcSpec(0, 0, [[1.0]], [float("nan")])
    with pytest.raises(FormatError):
        convert_spec(spec, "exact")


_LIMIT = sys.int_info.default_max_str_digits


@given(st.integers(1, 2 * _LIMIT), st.booleans())
@example(_LIMIT, False)
@example(_LIMIT + 1, True)
@settings(deadline=None, max_examples=60)
def test_digit_limit_in_both_directions(digits, negative):
    value = (10 ** digits - 1) * (-1 if negative else 1)  # `digits` digits
    text = "[" + "-" * negative + "9" * digits + "]"
    with default_digit_limit() as limit:
        if digits <= limit:
            assert dump_text([value]) == text
            assert parse_text(text) == [value]
        else:
            with pytest.raises(IntegerTooLargeForJson):
                dump_text([value])
            with pytest.raises(IntegerTooLargeForJson):
                parse_text(text)
        with pytest.raises(ValueError):  # NaN stays a plain ValueError
            dump_text([float("nan")])
