import json
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (default_digit_limit, periodic_exact_spec,
                      random_exact_matrix, random_exact_spec,
                      random_float_matrix, random_float_spec)
from hessenbergian import (ComplexRational, FormatError,
                           IntegerTooLargeForJson, IrregularOrder, LdevcSpec,
                           WrongEntryCount, row_length)
import hessenbergian.formats as formats
from hessenbergian.formats import (convert_spec, dump_text, matrix_from_json,
                                   matrix_to_json, parse_text,
                                   scalar_from_json, scalar_to_json,
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
    assert m.rows == ((1, 2), (3, 4))
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


_leaves = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.integers(-10 ** 308, 10 ** 308),
    st.integers(-2 ** 60, 2 ** 60))
_pairs = st.lists(_leaves, min_size=2, max_size=2)
# mostly [re, im] pairs; a bare int or float v reads as [v, 0]
_float_scalars = st.one_of(_pairs, _pairs, _pairs, _pairs,
                           st.integers(-9, 9), st.floats(-1e3, 1e3))


@st.composite
def _float_documents(draw):
    order = draw(st.integers(1, 6))
    rows = [draw(st.lists(_float_scalars, min_size=row_length(order, i),
                          max_size=row_length(order, i)))
            for i in range(1, order + 1)]
    rows[0][0] = draw(_pairs)  # a pair first, so the document reads as float
    return {"order": order, "rows": rows}


def _bits(values) -> tuple:
    parts = np.asarray(values, np.complex128).view(np.float64)
    return parts.tolist(), np.signbit(parts).tolist()


@given(_float_documents())
@example({"order": 1, "rows": [[[-0.0, 5e-324]]]})
@example({"order": 2, "rows": [[[10 ** 308, -10 ** 308], [0, -0.0]],
                               [[2 ** 53 + 1, 1], [-5e-324, 2 ** 60 + 1]]]})
@settings(max_examples=200)
def test_float_rows_decode_as_their_scalars(doc):
    # the one conversion per document gives, bit for bit, what the
    # scalar path gives for each scalar, zero signs included
    matrix, backend = matrix_from_json(doc)
    assert backend == "float" and matrix.is_float_backed
    for row, stored in zip(doc["rows"], matrix.rows):
        want = [scalar_from_json(v, "float", "float") for v in row]
        assert _bits(stored) == _bits(want)


def test_complex_conversions_the_float_decoder_relies_on():
    # complex(re, im) reads Python floats and ints into each part as
    # float(x) reads them, zero signs and subnormals included, and
    # refuses an int beyond the doubles with OverflowError
    values = [-0.0, 5e-324, 2 ** 53 + 1, -(2 ** 60) - 1, 10 ** 308, 3]
    for re in values:
        for im in values:
            z = complex(re, im)
            assert (z.real.hex(), z.imag.hex()) == (float(re).hex(),
                                                    float(im).hex())
    for pair in ((10 ** 400, 0), (1.0, 10 ** 400)):
        with pytest.raises(OverflowError):
            complex(*pair)


@pytest.fixture(scope="module")
def order_700_rows():
    return matrix_to_json(random_float_matrix(700, random.Random(700)))["rows"]


def _with_last_scalar(rows, scalar) -> dict:
    return {"order": 700, "rows": [*rows[:-1], [*rows[-1][:-1], scalar]]}


@pytest.mark.parametrize("scalar", [7, -0.0, 2 ** 60 + 1, [-0.0, 5e-324]],
                         ids=["bare-int", "bare-negative-zero", "bare-big-int",
                              "signed-zero-subnormal"])
def test_order_700_last_scalar_decodes_as_the_scalar_rule(order_700_rows,
                                                         scalar, monkeypatch):
    doc = _with_last_scalar(order_700_rows, scalar)
    flat = [scalar_from_json(v, "float", "float")
            for row in doc["rows"] for v in row]
    calls = []  # a valid float document never reaches the scalar rule
    monkeypatch.setattr(formats, "scalar_from_json",
                        lambda *args: calls.append(args))
    matrix, backend = matrix_from_json(doc)
    assert backend == "float" and calls == []
    assert _bits([v for row in matrix.rows for v in row]) == _bits(flat)


_EXPECTED = ("; expected [re_num,re_den,im_num,im_den], [re,im], "
             "or a bare integer")


@pytest.mark.parametrize("backend", [None, "float"])
@pytest.mark.parametrize("row, message", [
    ([[2.0, 0.0], [True, 0.0]], "invalid scalar [True, 0.0]" + _EXPECTED),
    ([[2.0, 0.0], ["1.0", 0.0]], "invalid scalar ['1.0', 0.0]" + _EXPECTED),
    ([[2.0, 0.0], None], "invalid scalar None" + _EXPECTED),
    ([[2.0, 0.0], [None, 1.0]], "invalid scalar [None, 1.0]" + _EXPECTED),
    ([[2.0, 0.0], [1.0, 2.0, 3.0]],
     "invalid scalar [1.0, 2.0, 3.0]" + _EXPECTED),
    ([[2.0, 0.0], [1, 2, 0, 1]],
     "document mixes exact and float scalars; use one realization"),
    (7, "matrix rows must be a list of lists"),
    ([[2.0, 0.0], {"re": 1.0}], "invalid scalar {'re': 1.0}" + _EXPECTED),
    ([[2.0, 0.0], [10 ** 400, 0]], "a scalar is beyond the double range"),
], ids=["bool", "string", "none", "none-leaf", "three-numbers", "quad",
        "bare-int-row", "dict", "huge-int"])
def test_invalid_float_rows_keep_their_errors(row, message, backend):
    # the invalid scalar in row 2 sends the whole document to the
    # scalar path, which alone words the error
    doc = {"order": 2, "rows": [[[0.5, -1.5], [1, 0]], row]}
    with pytest.raises(FormatError) as info:
        matrix_from_json(doc, backend)
    assert str(info.value) == message


@pytest.mark.parametrize("scalar, message", [
    ([True, 0.0], "invalid scalar [True, 0.0]" + _EXPECTED),
    (["1.0", 0.0], "invalid scalar ['1.0', 0.0]" + _EXPECTED),
    ([10 ** 400, 0], "a scalar is beyond the double range"),
    (parse_text("[1e400,0.0]"), "a scalar is beyond the double range"),
    (True, "invalid scalar True" + _EXPECTED),
    (10 ** 400, "a scalar is beyond the double range"),
    (parse_text("1e400"), "a scalar is beyond the double range"),
], ids=["bool", "string", "huge-int", "overflowing-literal", "bare-bool",
        "bare-huge-int", "bare-overflowing-literal"])
def test_order_700_invalid_last_scalar_keeps_its_error(order_700_rows,
                                                       scalar, message):
    with pytest.raises(FormatError) as info:
        matrix_from_json(_with_last_scalar(order_700_rows, scalar))
    assert str(info.value) == message


@pytest.mark.parametrize("backend", [None, "float"])
def test_overflowing_float_literal_is_refused(backend):
    # json reads 1e400 as inf; read as float it is a decode error, not a
    # value for the kernels to carry
    for text, load in (
            ('{"order":1,"rows":[[[1e400,0]]]}', matrix_from_json),
            ('{"order":2,"rows":[[[1.0,0.0],[2.0,0.0]],[-1e400,[3.0,0.0]]]}',
             matrix_from_json),
            ('{"N":0,"horizon":0,"coeffs":[[[1.0,1e400]]],"forcing":[1.0]}',
             spec_from_json)):
        with pytest.raises(FormatError,
                           match="^a scalar is beyond the double range$"):
            load(parse_text(text), backend)


def test_decode_errors_are_short():
    # the offending scalar is echoed cut, however large it is
    for scalar in (list(range(20000)), [int("7" * 4000), 0, 0, 1]):
        with pytest.raises(FormatError) as info:
            matrix_from_json({"order": 1, "rows": [[scalar]]})
        message = str(info.value)
        assert len(message) < 200
        assert f"(cut, {len(repr(scalar))} characters)" in message


def test_float_encode_matches_scalar_encode():
    # a float row is written as [z.real, z.imag] per entry, to the same
    # bytes as scalar_to_json writes entry by entry, zero signs included
    signed, _ = matrix_from_json({"order": 2, "rows": [
        [[-0.0, 1.0], [2.0, -0.0]], [[5e-324, 0.0], [1e308, -1.5]]]})
    for matrix in (signed, random_float_matrix(9, random.Random(5))):
        by_scalar = {"order": matrix.order,
                     "rows": [[scalar_to_json(v) for v in row]
                              for row in matrix.rows]}
        assert dump_text(matrix_to_json(matrix)) == dump_text(by_scalar)


def test_float_decode_speed_at_order_700():
    obj = parse_text(dump_text(matrix_to_json(
        random_float_matrix(700, random.Random(700)))))
    start = time.perf_counter()
    matrix, _ = matrix_from_json(obj)
    elapsed = time.perf_counter() - start
    assert matrix.is_float_backed
    assert elapsed < 0.3, f"order-700 float decode took {elapsed:.2f}s"


# Exact documents: quads of ints and bare ints, decoded in one batched
# pass into either backend.

def _refuse_scalar_rule(*args):
    raise AssertionError(f"scalar rule called on {args[0]!r}")


def _document_rows(doc) -> list:
    return doc["rows"] if "order" in doc else [*doc["coeffs"], doc["forcing"]]


def _decoded_rows(decoded) -> list:
    if hasattr(decoded, "rows"):
        return list(decoded.rows)
    return [*decoded.coeffs, decoded.forcing]


def _load(doc, backend):
    """The document decoded with the scalar rule refused, so only the
    batched pass can decode it; returns the flat decoded values."""
    load = matrix_from_json if "order" in doc else spec_from_json
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "scalar_from_json", _refuse_scalar_rule)
        decoded, got_backend = load(doc, backend)
    assert got_backend == backend
    return [v for row in _decoded_rows(decoded) for v in row]


_BIG = 2 ** 53 + 1  # not a double; each read as float rounds it once
_numerators = st.one_of(st.integers(-9, 9), st.sampled_from([_BIG, -_BIG]),
                        st.integers(-2 ** 70, 2 ** 70))
_denominators = st.one_of(st.integers(-9, 9).filter(bool),
                          st.sampled_from([_BIG, -_BIG]))
_quads = st.tuples(_numerators, _denominators, _numerators,
                   _denominators).map(list)
_zero_quads = st.tuples(st.just(0), _denominators, st.just(0),
                        _denominators).map(list)
_nonzero_quads = _quads.filter(lambda q: q[0] or q[2])
_exact_scalars = st.one_of(_quads, _quads, _zero_quads,
                           st.integers(-9, 9), st.sampled_from([_BIG, -_BIG]))


@st.composite
def _quad_documents(draw):
    if draw(st.booleans()):
        order = draw(st.integers(1, 6))
        return {"order": order,
                "rows": [draw(st.lists(_exact_scalars,
                                       min_size=row_length(order, i),
                                       max_size=row_length(order, i)))
                         for i in range(1, order + 1)]}
    index_N, horizon = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    leads = st.one_of(_nonzero_quads, st.integers(1, 9))
    return {"N": index_N, "horizon": horizon,
            "coeffs": [draw(st.lists(_exact_scalars, min_size=index_N + n,
                                     max_size=index_N + n)) + [draw(leads)]
                       for n in range(horizon + 1)],
            "forcing": draw(st.lists(_exact_scalars, min_size=horizon + 1,
                                     max_size=horizon + 1))}


@given(_quad_documents(), st.sampled_from(["exact", "float"]))
@example({"order": 2, "rows": [[[0, -3, 0, -7], 0],
                               [[_BIG, -1, -_BIG, 3], _BIG]]}, "float")
@example({"order": 2, "rows": [[[1, 1, 0, -3], [0, -2, 5, 7]],
                               [-_BIG, [0, -1, 0, 1]]]}, "float")
@example({"N": 1, "horizon": 0, "coeffs": [[[0, 5, 0, -2], [-1, -2, 3, -4]]],
          "forcing": [[0, -1, 0, 1]]}, "exact")
@settings(max_examples=300)
def test_quad_documents_decode_as_their_scalars(doc, backend):
    # the batched pass gives each scalar the scalar rule's value and
    # type, and as float its bits, zero signs included
    want = [scalar_from_json(v, "exact", backend)
            for row in _document_rows(doc) for v in row]
    got = _load(doc, backend)
    assert got == want
    assert list(map(type, got)) == list(map(type, want))
    if backend == "float":
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_valid_exact_documents_skip_the_scalar_rule(backend):
    rng = random.Random(29)
    for doc in (matrix_to_json(random_exact_matrix(6, rng)),
                spec_to_json(random_exact_spec(2, 5, rng)),
                spec_to_json(periodic_exact_spec(2, 9, 3, rng)),
                {"order": 2, "rows": [[1, -2], [3, 0]]}):
        want = [scalar_from_json(v, "exact", backend)
                for row in _document_rows(doc) for v in row]
        assert _load(doc, backend) == want


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_zero_quads_decode_to_one_zero(backend):
    zeros = [[0, 1, 0, 1], [0, -7, 0, 3], [0, 2, 0, -5]]
    got = _load({"order": 3, "rows": [zeros[:2], [zeros[2], 0, [1, 1, 0, 1]],
                                      [[2, 1, 0, 1], *zeros[:2]]]}, backend)
    quad_zeros = [got[i] for i in (0, 1, 2, 6, 7)]
    assert quad_zeros == [0] * 5 and len(set(map(id, quad_zeros))) == 1
    assert type(quad_zeros[0]) is (CR if backend == "exact" else complex)
    # a zero quad and a bare 0 decode to equal values
    bare = _load({"order": 2, "rows": [[0, 0], [0, [1, 1, 0, 1]]]}, backend)
    quads = _load({"order": 2, "rows": [zeros[:2], [zeros[2], [1, 1, 0, 1]]]},
                  backend)
    assert bare == quads
    if backend == "float":
        assert _bits(bare) == _bits(quads)


def test_float_spec_document_keeps_zero_signs():
    # a float spec document takes the float pass, so -0.0 keeps its sign
    doc = {"N": 0, "horizon": 1,
           "coeffs": [[[1.0, -0.0]], [[-0.0, 0.0], [2, -0.0]]],
           "forcing": [[-0.0, -0.0], 0]}
    want = [scalar_from_json(v, "float", "float")
            for row in _document_rows(doc) for v in row]
    assert _bits(_load(doc, "float")) == _bits(want)
    doc = spec_to_json(random_float_spec(1, 3, random.Random(3)))
    want = [scalar_from_json(v, "float", "float")
            for row in _document_rows(doc) for v in row]
    assert _bits(_load(doc, "float")) == _bits(want)


_QUADS = [[1, 2, 0, 1], [0, 1, 0, 1]]
_EVERY = (None, "exact", "float")


@pytest.mark.parametrize("scalar, message, backends", [
    ([0, 0, 0, 1], "zero denominator in scalar [0, 0, 0, 1]", _EVERY),
    ([1, 0, 0, 1], "zero denominator in scalar [1, 0, 0, 1]", _EVERY),
    ([1, True, 0, 1], "invalid scalar [1, True, 0, 1]" + _EXPECTED, _EVERY),
    ([1, 1, 0.5, 1], "invalid scalar [1, 1, 0.5, 1]" + _EXPECTED, _EVERY),
    ([1, 2, 3], "invalid scalar [1, 2, 3]" + _EXPECTED, _EVERY),
    ([1, 2, 3, 4, 5], "invalid scalar [1, 2, 3, 4, 5]" + _EXPECTED, _EVERY),
    ([0.5, 1.5],
     "document mixes exact and float scalars; use one realization", _EVERY),
    ([10 ** 400, 1, 0, 1], "a scalar is beyond the double range", ("float",)),
], ids=["zero-quad-zero-den", "zero-den", "bool-leaf", "float-leaf",
        "three-ints", "five-ints", "float-pair", "huge-numerator"])
def test_invalid_quad_documents_keep_their_errors(scalar, message, backends):
    # the invalid scalar, after valid quads, sends the whole document to
    # the scalar rule, which alone words the error
    for backend in backends:
        for doc, load in (
                ({"order": 2, "rows": [_QUADS, [0, scalar]]},
                 matrix_from_json),
                ({"N": 1, "horizon": 0, "coeffs": [_QUADS[::-1]],
                  "forcing": [scalar]}, spec_from_json)):
            with pytest.raises(FormatError) as info:
                load(doc, backend)
            assert str(info.value) == message, (doc, backend)


def test_exact_decode_speed_at_horizon_1000():
    # an N=2 banded spec: 504,504 scalars, 500,500 of them zero quads
    obj = spec_to_json(periodic_exact_spec(2, 1000, 3, random.Random(1000)))
    start = time.perf_counter()
    spec, backend = spec_from_json(obj)
    elapsed = time.perf_counter() - start
    assert backend == "exact" and spec.horizon == 1000
    assert elapsed < 1.0, f"h=1000 exact spec decode took {elapsed:.2f}s"
