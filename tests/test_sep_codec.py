import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessenbergian import (BitArray, IndexOutOfRange, InvalidOrder,
                           InvalidSep, NotInRangeSet,
                           OrderTooLargeForExpansion, SepFactors,
                           decode_columns, encode_sep, enumerate_seps,
                           expand_symbolic, sep_codec, sep_count, tau)


def test_tau_goldens():
    assert tau(1, 0).bits == (1,)
    assert [tau(3, m).bits for m in range(4)] == [
        (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert tau(8, 81).bits == (1, 0, 1, 0, 0, 0, 1, 1)  # 81 = 1010001b


def test_tau_index_out_of_range():
    for bad in (-1, 4, True):
        with pytest.raises(IndexOutOfRange):
            tau(3, bad)
    with pytest.raises(InvalidOrder):
        tau(0, 0)


def test_codec_values_are_frozen_records():
    # equal and hashed by their fields in order, with a field-by-field
    # repr; no field can be set or deleted, and no other attribute added
    bits = tau(4, 5)
    assert bits == BitArray(order=4, bits=(1, 0, 1, 1))
    assert hash(bits) == hash((4, (1, 0, 1, 1)))
    assert repr(bits) == "BitArray(order=4, bits=(1, 0, 1, 1))"
    factors = decode_columns(bits)
    assert factors == SepFactors(4, (1, 3, 2, 4), -1)
    assert factors != SepFactors(4, (1, 3, 2, 4), 1)
    assert factors != (4, (1, 3, 2, 4), -1)
    assert repr(factors) == "SepFactors(order=4, columns=(1, 3, 2, 4), sign=-1)"
    term = expand_symbolic(2)[0]
    assert repr(term) == "SymbolicTerm(sign=-1, factors=((1, 2), (2, 1)))"
    assert str(term) == "-h(1,2)h(2,1)" and hash(term) == hash(
        (-1, ((1, 2), (2, 1))))
    for value, field in ((bits, "bits"), (factors, "sign"), (term, "sign")):
        with pytest.raises(AttributeError,
                           match=f"cannot assign to field '{field}'"):
            setattr(value, field, 1)
        with pytest.raises(AttributeError,
                           match=f"cannot delete field '{field}'"):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_decode_goldens_order_three():
    expected = [((2, 3, 1), 1), ((2, 1, 3), -1), ((1, 3, 2), -1),
                ((1, 2, 3), 1)]
    got = [(f.columns, f.sign) for _, f in enumerate_seps(3)]
    assert got == expected


def test_decode_goldens_order_four():
    expected = [
        ((2, 3, 4, 1), -1), ((2, 3, 1, 4), 1), ((2, 1, 4, 3), 1),
        ((2, 1, 3, 4), -1), ((1, 3, 4, 2), 1), ((1, 3, 2, 4), -1),
        ((1, 2, 4, 3), -1), ((1, 2, 3, 4), 1),
    ]
    got = [(f.columns, f.sign) for _, f in enumerate_seps(4)]
    assert got == expected


def test_decode_golden_order_eight():
    f = decode_columns(tau(8, 81))
    assert f.columns == (1, 3, 2, 5, 6, 7, 4, 8)
    assert f.sign == 1


def test_decode_rejects_range_set_violation():
    # a non-member of the range set: last bit is 0
    with pytest.raises(NotInRangeSet):
        decode_columns((0, 1, 0))
    with pytest.raises(NotInRangeSet):
        decode_columns(BitArray(2, (1, 0)))


def test_bit_array_validation():
    with pytest.raises(InvalidOrder):
        BitArray(2, (1,))
    with pytest.raises(InvalidOrder):
        BitArray(2, (1, 2))
    with pytest.raises(InvalidOrder):
        BitArray(0, ())
    with pytest.raises(InvalidOrder):
        BitArray(True, (1,))  # a bool is not an order
    with pytest.raises(InvalidOrder):
        decode_columns([])
    # only the ints 0 and 1 are digits
    for bad in ([3, 1], [1, 2, 1], [0.5, 1], [True, 1], [1.0, 1]):
        with pytest.raises(InvalidOrder):
            decode_columns(bad)


def test_encode_goldens():
    assert encode_sep((2, 3, 1)).bits == (0, 0, 1)
    assert encode_sep((1, 2, 3)).bits == (1, 1, 1)
    assert encode_sep((1, 3, 2, 5, 6, 7, 4, 8)).bits == (1, 0, 1, 0, 0, 0, 1, 1)


def test_encode_rejects_invalid_seps():
    for bad in ((1, 1, 3), (3, 1, 2), (2, 3), (0, 1), (1, 4, 2, 3), ()):
        with pytest.raises(InvalidSep):
            encode_sep(bad)


def test_sep_count():
    assert [sep_count(n) for n in (1, 2, 3, 10)] == [1, 2, 4, 512]
    for bad in (0, -2, 1.5, True):
        with pytest.raises(InvalidOrder):
            sep_count(bad)


def test_expansion_refuses_an_order_that_is_not_an_int():
    # the order is checked before the cap compares it, so a string or
    # None is not a bare TypeError and 17.5 is not "too large"
    for bad in ("x", None, 2.5, True, 17.5):
        for expand in (expand_symbolic, sep_codec.expansion_lines):
            with pytest.raises(InvalidOrder):
                expand(bad)


def test_round_trip_and_decimal_identity_exhaustive():
    # every index up to order 16: tau -> decode -> encode is the identity,
    # and the bits read in base 2 give 2m+1
    for n in range(1, 17):
        for m in range(sep_count(n)):
            bits = tau(n, m)
            factors = decode_columns(bits)
            assert encode_sep(factors) == bits
            as_int = int("".join(str(b) for b in bits.bits), 2)
            assert as_int == 2 * m + 1


def test_enumeration_is_injective_with_valid_columns():
    for n in range(1, 13):
        seen = set()
        for m, factors in enumerate_seps(n):
            cols = factors.columns
            assert sorted(cols) == list(range(1, n + 1))
            assert all(cols[i - 1] <= i + 1 for i in range(1, n + 1))
            assert factors.sign == (-1) ** tau(n, m).bits.count(0)
            seen.add(cols)
        assert len(seen) == sep_count(n)


def _nested_halving_tau(order, m):
    # literal repeated-halving construction the bit shifts stand in for
    bits = []
    q = m
    for _ in range(order - 1):
        bits.append(q % 2)
        q = q // 2
    return tuple(reversed(bits)) + (1,)


def test_shift_tau_equals_nested_division_tau():
    rng = random.Random(99)
    for _ in range(2000):
        n = rng.randint(1, 40)
        m = rng.randrange(sep_count(n))
        assert tau(n, m).bits == _nested_halving_tau(n, m)


def test_nested_division_identity():
    rng = random.Random(14)
    for _ in range(10_000):
        m = rng.randrange(1 << 40)
        k = rng.randint(0, 40)
        x = m
        for _ in range(k):
            x = x // 2
        assert x == m // 2 ** k


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(deadline=None)
def test_round_trip_property(n, data):
    m = data.draw(st.integers(min_value=0, max_value=sep_count(n) - 1))
    bits = tau(n, m)
    assert encode_sep(decode_columns(bits)) == bits


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=15))
@settings(deadline=None)
def test_any_terminated_bit_string_decodes(prefix):
    bits = tuple(prefix) + (1,)
    factors = decode_columns(bits)
    assert sorted(factors.columns) == list(range(1, len(bits) + 1))
    # the prefix read in base 2 is the index whose bits these are
    assert tau(len(bits), int("".join(map(str, prefix)) or "0", 2)).bits == bits


def test_enumeration_equals_per_index_decode():
    for n in range(1, 13):
        assert list(enumerate_seps(n)) == [
            (m, decode_columns(tau(n, m))) for m in range(sep_count(n))]


def test_enumeration_streams_at_any_order():
    # the walk keeps an explicit stack, so its depth is not Python's
    m, first = next(enumerate_seps(3000))
    assert m == 0
    assert first == decode_columns((0,) * 2999 + (1,))
    with pytest.raises(InvalidOrder):
        next(enumerate_seps(0))


def test_expansion_lines_equal_rendered_terms():
    for order in range(1, 13):
        assert list(sep_codec.expansion_lines(order)) == [
            t.render() for t in expand_symbolic(order)]
    with pytest.raises(OrderTooLargeForExpansion):
        sep_codec.expansion_lines(17)  # refused before any line
    with pytest.raises(InvalidOrder):
        sep_codec.expansion_lines(0)


def test_expansion_text_budget_at_order_16():
    start = time.perf_counter()
    text = "\n".join(sep_codec.expansion_lines(16))
    elapsed = time.perf_counter() - start
    assert text.count("\n") == sep_count(16) - 1
    assert elapsed < 0.25, f"order-16 expansion text took {elapsed:.2f}s"
