import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_exact_matrix
from hessenbergian import (ComplexRational, FormatError, HessenbergMatrix,
                           IndexOutOfRange, InvalidOrder, WrongEntryCount,
                           entry_count, leading_submatrix, make_matrix,
                           row_length, signed_rows)
from hessenbergian.cli import random_float_matrix
from hessenbergian.matrix import gaussian_rows


def test_row_length_goldens():
    assert [row_length(4, i) for i in range(1, 5)] == [2, 3, 4, 4]
    assert row_length(1, 1) == 1


def test_entry_count_matches_closed_formula():
    for n in range(1, 21):
        assert entry_count(n) == sum(row_length(n, i) for i in range(1, n + 1))
        assert entry_count(n) == n * (n + 3) // 2 - 1


def test_make_matrix_flat_row_major():
    m = make_matrix(3, [1, 2, 3, 4, 5, 6, 7, 8])
    assert m.rows == ((1, 2), (3, 4, 5), (6, 7, 8))
    assert m.order == 3


def test_leading_submatrix():
    m = make_matrix(3, [1, 2, 3, 4, 5, 6, 7, 8])
    assert leading_submatrix(m, 1).rows == ((1,),)
    assert leading_submatrix(m, 2).rows == ((1, 2), (3, 4))
    assert leading_submatrix(m, 3) is m
    for k in (0, 4, True):
        with pytest.raises(IndexOutOfRange):
            leading_submatrix(m, k)


def test_make_matrix_wrong_flat_count():
    with pytest.raises(WrongEntryCount):
        make_matrix(3, [1, 2, 3])


@pytest.mark.parametrize("order", [0, -1, 2.0, "3", True])
def test_invalid_order_rejected(order):
    with pytest.raises(InvalidOrder):
        HessenbergMatrix(order, [])
    with pytest.raises(InvalidOrder):
        make_matrix(order, [])


def test_wrong_entry_count_rejected():
    with pytest.raises(WrongEntryCount):
        HessenbergMatrix(2, [[1, 2]])  # missing a row
    with pytest.raises(WrongEntryCount):
        HessenbergMatrix(2, [[1, 2, 9], [3, 4]])  # row too long
    with pytest.raises(WrongEntryCount):
        HessenbergMatrix(2, [[1], [3, 4]])  # row too short


def test_immutable():
    m = make_matrix(2, [1, 2, 3, 4])
    with pytest.raises(AttributeError):
        m.order = 5


def test_equality_and_hash():
    a = make_matrix(2, [1, 2, 3, 4])
    b = HessenbergMatrix(2, [[1, 2], [3, 4]])
    assert a == b and hash(a) == hash(b)
    assert a != make_matrix(2, [1, 2, 3, 5])
    # equal values are equal matrices across realizations, as for scalars
    f, i = make_matrix(1, [1.0]), make_matrix(1, [1])
    assert f == i and hash(f) == hash(i)


def test_is_float_backed():
    assert make_matrix(2, [1.0, 2j, 0.5, 4.0]).is_float_backed
    assert not make_matrix(2, [1, 2, 3, 4]).is_float_backed
    assert not make_matrix(1, [ComplexRational(1)]).is_float_backed
    # one float or complex entry makes the whole matrix float
    assert make_matrix(2, [1, 2.0, 3.0, 4.0]).is_float_backed
    assert make_matrix(2, [Fraction(1, 2), 2.0, 3.0, 4.0]).is_float_backed
    assert make_matrix(2, [ComplexRational(1, 2), 2, 3, 4j]).is_float_backed


def test_stored_rows_dtype_follows_realization():
    third = ComplexRational(Fraction(1, 3), Fraction(-2, 7))
    for entries in ([1.0, 2j, 0.5, 4.0], [1, 2j, 0.5, 4],
                    [Fraction(1, 3), third, 0.5, 10 ** 30 + 1]):
        floats = make_matrix(2, entries)
        assert all(type(a) is tuple for a in floats.rows)
        values = [v for a in floats.rows for v in a]
        assert [type(v) for v in values] == [complex] * 4
        # each exact entry is rounded once, as complex(x) rounds it
        assert values == [complex(x) for x in entries]
    for entries in ([1, 2, 3, 4], [Fraction(1, 2), 2, 3, third],
                    [ComplexRational(1, 2)] * 4):
        m = make_matrix(2, entries)
        assert all(type(a) is tuple for a in m.rows)
        # exact rows hold the entries themselves, types included
        values = [v for a in m.rows for v in a]
        assert values == entries
        assert [type(v) for v in values] == [type(v) for v in entries]


def test_entries_outside_the_fields_are_refused():
    # unchecked, numpy would read None as NaN and "1.5" as 1.5
    for bad in (None, "1.5", object()):
        for entries in ([bad, 2, 3, 4], [bad, 2.0, 3, 4], [1.0, 2, 3, bad]):
            with pytest.raises(TypeError, match="matrix entries"):
                make_matrix(2, entries)
        with pytest.raises(TypeError, match="matrix entries"):
            HessenbergMatrix(2, [np.array([1j, 2j]), [bad, 3.0]])


@pytest.mark.parametrize("huge", [10 ** 400, Fraction(10 ** 400, 3)],
                         ids=["int", "fraction"])
def test_exact_entry_beyond_doubles_beside_a_float_is_refused(huge):
    # the float realization rounds every exact entry; one it cannot round
    # is refused as the decoder refuses it, not with numpy's OverflowError
    with pytest.raises(FormatError,
                       match="^a scalar is beyond the double range$"):
        make_matrix(2, [huge, 1.0, 1, 1])


def test_float_construction_speed_at_order_700():
    # the det-float benchmark builds its order-700 inputs this way, from
    # lists of Python complex values
    rows = [list(row) for row in
            random_float_matrix(700, random.Random(700)).rows]
    elapsed = min(_timed(HessenbergMatrix, 700, rows) for _ in range(3))
    assert elapsed < 0.1, f"order-700 float construction took {elapsed:.3f}s"


def _timed(f, *args) -> float:
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


def test_stored_rows_are_read_only_copies():
    given = np.array([1.0, 2.0])
    m = HessenbergMatrix(2, [given, [3.0, 4.0]])
    for row in m.rows:
        with pytest.raises(TypeError):
            row[0] = 9
    given[0] = 5.0  # the caller's array is copied, not frozen in place
    assert m.rows[0] == (1.0, 2.0)
    # a complex128 row becomes Python complex values, copied all the same
    given = np.array([1 + 2j, -0.0])
    m = HessenbergMatrix(2, [given, np.array([3j, 4.0])])
    assert m.is_float_backed and m.rows[0] is not given
    assert {type(v) for row in m.rows for v in row} == {complex}
    given[0] = 5.0
    assert given.flags.writeable and m.rows[0] == (1 + 2j, 0j)
    assert leading_submatrix(m, 1).rows[0] == (1 + 2j,)
    # a list of complex values is taken as it is, into a tuple of its own
    given = [1j, 2j]
    m = HessenbergMatrix(2, [given, [3j, 4j]])
    given[0] = 9j
    assert m.rows == ((1j, 2j), (3j, 4j))
    # an exact row is a tuple, a copy of the caller's entries
    given = [3, 4]
    exact = HessenbergMatrix(2, [[1, 2], given])
    with pytest.raises(TypeError):
        exact.rows[1][0] = 9
    given[0] = 9
    assert exact.rows[1] == (3, 4)
    # an exact array row holds Python scalars, as its tolist() does
    exact = HessenbergMatrix(2, [np.array([1, 2]), np.array([3, 4])])
    assert exact.rows == ((1, 2), (3, 4))
    assert {type(v) for row in exact.rows for v in row} == {int}


def test_signed_rows_negate_superdiagonal_only():
    m = make_matrix(3, [1, 2, 3, 4, 5, 6, 7, 8])
    assert signed_rows(m) == ((1, -2), (3, 4, -5), (6, 7, 8))
    # stored rows untouched
    assert m.rows == ((1, 2), (3, 4, 5), (6, 7, 8))
    one = make_matrix(1, [ComplexRational(3, -1)])
    # order 1 has no superdiagonal
    assert signed_rows(one) == one.rows
    # a float matrix gets new tuples of complex; its stored rows stay
    f = make_matrix(2, [1.0, 2.0, 3.0, 4.0])
    signed = signed_rows(f)
    assert signed == ((1, -2), (3, 4))
    assert {type(v) for row in signed for v in row} == {complex}
    assert f.rows == ((1, 2), (3, 4))


def test_signed_rows_round_trip():
    # negating the superdiagonal twice gives the stored rows back
    rng = random.Random(11)
    for order in (1, 2, 5, 8):
        m = random_exact_matrix(order, rng)
        twice = signed_rows(HessenbergMatrix(order, signed_rows(m)))
        assert twice == m.rows


def test_signed_rows_keep_fractions():
    m = HessenbergMatrix(2, [[Fraction(1, 3), Fraction(-2, 7)],
                             [Fraction(5, 2), Fraction(0)]])
    rows = signed_rows(m)
    assert rows == ((Fraction(1, 3), Fraction(2, 7)),
                    (Fraction(5, 2), Fraction(0)))
    assert type(rows[0][1]) is Fraction


def test_gaussian_rows_skip_zeros_of_any_type():
    # a ComplexRational zero, as every [0,1,0,1] of a spec document
    # decodes to, scales to the parts and row scale of an int zero, and
    # still makes the results ComplexRational
    rng = random.Random(13)
    for order in (1, 3, 8):
        entries = [0 if rng.random() < 0.5 else ComplexRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(entry_count(order))]
        ints = make_matrix(order, entries)
        zeros = make_matrix(order, [ComplexRational(0, 0) if x == 0 else x
                                    for x in entries])
        parts, scales, kind = gaussian_rows(zeros.rows)
        assert (parts, scales) == gaussian_rows(ints.rows)[:2]
        assert kind is ComplexRational
    assert gaussian_rows(((ComplexRational(0, 0),),)) == (
        (([0], [0]),), [1], ComplexRational)
    assert gaussian_rows(((Fraction(0), 3),)) == (
        (([0, 3], [0, 0]),), [1], Fraction)
