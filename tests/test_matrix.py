import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_exact_matrix
from hessenbergian import (ComplexRational, HessenbergMatrix, IndexOutOfRange,
                           InvalidOrder, WrongEntryCount, entry_count,
                           leading_submatrix, make_matrix, row_length,
                           signed_rows)


def test_row_length_goldens():
    assert [row_length(4, i) for i in range(1, 5)] == [2, 3, 4, 4]
    assert row_length(1, 1) == 1


def test_entry_count_matches_closed_formula():
    for n in range(1, 21):
        assert entry_count(n) == sum(row_length(n, i) for i in range(1, n + 1))
        assert entry_count(n) == n * (n + 3) // 2 - 1


def test_make_matrix_flat_row_major():
    m = make_matrix(3, [1, 2, 3, 4, 5, 6, 7, 8])
    assert [row.tolist() for row in m.rows] == [[1, 2], [3, 4, 5], [6, 7, 8]]
    assert m.order == 3


def test_leading_submatrix():
    m = make_matrix(3, [1, 2, 3, 4, 5, 6, 7, 8])
    assert [row.tolist() for row in leading_submatrix(m, 1).rows] == [[1]]
    assert [row.tolist() for row in leading_submatrix(m, 2).rows] == [
        [1, 2], [3, 4]]
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
    assert not make_matrix(2, [1, 2.0, 3.0, 4.0]).is_float_backed  # mixed


def test_stored_rows_dtype_follows_realization():
    floats = make_matrix(2, [1.0, 2j, 0.5, 4.0])
    assert [a.dtype for a in floats.rows] == [np.complex128, np.complex128]
    assert [a.tolist() for a in floats.rows] == [[1.0, 2j], [0.5, 4.0]]
    for entries in ([1, 2, 3, 4], [1, 2.0, 3.0, 4.0],
                    [ComplexRational(1, 2)] * 4):
        m = make_matrix(2, entries)
        assert all(a.dtype == object for a in m.rows)
        # object rows hold the entries themselves, types included
        values = [v for a in m.rows for v in a.tolist()]
        assert values == entries
        assert [type(v) for v in values] == [type(v) for v in entries]


def test_stored_rows_are_read_only_copies():
    given = np.array([1.0, 2.0])
    m = HessenbergMatrix(2, [given, [3.0, 4.0]])
    for row in m.rows:
        with pytest.raises(ValueError):
            row[0] = 9
    given[0] = 5.0  # the caller's array is copied, not frozen in place
    assert m.rows[0].tolist() == [1.0, 2.0]
    # a complex128 row is taken on its dtype, and copied all the same
    given = np.array([1 + 2j, -0.0])
    m = HessenbergMatrix(2, [given, np.array([3j, 4.0])])
    assert m.is_float_backed and m.rows[0] is not given
    given[0] = 5.0
    assert given.flags.writeable and m.rows[0].tolist() == [1 + 2j, 0j]
    assert leading_submatrix(m, 1).rows[0].tolist() == [1 + 2j]
    exact = make_matrix(2, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        exact.rows[1][0] = 9
    assert exact.rows[1].tolist() == [3, 4]


def test_signed_rows_negate_superdiagonal_only():
    m = make_matrix(3, [1, 2, 3, 4, 5, 6, 7, 8])
    assert [row.tolist() for row in signed_rows(m)] == [
        [1, -2], [3, 4, -5], [6, 7, 8]]
    # stored rows untouched
    assert [row.tolist() for row in m.rows] == [[1, 2], [3, 4, 5], [6, 7, 8]]
    one = make_matrix(1, [ComplexRational(3, -1)])
    # order 1 has no superdiagonal
    assert [row.tolist() for row in signed_rows(one)] == [one.rows[0].tolist()]


def test_signed_rows_round_trip():
    # negating the superdiagonal twice gives the stored rows back
    rng = random.Random(11)
    for order in (1, 2, 5, 8):
        m = random_exact_matrix(order, rng)
        twice = signed_rows(HessenbergMatrix(order, signed_rows(m)))
        assert [row.tolist() for row in twice] == [
            row.tolist() for row in m.rows]


def test_signed_rows_keep_fractions():
    m = HessenbergMatrix(2, [[Fraction(1, 3), Fraction(-2, 7)],
                             [Fraction(5, 2), Fraction(0)]])
    rows = [row.tolist() for row in signed_rows(m)]
    assert rows == [[Fraction(1, 3), Fraction(2, 7)],
                    [Fraction(5, 2), Fraction(0)]]
    assert type(rows[0][1]) is Fraction
