import random
from fractions import Fraction

import pytest

from conftest import random_exact_matrix
from hessenbergian import (ComplexRational, HessenbergMatrix, IndexOutOfRange,
                           InvalidOrder, SignedFactorView, WrongEntryCount,
                           entry_count, leading_submatrix, make_matrix,
                           row_length)


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


def test_entry_one_based_with_structural_zeros():
    m = make_matrix(3, [1, 2, 3, 4, 5, 6, 7, 8])
    assert m.entry(1, 1) == 1
    assert m.entry(1, 2) == 2
    assert m.entry(1, 3) == 0  # above the superdiagonal: structurally zero
    assert m.entry(2, 3) == 5
    assert m.entry(3, 1) == 6
    for bad in ((0, 1), (1, 0), (4, 1), (1, 4)):
        with pytest.raises(IndexOutOfRange):
            m.entry(*bad)


@pytest.mark.parametrize("order", [0, -1, 2.0, "3", True])
def test_invalid_order_rejected(order):
    with pytest.raises(InvalidOrder):
        HessenbergMatrix(order, [])


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


def test_is_float_backed():
    assert make_matrix(2, [1.0, 2j, 0.5, 4.0]).is_float_backed
    assert not make_matrix(2, [1, 2, 3, 4]).is_float_backed
    assert not make_matrix(1, [ComplexRational(1)]).is_float_backed
    assert not make_matrix(2, [1, 2.0, 3.0, 4.0]).is_float_backed  # mixed


def test_signed_factor_view_negates_superdiagonal_only():
    m = make_matrix(3, [1, 2, 3, 4, 5, 6, 7, 8])
    view = SignedFactorView(m)
    assert view.order == 3
    assert view.entry(0, 0) == 1  # empty-product convention
    assert view.entry(1, 2) == -2
    assert view.entry(2, 3) == -5
    assert view.entry(1, 1) == 1
    assert view.entry(3, 1) == 6
    assert view.entry(3, 3) == 8
    assert view.row(1) == (1, -2)
    assert view.row(3) == (6, 7, 8)


def test_signed_factor_view_round_trip():
    rng = random.Random(11)
    for order in (1, 2, 5, 8):
        m = random_exact_matrix(order, rng)
        assert SignedFactorView(m).to_matrix() == m


def test_signed_factor_view_round_trip_exact_fractions():
    m = HessenbergMatrix(2, [[Fraction(1, 3), Fraction(-2, 7)],
                             [Fraction(5, 2), Fraction(0)]])
    back = SignedFactorView(m).to_matrix()
    assert back == m
    assert back.rows[0][1] == Fraction(-2, 7)
