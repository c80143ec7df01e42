import doctest
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hessenbergian.scalars
from hessenbergian.formats import matrix_from_json
from hessenbergian.scalars import EXACT, FLOAT, ComplexRational, is_exact

CR = ComplexRational


def test_docstring_examples():
    failures, _ = doctest.testmod(hessenbergian.scalars)
    assert failures == 0


def test_arithmetic_goldens():
    a = CR(Fraction(1, 2), Fraction(3, 4))
    b = CR(2, -1)
    assert a + b == CR(Fraction(5, 2), Fraction(-1, 4))
    assert a - b == CR(Fraction(-3, 2), Fraction(7, 4))
    # (1/2 + 3/4 i)(2 - i) = 1 + 3/4 + (3/2 - 1/2) i
    assert a * b == CR(Fraction(7, 4), 1)
    assert (a * b) / b == a
    assert -a == CR(Fraction(-1, 2), Fraction(-3, 4))
    assert +a == a


def test_division_golden():
    # (3+4i)/(1-2i) = (3+4i)(1+2i)/5 = (-5+10i)/5
    assert CR(3, 4) / CR(1, -2) == CR(-1, 2)
    with pytest.raises(ZeroDivisionError):
        CR(1) / CR(0)


def test_powers():
    i = CR(0, 1)
    assert i ** 2 == -1
    assert i ** 3 == CR(0, -1)
    assert i ** 4 == 1
    assert CR(2) ** -2 == Fraction(1, 4)
    assert CR(5, 7) ** 0 == 1
    assert CR(1, 1) ** 2 == CR(0, 2)


def test_int_and_fraction_mix_stays_exact():
    a = CR(Fraction(1, 3))
    assert a + 1 == CR(Fraction(4, 3))
    assert 1 + a == CR(Fraction(4, 3))
    assert a * Fraction(3, 2) == CR(Fraction(1, 2))
    assert 2 / CR(1, 1) == CR(1, -1)
    assert is_exact(a + 1)


def test_float_mixing_is_refused():
    a = CR(1, 2)
    for other in (0.5, 1.5j):
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            a * other
    with pytest.raises(TypeError):
        CR(0.5)


def test_from_complex_is_exact():
    z = ComplexRational.from_complex(1.5 + 0.25j)
    assert z == CR(Fraction(3, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        ComplexRational.from_complex(complex("inf"))


def test_equality_and_hash_across_types():
    assert CR(5) == 5 and hash(CR(5)) == hash(5)
    assert CR(Fraction(1, 3)) == Fraction(1, 3)
    assert hash(CR(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert ComplexRational.from_complex(1.5 + 2.5j) == 1.5 + 2.5j
    assert hash(ComplexRational.from_complex(1.5 + 2.5j)) == hash(1.5 + 2.5j)
    assert CR(1, 2) != CR(1, 3)
    assert CR(0) == 0 and not CR(0)
    assert CR(0, Fraction(1, 3)) != 0
    for other in (float("inf"), float("nan"), complex(1, float("inf"))):
        assert (CR(1) == other) is False and CR(1) != other


def test_str_forms():
    assert str(CR(2)) == "2"
    assert str(CR(0, 1)) == "i"
    assert str(CR(0, -1)) == "-i"
    assert str(CR(Fraction(3, 2), -1)) == "3/2-i"
    assert str(CR(1, 2)) == "1+2i"
    assert str(CR(0, Fraction(-2, 3))) == "-2/3i"


def read_as(scalar, backend):
    """One scalar read through the wire decoder into ``backend``."""
    matrix, _ = matrix_from_json({"order": 1, "rows": [[scalar]]}, backend)
    return matrix.rows[0][0]


def test_conversions():
    assert complex(CR(Fraction(1, 2), 1)) == 0.5 + 1j
    assert read_as([1, 1, 1, 1], FLOAT) == 1 + 1j
    assert read_as([0.25, 0.5], EXACT) == CR(Fraction(1, 4), Fraction(1, 2))
    assert read_as([2, 3, 0, 1], EXACT) == CR(Fraction(2, 3))
    assert read_as(3, EXACT) == CR(3)
    assert read_as(3, FLOAT) == 3 + 0j
    with pytest.raises(ValueError):
        read_as(1, "decimal")
    assert not is_exact(0.5) and not is_exact(1j)


fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=20)
cr_st = st.builds(CR, fractions_st, fractions_st)


@given(cr_st, cr_st, cr_st)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (b + c) == (a + b) + c


@given(cr_st, cr_st)
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a
        assert (a / b) * b == a
