"""The package's six value types, all built by ``errors._Frozen``: the
fields land in slot order, a wrong field count is a TypeError, repr,
equality and hashing are those pinned here, and no field can be set or
deleted (a matrix's ``del m.order`` included)."""

import pytest

from hessenbergian.errors import _Frozen
from hessenbergian.ldevc import LdevcSpec, SolutionBundle
from hessenbergian.matrix import HessenbergMatrix
from hessenbergian.sep_codec import BitArray, SepFactors, SymbolicTerm

# type, its fields in slot order, its repr
_VALUES = [
    (HessenbergMatrix, (2, ((1, 2), (3, 4))), "HessenbergMatrix(order=2)"),
    (LdevcSpec, (1, 1, ((2, 3), (5, 7, 11)), (13, 17)),
     "LdevcSpec(N=1, horizon=1)"),
    (SolutionBundle, (1, ((2,),), (3,), (4,), (5,)),
     "SolutionBundle(index_N=1, fundamentals=((2,),), particulars=(3,), "
     "generals=(4,), init=(5,))"),
    (BitArray, (3, (1, 0, 1)), "BitArray(order=3, bits=(1, 0, 1))"),
    (SepFactors, (3, (2, 1, 3), -1),
     "SepFactors(order=3, columns=(2, 1, 3), sign=-1)"),
    (SymbolicTerm, (-1, ((1, 2), (2, 1))),
     "SymbolicTerm(sign=-1, factors=((1, 2), (2, 1)))"),
]
_IDS = [kind.__name__ for kind, _, _ in _VALUES]


@pytest.mark.parametrize("kind, fields, text", _VALUES, ids=_IDS)
def test_fields_land_in_slot_order(kind, fields, text):
    value = kind(*fields)
    assert isinstance(value, _Frozen)
    assert tuple(getattr(value, name) for name in kind.__slots__) == fields
    assert repr(value) == text


@pytest.mark.parametrize("kind, fields, text", _VALUES, ids=_IDS)
def test_a_wrong_field_count_is_a_type_error(kind, fields, text):
    with pytest.raises(TypeError):
        kind(*fields[:-1])
    with pytest.raises(TypeError):
        kind(*fields, fields[-1])


@pytest.mark.parametrize("kind, fields, text", _VALUES, ids=_IDS)
def test_equal_and_hashed_by_their_fields(kind, fields, text):
    value = kind(*fields)
    assert value == kind(*fields)
    assert value != fields  # another class is never equal
    if kind is LdevcSpec:  # equal by value, but unhashable
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(fields)


@pytest.mark.parametrize("kind, fields, text", _VALUES, ids=_IDS)
def test_no_field_can_be_set_or_deleted(kind, fields, text):
    value = kind(*fields)
    for name in kind.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError,
                           match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert tuple(getattr(value, name) for name in kind.__slots__) == fields

