"""Exception types shared across the package.

Every domain error is a distinct class so callers can dispatch on type
rather than parse messages.  The CLI exits 3 on a :class:`SizeCapExceeded`
and 2 on any other :class:`HessenbergianError`.

The module also owns the names of the two realizations, ``EXACT`` and
``FLOAT``, and the argument rules every module checks through:
:func:`_is_int`, :func:`_check_int` (an int, not a bool, in range) and
:func:`_check_order_cap`; the default order caps of the closed form and
the Leibniz oracle; and the helpers that error messages share:
:func:`_cut`, which bounds an echoed token, and the digit-limit message;
and :class:`_Frozen`, the base of the immutable value types of
:mod:`ldevc` and :mod:`sep_codec`.
It imports nothing numeric, so the CLI's argument parser and the
numpy-free modules use it without loading numpy.
"""

import sys

DEFAULT_CLOSED_FORM_CAP = 28
DEFAULT_ORACLE_CAP = 10

# the names of the two realizations, re-exported by scalars
EXACT = "exact"
FLOAT = "float"

# the names of the Hessenbergian solve routes, re-exported by ldevc
GENERAL_METHODS = ("ratio-recurrence", "ratio-closed",
                   "reduced-recurrence", "reduced-closed")

_ECHO_CHARS = 40


def _cut(text: str, limit: int = _ECHO_CHARS, show=str) -> str:
    """``show(text)`` for an error message; a text longer than ``limit``
    is cut to its first ``limit`` characters and marked, so the error
    line stays short."""
    if len(text) <= limit:
        return show(text)
    return f"{show(text[:limit])}... (cut, {len(text)} characters)"


class _Frozen:
    """Base of the package's immutable value types, which hold their
    fields in ``__slots__`` and set them in ``__init__`` through
    ``object.__setattr__``.  Two values are equal when their classes are
    the same and their fields are equal in slot order, and hash as the
    tuple of their fields; repr and the errors on assignment and
    deletion read as those of a frozen dataclass."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class HessenbergianError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOrder(HessenbergianError):
    """An order, N or horizon is out of range, or a bit array is malformed."""


class WrongEntryCount(HessenbergianError):
    """A row-major entry list or coefficient row has the wrong length."""


class IndexOutOfRange(HessenbergianError):
    """An index (SEP index m, solution row n, basis index) is outside its range."""


def _is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, what: str, lo: int, hi: int | None = None) -> None:
    """Refuse ``value`` unless it is an int, not a bool, in [lo, hi]:
    InvalidOrder when there is no upper bound (``lo`` is then 1 or 0),
    IndexOutOfRange otherwise."""
    if _is_int(value) and lo <= value and (hi is None or value <= hi):
        return
    if hi is None:
        sign = "positive" if lo else "non-negative"
        raise InvalidOrder(f"{what} must be a {sign} integer, got {value!r}")
    raise IndexOutOfRange(f"{what} {value!r} outside [{lo}, {hi}]")


class NotInRangeSet(HessenbergianError):
    """A bit array is not decodable because its last bit is not 1."""


class InvalidSep(HessenbergianError):
    """Column indices do not form a permutation with pi_i <= i+1."""


class SizeCapExceeded(HessenbergianError):
    """An input is larger than a cap allows; the message names the cap."""


class OrderTooLargeForOracle(SizeCapExceeded):
    """Order exceeds the brute-force Leibniz cap (factorial cost)."""


class OrderTooLargeForClosedForm(SizeCapExceeded):
    """Order exceeds the closed-form summation cap (2^(n-1) terms)."""


class OrderTooLargeForExpansion(SizeCapExceeded):
    """Order exceeds the symbolic expansion cap (2^(n-1) emitted terms)."""


def _check_order_cap(order: int, cap: int, error: type, name: str) -> None:
    """Refuse an order that is not a positive int (InvalidOrder, through
    :func:`_check_int`), then (``error``) one above ``cap``, which is
    named ``name``."""
    _check_int(order, "order", 1)
    if order > cap:
        raise error(f"order {order} exceeds {name}={cap}")


class IntegerTooLargeForJson(SizeCapExceeded):
    """An integer has more decimal digits than Python converts between
    int and str (sys.get_int_max_str_digits()), so it can be neither read
    from nor written to JSON."""


def _digit_limit_error(where: str) -> IntegerTooLargeForJson:
    return IntegerTooLargeForJson(
        f"an integer in the {where} has more than "
        f"sys.get_int_max_str_digits()={sys.get_int_max_str_digits()} "
        f"decimal digits")


class IrregularOrder(HessenbergianError):
    """A leading coefficient a_{n,N+n} is zero; such equations are rejected."""


class WrongInitLength(HessenbergianError):
    """Initial conditions do not supply exactly N values."""


class InvalidParams(HessenbergianError):
    """Generator family parameters are malformed."""


class FormatError(HessenbergianError):
    """A JSON file does not conform to the matrix or spec format, or a
    value is beyond the double range of the float realization it is
    read into."""


class NonFiniteResult(HessenbergianError):
    """A float result is infinite or NaN, so it has no strict-JSON form."""


class LinearityViolation(HessenbergianError):
    """Solution families break y_n = p_n + sum_k xi_{n,k} y_{k-N}."""
