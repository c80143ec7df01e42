"""Scalar arithmetic backends.

Two realizations of the coefficient field sit behind one duck-typed
interface:

* exact: :class:`ComplexRational`, a complex number whose real and
  imaginary parts are arbitrary-precision ``fractions.Fraction`` values.
  Addition, subtraction, multiplication and division by a nonzero value
  are exact, and equality is decidable.
* float: the built-in ``complex`` (double precision per component).

The algorithms in this package are generic over either backend; plain
``int`` and ``Fraction`` values mix freely with the exact backend.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Union

# the realization names belong to errors, where the CLI's argument
# parser reads them without this module
from .errors import EXACT, FLOAT


class ComplexRational:
    """A complex number with exact rational real and imaginary parts.

    >>> a = ComplexRational(Fraction(1, 2), Fraction(3, 4))
    >>> b = ComplexRational(2, -1)
    >>> a * b
    ComplexRational(Fraction(7, 4), Fraction(1, 1))
    >>> (a / b) * b == a
    True
    >>> ComplexRational(5) == 5
    True

    Arithmetic with ``int`` and ``Fraction`` stays exact.  Mixing with
    ``float``/``complex`` is refused (TypeError) so precision is never
    lost silently; convert explicitly with ``complex(value)``.
    """

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re: Union[int, Fraction, str] = 0,
                 im: Union[int, Fraction, str] = 0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("use ComplexRational.from_complex for float input")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def _from_fractions(cls, re: Fraction, im: Fraction) -> "ComplexRational":
        # results of exact arithmetic, whose parts are already Fractions
        z = object.__new__(cls)
        object.__setattr__(z, "re", re)
        object.__setattr__(z, "im", im)
        return z

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @classmethod
    def from_complex(cls, z) -> "ComplexRational":
        """Exact conversion; binary floats are dyadic rationals."""
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("cannot represent a non-finite value exactly")
        return cls(Fraction(z.real), Fraction(z.imag))

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, Rational):  # int, Fraction
            return cls._from_fractions(Fraction(value), _ZERO)
        return None

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _from_fractions(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _from_fractions(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _from_fractions(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        if isinstance(other, int):  # an int zero, or an ldevc coefficient
            return _from_fractions(self.re * other, self.im * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (p/q + r/s i)(t/u + v/w i) over common denominators: one
        # normalizing gcd per part instead of six Fraction operations
        p, q = self.re.numerator, self.re.denominator
        r, s = self.im.numerator, self.im.denominator
        t, u = o.re.numerator, o.re.denominator
        v, w = o.im.numerator, o.im.denominator
        return _from_fractions(
            Fraction(p * t * s * w - r * v * q * u, q * u * s * w),
            Fraction(p * v * s * u + r * t * q * w, q * w * s * u))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return _from_fractions((self.re * o.re + self.im * o.im) / d,
                               (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return _from_fractions(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return ComplexRational(1) / self.__pow__(-exponent)
        result = ComplexRational(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # comparisons and conversions -----------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is not None:
            return self.re == o.re and self.im == o.im
        if isinstance(other, (complex, float)):
            z = complex(other)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                return False
            return self.re == Fraction(z.real) and self.im == Fraction(z.imag)
        return NotImplemented

    def __hash__(self):
        # Mirrors CPython's complex hash (hash(re) + 1000003*hash(im) with
        # 64-bit wraparound) so equal values hash equally across int,
        # Fraction, float, complex and ComplexRational.
        h = (hash(self.re) + 1000003 * hash(self.im)) & 0xFFFFFFFFFFFFFFFF
        if h >= 1 << 63:
            h -= 1 << 64
        return -2 if h == -1 else h

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        mag = abs(self.im)
        imag = f"{mag}i" if mag != 1 else "i"
        if not self.re:
            return imag if sign == "+" else f"-{imag}"
        return f"{self.re}{sign}{imag}"


_ZERO = Fraction(0)
_from_fractions = ComplexRational._from_fractions

Scalar = Union[int, Fraction, ComplexRational, float, complex]


def is_exact(value) -> bool:
    """True for scalars belonging to the exact realization."""
    return isinstance(value, (ComplexRational, Rational))


def _ratio(num: int, den: int) -> float:
    # num/den rounded once, bit for bit as float(Fraction(num, den)): the
    # sign moves to the numerator, so 0/-1 gives 0.0 rather than -0.0
    return -num / -den if den < 0 else num / den


def exact_parts(value) -> tuple:
    """(re num, re den, im num, im den) of an exact scalar, as plain
    ints in lowest terms."""
    if isinstance(value, ComplexRational):
        return (value.re.numerator, value.re.denominator,
                value.im.numerator, value.im.denominator)
    f = Fraction(value)
    return f.numerator, f.denominator, 0, 1
