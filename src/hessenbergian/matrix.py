"""Lower Hessenberg matrices with structurally absent trivial entries.

An order-n lower Hessenberg matrix has h_{i,j} = 0 whenever j - i > 1.
Those trivial entries are never stored: row i keeps exactly
min(i+1, n) scalars, the entries h_{i,1} .. h_{i,min(i+1,n)}, so a
matrix holds n(n+3)/2 - 1 scalars in total.  All indices in the public
interface are 1-based.  The constructor alone fixes values and
realization: an entry is exact (a ``numbers.Rational`` or ComplexRational),
a float or a complex, else TypeError.  Every row is stored as a tuple,
immutable by type.  One float or complex entry makes every entry a
Python ``complex``, exact entries rounded once by ``complex(x)``; an
exact entry beyond the double range is then a FormatError, worded as
the decoder words it.  Rows whose entries are all ``complex`` already,
as the float decoder and the float solution rows of :mod:`ldevc` give
them, are taken as they are after the one type scan.  Otherwise every
row holds the entries themselves.  No matrix loads numpy: an exact
array row's numpy scalars become Python scalars through the numpy a
caller that passes one has already loaded.  A matrix is a value type on
:class:`errors._Frozen`, which sets its two fields once the constructor
has checked them.

Both exact kernels, the recurrence and the closed form, convert the
stored rows once, by :func:`gaussian_rows`, apply c_{i,i+1} = -h_{i,i+1}
where they multiply, and turn each result back with
:func:`exact_value`, or every prefix determinant with
:func:`exact_prefixes`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .errors import FormatError, WrongEntryCount, _check_int, _Frozen
from .scalars import ComplexRational, exact_parts


def row_length(order: int, i: int) -> int:
    """Number of stored entries in row i of an order-n matrix."""
    return min(i + 1, order)


def entry_count(order: int) -> int:
    """Total number of stored entries: sum_i min(i+1, n)."""
    return sum(row_length(order, i) for i in range(1, order + 1))


class HessenbergMatrix(_Frozen):
    """Immutable lower Hessenberg matrix of a given order.

    ``rows[i-1]`` holds the stored entries of row i.  Use
    :func:`make_matrix` to build one from a flat row-major entry list.
    Equality, hashing and immutability are those of
    :class:`errors._Frozen`; the repr names the order alone.
    """

    __slots__ = ("order", "rows")

    def __init__(self, order: int, rows: Sequence[Sequence]):
        _check_int(order, "order", 1)
        if len(rows) != order:
            raise WrongEntryCount(
                f"expected {order} rows, got {len(rows)}")
        kinds = set()  # the distinct entry types, checked once each
        for i, row in enumerate(rows, start=1):
            want = row_length(order, i)
            if len(row) != want:
                raise WrongEntryCount(
                    f"row {i} must store {want} entries, got {len(row)}")
            kinds.update(map(type, row))
        floats = False
        for kind in kinds:
            if issubclass(kind, (float, complex)):
                floats = True
            elif not issubclass(kind, (Rational, ComplexRational)):
                raise TypeError(f"matrix entries must be exact, float or "
                                f"complex scalars, got {kind.__name__}")
        if kinds == {complex}:  # the float decoder's rows, taken as they are
            frozen = tuple(map(tuple, rows))
        elif floats:
            try:
                frozen = tuple(tuple(map(complex, row)) for row in rows)
            except OverflowError:  # an exact entry beyond the doubles
                raise FormatError(
                    "a scalar is beyond the double range") from None
        else:  # an array row's numpy scalars become Python scalars
            np = sys.modules.get("numpy")  # loaded if a row is an array
            frozen = tuple(tuple(row.tolist() if np and isinstance(
                row, np.ndarray) else row) for row in rows)
        super().__init__(order, frozen)

    @property
    def is_float_backed(self) -> bool:
        """True when the rows hold Python ``complex`` values."""
        return type(self.rows[0][0]) is complex

    def __repr__(self):
        return f"HessenbergMatrix(order={self.order})"


def leading_submatrix(matrix: HessenbergMatrix, k: int) -> HessenbergMatrix:
    """The leading principal k x k submatrix H_k, for 1 <= k <= order."""
    n = matrix.order
    _check_int(k, "submatrix order", 1, n)
    if k == n:
        return matrix
    rows = matrix.rows[:k]
    return HessenbergMatrix(k, rows[:-1] + (rows[-1][:k],))


def make_matrix(order: int, entries: Sequence) -> HessenbergMatrix:
    """Build a matrix from the row-major list of non-trivial entries.

    The list length must equal sum_i min(i+1, n); anything else raises
    WrongEntryCount.  Orders below 1 raise InvalidOrder.
    """
    _check_int(order, "order", 1)
    want = entry_count(order)
    if len(entries) != want:
        raise WrongEntryCount(
            f"order {order} needs {want} entries, got {len(entries)}")
    rows = []
    pos = 0
    for i in range(1, order + 1):
        k = row_length(order, i)
        rows.append(entries[pos:pos + k])
        pos += k
    return HessenbergMatrix(order, rows)


def signed_rows(matrix: HessenbergMatrix) -> tuple:
    """The stored rows as signed factors c_{i,j}, one tuple per row.
    The float closed form gathers its factors from this copy; the exact
    kernels, the recurrence and the oracle ``chi`` negate the
    superdiagonal where they multiply.

    The superdiagonal entry h_{i,i+1}, the last stored entry of every
    row except row n, is negated: c_{i,i+1} = -h_{i,i+1}.  Every other
    entry passes through unchanged.  Each non-trivial signed elementary
    product of the matrix is a plain product of these factors, its
    permutation sign folded in.
    """
    rows = matrix.rows
    return (*(row[:-1] + (-row[-1],) for row in rows[:-1]), rows[-1])


def gaussian_rows(rows) -> tuple:
    """The stored rows of an exact matrix as Gaussian integers:
    ``(parts, scales, kind)``; the one conversion pass of both exact
    determinant kernels.

    Row i is multiplied by d_i = ``scales[i]``, the lcm of its entries'
    denominators, so every entry becomes a Gaussian integer.
    ``parts[i]`` holds the scaled row as two lists of plain ``int``,
    ``(re, im)``, the imaginary parts zero for real entries.  An int
    entry never goes through ``Fraction``, and a zero of any type scales
    to 0 without its parts being read.  The rows keep the stored signs:
    a kernel negates a superdiagonal entry where it multiplies it.  A
    determinant is linear in each row, so the determinant of the leading
    k x k block of the scaled rows is d_1...d_k times the original one,
    and :func:`exact_value` divides it back once.
    ``kind`` is the type of the results, taken from the entry types:
    ``int`` for int entries, ``Fraction`` when int and Fraction entries
    mix, and ``ComplexRational`` when any entry is one, zero or not.
    Built per call; nothing is cached.
    """
    kind = int
    scaled = []
    scales = []
    for values in rows:
        # int entries never go through Fraction
        others = [(i, x) for i, x in enumerate(values)
                  if not isinstance(x, int)]
        im = [0] * len(values)
        if not others:
            scaled.append((list(values), im))
            scales.append(1)
            continue
        if any(isinstance(x, ComplexRational) for _, x in others):
            kind = ComplexRational
        elif kind is int:
            kind = Fraction
        # a zero that is not an int, such as the ComplexRational zero of
        # a decoded [0,1,0,1], stays 0 with no parts and no lcm
        quads = [(i, *exact_parts(x)) for i, x in others if x]
        d = math.lcm(*(q[2] for q in quads), *(q[4] for q in quads))
        re = [x * d if isinstance(x, int) else 0 for x in values]
        for i, a, b, c, e in quads:
            re[i] = a * (d // b)
            im[i] = c * (d // e)
        scaled.append((re, im))
        scales.append(d)
    return tuple(scaled), scales, kind


def exact_value(parts: tuple, scale: int, kind):
    """The ``kind`` scalar (re + i im) / scale, from ``(re, im)`` int
    parts; the one division of an exact result."""
    re, im = parts
    if kind is int:
        return re  # every scale is 1
    if kind is Fraction:
        return Fraction(re, scale)
    return ComplexRational._from_fractions(Fraction(re, scale),
                                           Fraction(im, scale))


def exact_prefixes(sums, scales, kind) -> list:
    """[1, det(H_1), ..., det(H_n)] from the ``(re, im)`` int parts of
    the prefix determinants of rows scaled by :func:`gaussian_rows`:
    prefix k is divided once, by d_1...d_k."""
    values = [1]
    scale = 1
    for d, parts in zip(scales, sums):
        scale *= d
        values.append(exact_value(parts, scale, kind))
    return values
