"""Lower Hessenberg matrices with structurally absent trivial entries.

An order-n lower Hessenberg matrix has h_{i,j} = 0 whenever j - i > 1.
Those trivial entries are never stored: row i keeps exactly
min(i+1, n) scalars, the entries h_{i,1} .. h_{i,min(i+1,n)}, so a
matrix holds n(n+3)/2 - 1 scalars in total.  All indices in the public
interface are 1-based.  Values and realization are fixed at
construction: each row is stored as a read-only numpy array, complex128
when every entry is an int, float or complex and at least one is a
float or complex (bare ints are neutral, as in documents), and object
otherwise.  A row given as a complex128 array is taken on its dtype and
copied, never scanned entry by entry.

The exact kernels read object rows through :func:`gaussian_rows`, which
scales each row by the lcm of its entries' denominators so that every
entry is a Gaussian integer held in plain ``int`` parts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import WrongEntryCount, _check_int
from .scalars import ComplexRational, exact_parts


def row_length(order: int, i: int) -> int:
    """Number of stored entries in row i of an order-n matrix."""
    return min(i + 1, order)


def entry_count(order: int) -> int:
    """Total number of stored entries: sum_i min(i+1, n)."""
    return sum(row_length(order, i) for i in range(1, order + 1))


def _is_float_row(row) -> bool:
    if isinstance(row, np.ndarray) and row.dtype == np.complex128:
        return True
    return all(isinstance(x, (int, float, complex)) for x in row)


class HessenbergMatrix:
    """Immutable lower Hessenberg matrix of a given order.

    ``rows[i-1]`` holds the stored entries of row i.  Use
    :func:`make_matrix` to build one from a flat row-major entry list.
    """

    __slots__ = ("order", "rows")

    def __init__(self, order: int, rows: Sequence[Sequence]):
        _check_int(order, "order", 1)
        if len(rows) != order:
            raise WrongEntryCount(
                f"expected {order} rows, got {len(rows)}")
        for i, row in enumerate(rows, start=1):
            want = row_length(order, i)
            if len(row) != want:
                raise WrongEntryCount(
                    f"row {i} must store {want} entries, got {len(row)}")
        # a bare int is neutral beside a float; ints alone are exact
        floats = (all(map(_is_float_row, rows))
                  and not all(isinstance(x, int) for row in rows for x in row))
        # np.array copies, so a caller's array is never frozen in place
        frozen = tuple(np.array(row, dtype=np.complex128 if floats else object)
                       for row in rows)
        for row in frozen:
            row.flags.writeable = False
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", frozen)

    def __setattr__(self, name, value):
        raise AttributeError("HessenbergMatrix is immutable")

    @property
    def is_float_backed(self) -> bool:
        """True when the rows are stored as complex128 arrays."""
        return self.rows[0].dtype == np.complex128

    def __eq__(self, other):
        if not isinstance(other, HessenbergMatrix):
            return NotImplemented
        return self.order == other.order and all(
            map(np.array_equal, self.rows, other.rows))

    def __hash__(self):
        return hash((self.order, tuple(tuple(row.tolist()) for row in self.rows)))

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
    """The stored rows as signed factors c_{i,j}, one array per row.

    The superdiagonal entry h_{i,i+1}, the last stored entry of every
    row except row n, is negated: c_{i,i+1} = -h_{i,i+1}.  Every other
    entry passes through unchanged.  Each non-trivial signed elementary
    product of the matrix is a plain product of these factors, its
    permutation sign folded in.
    """
    signed = tuple(row.copy() for row in matrix.rows)
    for row in signed[:-1]:
        row[-1] = -row[-1]
    return signed


def gaussian_rows(rows) -> tuple:
    """Exact object rows as Gaussian integers: ``(parts, scales, kind)``.

    Row i is multiplied by d_i = ``scales[i]``, the lcm of its entries'
    denominators, so every entry becomes a Gaussian integer.
    ``parts[i]`` holds the scaled row as object arrays of plain ``int``:
    ``(re,)`` when no entry of any row has an imaginary part, ``(re, im)``
    otherwise.  A determinant is linear in each row, so the determinant
    of the leading k x k block of the scaled rows is d_1...d_k times the
    original one, and :func:`exact_value` divides it back once.
    ``kind`` is the type of the results: ``int`` for int entries,
    ``Fraction`` when int and Fraction entries mix, and
    ``ComplexRational`` when any entry is one.  Built per call; nothing
    is cached.
    """
    kind = int
    scaled = []
    scales = []
    for row in rows:
        values = row.tolist()
        # int entries never go through Fraction
        others = [(i, x) for i, x in enumerate(values)
                  if not isinstance(x, int)]
        im = [0] * len(values)
        if not others:
            scaled.append((values, im))
            scales.append(1)
            continue
        if any(isinstance(x, ComplexRational) for _, x in others):
            kind = ComplexRational
        elif kind is int:
            kind = Fraction
        quads = [(i, *exact_parts(x)) for i, x in others]
        d = math.lcm(*(q[2] for q in quads), *(q[4] for q in quads))
        re = [x * d if isinstance(x, int) else 0 for x in values]
        for i, a, b, c, e in quads:
            re[i] = a * (d // b)
            im[i] = c * (d // e)
        scaled.append((re, im))
        scales.append(d)
    width = 2 if any(any(im) for _, im in scaled) else 1
    parts = tuple(tuple(np.array(p, dtype=object) for p in pair[:width])
                  for pair in scaled)
    return parts, scales, kind


def exact_value(parts: tuple, scale: int, kind):
    """The ``kind`` scalar (re + i im) / scale, from ``(re,)`` or
    ``(re, im)`` int parts; the one division of an exact result."""
    if kind is int:
        return parts[0]  # every scale is 1
    re = Fraction(parts[0], scale)
    if kind is Fraction:
        return re
    im = Fraction(parts[1], scale) if len(parts) == 2 else Fraction(0)
    return ComplexRational._from_fractions(re, im)


def multiply_parts(a: tuple, b: tuple) -> tuple:
    """Product of two values held as ``(re,)`` or ``(re, im)`` parts
    (Gaussian-integer ints, or one complex128 part), ``b`` at least as
    wide as ``a``; elementwise on arrays."""
    if len(a) == 1:
        return tuple(a[0] * c for c in b)
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br
