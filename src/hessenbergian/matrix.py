"""Lower Hessenberg matrices with structurally absent trivial entries.

An order-n lower Hessenberg matrix has h_{i,j} = 0 whenever j - i > 1.
Those trivial entries are never stored: row i keeps exactly
min(i+1, n) scalars, the entries h_{i,1} .. h_{i,min(i+1,n)}, so a
matrix holds n(n+3)/2 - 1 scalars in total.  All indices in the public
interface are 1-based; values are immutable after construction.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import IndexOutOfRange, InvalidOrder, WrongEntryCount


def row_length(order: int, i: int) -> int:
    """Number of stored entries in row i of an order-n matrix."""
    return min(i + 1, order)


def entry_count(order: int) -> int:
    """Total number of stored entries: sum_i min(i+1, n)."""
    return sum(row_length(order, i) for i in range(1, order + 1))


class HessenbergMatrix:
    """Immutable lower Hessenberg matrix of a given order.

    ``rows[i-1]`` holds the stored entries of row i.  Use
    :func:`make_matrix` to build one from a flat row-major entry list.
    """

    __slots__ = ("order", "rows", "__dict__")

    def __init__(self, order: int, rows: Sequence[Sequence]):
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise InvalidOrder(f"order must be a positive integer, got {order!r}")
        if len(rows) != order:
            raise WrongEntryCount(
                f"expected {order} rows, got {len(rows)}")
        frozen = []
        for i, row in enumerate(rows, start=1):
            want = row_length(order, i)
            if len(row) != want:
                raise WrongEntryCount(
                    f"row {i} must store {want} entries, got {len(row)}")
            frozen.append(tuple(row))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", tuple(frozen))

    def __setattr__(self, name, value):
        raise AttributeError("HessenbergMatrix is immutable")

    @cached_property
    def is_float_backed(self) -> bool:
        """True when every entry is a machine float/complex scalar."""
        return all(
            isinstance(x, (float, complex)) and not isinstance(x, bool)
            for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, HessenbergMatrix):
            return NotImplemented
        return self.order == other.order and self.rows == other.rows

    def __hash__(self):
        return hash((self.order, self.rows))

    def __repr__(self):
        return f"HessenbergMatrix(order={self.order})"


def leading_submatrix(matrix: HessenbergMatrix, k: int) -> HessenbergMatrix:
    """The leading principal k x k submatrix H_k, for 1 <= k <= order."""
    n = matrix.order
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= n:
        raise IndexOutOfRange(f"submatrix order {k!r} outside [1, {n}]")
    if k == n:
        return matrix
    rows = matrix.rows[:k]
    return HessenbergMatrix(k, rows[:-1] + (rows[-1][:k],))


def make_matrix(order: int, entries: Sequence) -> HessenbergMatrix:
    """Build a matrix from the row-major list of non-trivial entries.

    The list length must equal sum_i min(i+1, n); anything else raises
    WrongEntryCount.  Orders below 1 raise InvalidOrder.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise InvalidOrder(f"order must be a positive integer, got {order!r}")
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
    """The stored rows as signed factors c_{i,j}.

    The superdiagonal entry h_{i,i+1}, the last stored entry of every
    row except row n, is negated: c_{i,i+1} = -h_{i,i+1}.  Every other
    entry passes through unchanged.  Each non-trivial signed elementary
    product of the matrix is a plain product of these factors, its
    permutation sign folded in.
    """
    rows = matrix.rows
    return tuple(row[:-1] + (-row[-1],) for row in rows[:-1]) + rows[-1:]


def row_arrays(matrix: HessenbergMatrix, rows: Sequence[Sequence]) -> tuple:
    """``rows`` (the stored rows or a row-for-row image of them) as numpy
    arrays, built per call.  The realization picks the dtype and nothing
    else: complex128 when the matrix is float-backed, object otherwise,
    so exact, int, Fraction and mixed entries keep Python arithmetic."""
    dtype = np.complex128 if matrix.is_float_backed else object
    return tuple(np.array(row, dtype=dtype) for row in rows)
