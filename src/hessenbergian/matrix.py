"""Lower Hessenberg matrices with structurally absent trivial entries.

An order-n lower Hessenberg matrix has h_{i,j} = 0 whenever j - i > 1.
Those trivial entries are never stored: row i keeps exactly
min(i+1, n) scalars, the entries h_{i,1} .. h_{i,min(i+1,n)}, so a
matrix holds n(n+3)/2 - 1 scalars in total.  All indices in the public
interface are 1-based; values are immutable after construction.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence, Tuple

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

    def entry(self, i: int, j: int):
        """h_{i,j} with 1-based indices; trivial positions return 0."""
        n = self.order
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"({i},{j}) outside order-{n} matrix")
        if j - i > 1:
            return 0
        return self.rows[i - 1][j - 1]

    @cached_property
    def is_float_backed(self) -> bool:
        """True when every entry is a machine float/complex scalar."""
        return all(
            isinstance(x, (float, complex)) and not isinstance(x, bool)
            for row in self.rows for x in row)

    @cached_property
    def _float_rows(self) -> Tuple[np.ndarray, ...]:
        # complex128 copies of the stored rows, for the vectorized paths
        return tuple(np.array([complex(x) for x in row], dtype=np.complex128)
                     for row in self.rows)

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


class SignedFactorView:
    """Read-only signed-factor view c_{i,j} of a Hessenberg matrix.

    Standard factors (on or below the diagonal) pass through unchanged,
    c_{i,j} = h_{i,j} for j <= i; the superdiagonal is negated,
    c_{i,i+1} = -h_{i,i+1}.  The convention c_{0,0} = 1 is exposed at
    (0,0).  Every non-trivial signed elementary product of the matrix is
    a plain product of these factors, its permutation sign folded in.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: HessenbergMatrix):
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("SignedFactorView is immutable")

    @property
    def order(self) -> int:
        return self.matrix.order

    def entry(self, i: int, j: int):
        """c_{i,j}; (0,0) returns the conventional 1."""
        if i == 0 and j == 0:
            return 1
        value = self.matrix.entry(i, j)
        if j == i + 1:
            return -value
        return value

    def row(self, i: int) -> tuple:
        """Stored factors of row i: (c_{i,1}, ..., c_{i,min(i+1,n)})."""
        stored = self.matrix.rows[i - 1]
        if i < self.order:
            return stored[:-1] + (-stored[-1],)
        return stored

    def to_matrix(self) -> HessenbergMatrix:
        """Reconstruct the plain matrix; exact round-trip."""
        n = self.order
        return HessenbergMatrix(
            n, [[self.entry(i, j) if j != i + 1 else -self.entry(i, j)
                 for j in range(1, row_length(n, i) + 1)]
                for i in range(1, n + 1)])

