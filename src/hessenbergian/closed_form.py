"""Closed-form Hessenbergian evaluation.

The determinant of an order-n lower Hessenberg matrix equals the sum of
its 2^(n-1) non-trivial signed elementary products, and those products
are indexed by the integers m in [0, 2^(n-1)):

    det(H_n) = sum_m chi(H, m)

where chi(H, m) multiplies the signed factors c_{i,pi_i} selected by
decoding m's bit array.  The exponential term count makes this a
verification and benchmarking route, not a production determinant path;
orders above a configurable cap are refused.

Summation order is ascending m and therefore deterministic.  One
kernel serves both realizations: the m-range is processed in fixed-size
blocks, vectorized over the signed rows, which keep the matrix's stored
dtype (complex128 for float-backed matrices, object arrays of exact
scalars otherwise), and the block sums are combined in ascending order
with compensated accumulation, which adds exactly 0 for exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import OrderTooLargeForClosedForm, OrderTooLargeForExpansion
from .matrix import HessenbergMatrix, signed_rows
from .sep_codec import decode_columns, enumerate_seps, sep_count, tau

DEFAULT_CLOSED_FORM_CAP = 28
EXPANSION_CAP = 16

_BLOCK = 1 << 16


def chi(matrix: HessenbergMatrix, m: int):
    """Product value of the m-th non-trivial SEP, sign folded in.

    The factors come from :func:`signed_rows`, so the superdiagonal
    entries arrive negated and no separate permutation sign is needed.
    The signed rows and the decode are built per call; nothing is cached.
    """
    crows = [row.tolist() for row in signed_rows(matrix)]  # Python scalars
    factors = decode_columns(tau(matrix.order, m))
    value = 1
    for i, col in enumerate(factors.columns, start=1):
        value = value * crows[i - 1][col - 1]
    return value


def _sum_block(crows, zeros, n: int, start: int, stop: int):
    # Inlined decode of every m in [start, stop), one factor row at a time
    ms = np.arange(start, stop, dtype=np.int64)
    zrun = np.zeros(len(ms), dtype=np.int64)
    prod = np.ones(len(ms), dtype=crows[0].dtype)
    dead = np.zeros(len(ms), dtype=bool)  # the terms with a zero factor
    # an overflowing product becomes inf or nan in the value, not a warning
    with np.errstate(all="ignore"):
        for i in range(1, n + 1):
            if i < n:
                bits = (ms >> (n - 1 - i)) & 1
                cols = np.where(bits == 1, i - 1 - zrun, i)
                zrun = np.where(bits == 1, 0, zrun + 1)
            else:
                cols = n - 1 - zrun
            prod *= np.take(crows[i - 1], cols)
            if zeros[i - 1] is not None:
                dead |= np.take(zeros[i - 1], cols)
        prod[dead] = 0
        return prod.sum(keepdims=True).item()


def det_closed_form(matrix: HessenbergMatrix, *,
                    closed_form_cap: int = DEFAULT_CLOSED_FORM_CAP):
    """Determinant as the sum of all non-trivial SEP values.

    2^(n-1) terms; raises OrderTooLargeForClosedForm above the cap.
    The terms are summed in _BLOCK-sized blocks of ascending m, and the
    block sums are combined in ascending order.  A term with a zero
    factor adds exactly 0 on both realizations, as in the recurrence, so
    a zero entry never turns an overflowing product into NaN; rows with
    no zero entry skip that bookkeeping.
    """
    n = matrix.order
    if n > closed_form_cap:
        raise OrderTooLargeForClosedForm(
            f"order {n} exceeds closed_form_cap={closed_form_cap}")
    crows = signed_rows(matrix)
    zeros = tuple(z if z.any() else None for z in (row == 0 for row in crows))
    total = sep_count(n)
    return _kahan_sum(
        _sum_block(crows, zeros, n, start, min(start + _BLOCK, total))
        for start in range(0, total, _BLOCK))


def _kahan_sum(parts):
    # Compensated accumulation; the partial sums carry mixed signs.  The
    # integer start adds nothing, so exact block sums combine exactly.
    total = 0
    carry = 0
    for p in parts:
        y = p - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


@dataclass(frozen=True)
class SymbolicTerm:
    """One signed term of the symbolic expansion: sign and the (row,
    column) pair of the factor taken in each row."""

    sign: int
    factors: Tuple[Tuple[int, int], ...]

    def render(self) -> str:
        head = "+" if self.sign > 0 else "-"
        return head + "".join(f"h({i},{j})" for i, j in self.factors)

    __str__ = render


def expand_symbolic(order: int) -> List[SymbolicTerm]:
    """All 2^(n-1) signed terms of det(H_n), in ascending index order."""
    if order > EXPANSION_CAP:
        raise OrderTooLargeForExpansion(
            f"order {order} exceeds the expansion cap {EXPANSION_CAP}")
    terms = []
    for _, factors in enumerate_seps(order):
        pairs = tuple((i, col) for i, col in
                      enumerate(factors.columns, start=1))
        terms.append(SymbolicTerm(factors.sign, pairs))
    return terms
