"""Closed-form Hessenbergian evaluation.

The determinant of an order-n lower Hessenberg matrix equals the sum of
its 2^(n-1) non-trivial signed elementary products, and those products
are indexed by the integers m in [0, 2^(n-1)):

    det(H_n) = sum_m chi(H, m)

where chi(H, m) multiplies the signed factors c_{i,pi_i} selected by
decoding m's bit array.  The exponential term count makes this a
verification and benchmarking route, not a production determinant path;
orders above a configurable cap are refused.

Summation order is ascending m and therefore deterministic.  For float
matrices the m-range is processed in fixed-size blocks (vectorized),
block sums are combined with compensated accumulation, and the opt-in
parallel mode distributes the same blocks over a thread pool while still
combining them in ascending order, so its output is bit-identical to
the sequential mode.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import OrderTooLargeForClosedForm, OrderTooLargeForExpansion
from .matrix import HessenbergMatrix, SignedFactorView
from .sep_codec import decode_columns, enumerate_seps, sep_count, tau

DEFAULT_CLOSED_FORM_CAP = 28
EXPANSION_CAP = 16

_BLOCK = 1 << 16


def chi(matrix: HessenbergMatrix, m: int):
    """Product value of the m-th non-trivial SEP, sign folded in.

    The factors come from the SignedFactorView, so the superdiagonal
    entries arrive negated and no separate permutation sign is needed.
    The decode happens per call; nothing is cached.
    """
    view = SignedFactorView(matrix)
    factors = decode_columns(tau(matrix.order, m))
    value = 1
    for i, col in enumerate(factors.columns, start=1):
        value = value * view.entry(i, col)
    return value


def _signed_rows(matrix: HessenbergMatrix) -> List[tuple]:
    view = SignedFactorView(matrix)
    return [view.row(i) for i in range(1, matrix.order + 1)]


def _sum_range_generic(crows, n: int, start: int, stop: int):
    # Inlined decode of each m; avoids per-term object construction.
    total = 0
    for m in range(start, stop):
        value = 1
        zrun = 0
        for i in range(1, n):
            if (m >> (n - 1 - i)) & 1:
                value = value * crows[i - 1][i - 1 - zrun]
                zrun = 0
            else:
                value = value * crows[i - 1][i]
                zrun += 1
        value = value * crows[n - 1][n - 1 - zrun]
        total = total + value
    return total


def _signed_rows_float(matrix: HessenbergMatrix) -> List[np.ndarray]:
    crows = []
    n = matrix.order
    for i, row in enumerate(matrix._float_rows, start=1):
        crow = row.copy()
        if i < n:
            crow[-1] = -crow[-1]
        crows.append(crow)
    return crows


def _sum_block_float(crows, n: int, start: int, stop: int) -> complex:
    ms = np.arange(start, stop, dtype=np.int64)
    zrun = np.zeros(len(ms), dtype=np.int64)
    prod = np.ones(len(ms), dtype=np.complex128)
    # an overflowing product becomes inf or nan in the value, not a warning
    with np.errstate(all="ignore"):
        for i in range(1, n):
            bits = (ms >> (n - 1 - i)) & 1
            cols = np.where(bits == 1, i - 1 - zrun, i)
            prod *= np.take(crows[i - 1], cols)
            zrun = np.where(bits == 1, 0, zrun + 1)
        prod *= np.take(crows[n - 1], n - 1 - zrun)
        return complex(prod.sum())


def _block_ranges(total: int, block_size: int) -> List[Tuple[int, int]]:
    return [(s, min(s + block_size, total))
            for s in range(0, total, block_size)]


def det_closed_form(matrix: HessenbergMatrix, *,
                    closed_form_cap: int = DEFAULT_CLOSED_FORM_CAP,
                    parallel: bool = False,
                    workers: Optional[int] = None,
                    block_size: int = _BLOCK):
    """Determinant as the sum of all non-trivial SEP values.

    2^(n-1) terms; raises OrderTooLargeForClosedForm above the cap.
    The value does not depend on the block partitioning: exact sums are
    associative, and float blocks are always combined in ascending order.
    """
    n = matrix.order
    if n > closed_form_cap:
        raise OrderTooLargeForClosedForm(
            f"order {n} exceeds closed_form_cap={closed_form_cap}")
    if block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
    total = sep_count(n)
    ranges = _block_ranges(total, block_size)
    if matrix.is_float_backed:
        crows = _signed_rows_float(matrix)
        summer, combine = _sum_block_float, _kahan_sum
    else:
        crows = _signed_rows(matrix)
        summer, combine = _sum_range_generic, _plain_sum

    def worker(block):
        return summer(crows, n, block[0], block[1])
    if parallel and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(worker, ranges))
    else:
        partials = [worker(r) for r in ranges]
    return combine(partials)


def _plain_sum(parts):
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


def _kahan_sum(parts) -> complex:
    # Compensated accumulation; the partial sums carry mixed signs.
    total = 0j
    carry = 0j
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
