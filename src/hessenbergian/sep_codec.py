"""Codec between integers, bit arrays, and non-trivial signed elementary
products (SEPs) of a lower Hessenberg matrix.

A non-trivial SEP picks one stored entry per row, its column sequence
pi being a permutation with pi_i <= i+1; exactly 2^(n-1) of them exist
for order n.  Each one corresponds to a bit array (r_1, ..., r_n) with
r_n = 1, where r_i = 1 marks a standard factor (pi_i <= i) and r_i = 0
marks the superdiagonal factor (pi_i = i+1).  Bit arrays in turn are
indexed by the integers m in [0, 2^(n-1)) through their binary digits.

encode/decode rules, scanning left to right with z = length of the run
of zero bits immediately before position i:

* r_i = 0  ->  pi_i = i + 1
* r_i = 1  ->  pi_i = i - z   (z = i-1 when all earlier bits are 0,
                               giving pi_i = 1)

The SEP's permutation sign equals (-1)^(number of zero bits), which is
why products over the signed-factor view need no separate sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple, Union

from .errors import (IndexOutOfRange, InvalidOrder, InvalidSep,
                     NotInRangeSet)

# The m index of a SEP is a plain integer in [0, 2^(order-1)).
SepIndex = int


@dataclass(frozen=True)
class BitArray:
    """Bits r_1..r_n, one per matrix row.  Values produced by this
    module always end in r_n = 1; arbitrary 0/1 content is accepted at
    construction so that decode_columns can reject it explicitly."""

    order: int
    bits: Tuple[int, ...]

    def __post_init__(self):
        if (not isinstance(self.order, int) or isinstance(self.order, bool)
                or self.order < 1):
            raise InvalidOrder(f"order must be positive, got {self.order!r}")
        if len(self.bits) != self.order:
            raise InvalidOrder(
                f"expected {self.order} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise InvalidOrder("bits must be 0 or 1")


@dataclass(frozen=True)
class SepFactors:
    """Column choices pi_1..pi_n of one non-trivial SEP, plus its sign."""

    order: int
    columns: Tuple[int, ...]
    sign: int


def sep_count(order: int) -> int:
    """Number of non-trivial SEPs of an order-n Hessenberg matrix."""
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise InvalidOrder(f"order must be a positive integer, got {order!r}")
    return 1 << (order - 1)


def tau(order: int, m: SepIndex) -> BitArray:
    """m-th bit array: the n-1 binary digits of m (most significant
    first), then the fixed final 1."""
    count = sep_count(order)
    if not isinstance(m, int) or isinstance(m, bool) or not 0 <= m < count:
        raise IndexOutOfRange(
            f"index {m!r} outside [0, {count}) for order {order}")
    bits = tuple((m >> (order - 1 - i)) & 1 for i in range(1, order)) + (1,)
    return BitArray(order, bits)


def decode_columns(r: Union[BitArray, Sequence[int]]) -> SepFactors:
    """Bit array -> SEP columns and sign, one left-to-right pass."""
    if isinstance(r, BitArray):
        order, bits = r.order, r.bits
    else:
        bits = tuple(r)
        order = len(bits)
        if order < 1 or any(b not in (0, 1) for b in bits):
            raise InvalidOrder("bits must be a non-empty 0/1 sequence")
    if bits[-1] != 1:
        raise NotInRangeSet(f"last bit must be 1, got {bits!r}")
    columns = []
    zrun = 0
    zeros = 0
    for i, bit in enumerate(bits, start=1):
        if bit == 0:
            columns.append(i + 1)
            zrun += 1
            zeros += 1
        else:
            columns.append(i - zrun)
            zrun = 0
    sign = -1 if zeros & 1 else 1
    return SepFactors(order, tuple(columns), sign)


def encode_sep(p: Union[SepFactors, Sequence[int]]) -> BitArray:
    """SEP columns -> bit array; inverse of decode_columns.

    Raises InvalidSep unless the columns form a permutation of 1..n
    with pi_i <= i+1 for every i.
    """
    columns = tuple(p.columns) if isinstance(p, SepFactors) else tuple(p)
    n = len(columns)
    if n < 1:
        raise InvalidSep("empty column sequence")
    if sorted(columns) != list(range(1, n + 1)):
        raise InvalidSep(f"{columns!r} is not a permutation of 1..{n}")
    for i, col in enumerate(columns, start=1):
        if col > i + 1:
            raise InvalidSep(
                f"column {col} in row {i} is a trivial position")
    bits = tuple(0 if col == i + 1 else 1
                 for i, col in enumerate(columns, start=1))
    return BitArray(n, bits)


def sep_index(r: Union[BitArray, Sequence[int]]) -> SepIndex:
    """The m index of a bit array: r_1..r_{n-1} read as binary."""
    bits = r.bits if isinstance(r, BitArray) else tuple(r)
    if not bits or bits[-1] != 1:
        raise NotInRangeSet(f"last bit must be 1, got {bits!r}")
    m = 0
    for b in bits[:-1]:
        m = (m << 1) | b
    return m


def enumerate_seps(order: int) -> Iterator[Tuple[SepIndex, SepFactors]]:
    """Yield (m, decode_columns(tau(order, m))) for ascending m.

    Exactly 2^(order-1) items; nothing is materialized, so callers may
    stop early.
    """
    for m in range(sep_count(order)):
        yield m, decode_columns(tau(order, m))
