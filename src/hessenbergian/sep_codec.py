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

Since r_1 is m's most significant digit, the SEPs whose indices share
their leading bits share their leading factors.  :func:`fold_seps`
visits every SEP that way, down the prefix tree of m in ascending m,
folding an accumulator over the rows so that each prefix is built once
from its parent's; :func:`enumerate_seps` and the symbolic expansion
(:func:`expand_symbolic`, :func:`expansion_lines`) are folds over it, so
each term's factor tuple or text is its parent prefix's plus one factor
and nothing is decoded per term.  :func:`tau` and :func:`decode_columns`
decode one index on its own, and stay the reference the walk is checked
against.  :class:`BitArray` is the one validator of a 0/1 sequence:
:func:`decode_columns` passes a raw sequence through it and checks the
last bit; integer arguments and the expansion cap go through the rules
in :mod:`errors`.  The module imports nothing numeric: ``expand`` runs
on it without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Iterator, List, Sequence, Tuple, TypeVar,
                    Union)

from .errors import (InvalidOrder, InvalidSep, NotInRangeSet,
                     OrderTooLargeForExpansion, _check_int, _check_order_cap,
                     _is_int)

# The m index of a SEP is a plain integer in [0, 2^(order-1)).
SepIndex = int

EXPANSION_CAP = 16

Acc = TypeVar("Acc")


@dataclass(frozen=True)
class BitArray:
    """Bits r_1..r_n, one per matrix row.  Values produced by this
    module always end in r_n = 1; arbitrary 0/1 content is accepted at
    construction so that the decoders can reject it explicitly."""

    order: int
    bits: Tuple[int, ...]

    def __post_init__(self):
        _check_int(self.order, "order", 1)
        if len(self.bits) != self.order:
            raise InvalidOrder(
                f"expected {self.order} bits, got {len(self.bits)}")
        if not all(_is_int(b) and b in (0, 1) for b in self.bits):
            raise InvalidOrder("bits must be 0 or 1")


@dataclass(frozen=True)
class SepFactors:
    """Column choices pi_1..pi_n of one non-trivial SEP, plus its sign."""

    order: int
    columns: Tuple[int, ...]
    sign: int


def sep_count(order: int) -> int:
    """Number of non-trivial SEPs of an order-n Hessenberg matrix."""
    _check_int(order, "order", 1)
    return 1 << (order - 1)


def tau(order: int, m: SepIndex) -> BitArray:
    """m-th bit array: the n-1 binary digits of m (most significant
    first), then the fixed final 1."""
    _check_int(m, f"order-{order} index", 0, sep_count(order) - 1)
    bits = tuple((m >> (order - 1 - i)) & 1 for i in range(1, order)) + (1,)
    return BitArray(order, bits)


def decode_columns(r: Union[BitArray, Sequence[int]]) -> SepFactors:
    """Bit array -> SEP columns and sign, one left-to-right pass."""
    # a raw sequence is validated as a BitArray; either must end in 1
    if not isinstance(r, BitArray):
        bits = tuple(r)
        r = BitArray(len(bits), bits)
    if r.bits[-1] != 1:
        raise NotInRangeSet(f"last bit must be 1, got {r.bits!r}")
    order, bits = r.order, r.bits
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


def fold_seps(order: int, step: Callable[[Acc, int, int], Acc],
              initial: Acc) -> Iterator[Tuple[SepIndex, int, Acc]]:
    """Yield (m, sign, acc) for every SEP, in ascending m, where acc is
    step(...step(step(initial, 1, pi_1), 2, pi_2)..., n, pi_n).

    The walk runs down the prefix tree of m: r_i is digit n-1-i of m, so
    the SEPs that share m's leading bits share their leading factors,
    and each prefix's accumulator is folded once, from its parent's.
    The walk keeps an explicit stack, so any order works, and it is
    lazy, so callers may stop early.
    """
    n = order
    sep_count(n)  # refuses an invalid order
    # (row i done, m prefix, sign, column of the next standard factor, acc)
    stack = [(0, 0, 1, 1, initial)]
    while stack:
        i, m, sign, last, acc = stack.pop()
        i += 1
        if i == n:
            yield m, sign, step(acc, n, last)
            continue
        # the standard child (r_i = 1) goes under the superdiagonal one
        # (r_i = 0), so the smaller m comes out first
        stack.append((i, 2 * m + 1, sign, i + 1, step(acc, i, last)))
        stack.append((i, 2 * m, -sign, last, step(acc, i, i + 1)))


def enumerate_seps(order: int) -> Iterator[Tuple[SepIndex, SepFactors]]:
    """Yield (m, decode_columns(tau(order, m))) for ascending m.

    Exactly 2^(order-1) items, folded down the prefix tree by
    :func:`fold_seps`; nothing is materialized, so callers may stop
    early.
    """
    for m, sign, columns in fold_seps(order, _add_column, ()):
        yield m, SepFactors(order, columns, sign)


def _add_column(columns: Tuple[int, ...], i: int, col: int):
    return columns + (col,)


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


def _expansion(order: int, step, initial):
    # the order, then the cap, are checked before any term is built
    _check_order_cap(order, EXPANSION_CAP, OrderTooLargeForExpansion,
                     "EXPANSION_CAP")
    return fold_seps(order, step, initial)


def expand_symbolic(order: int) -> List[SymbolicTerm]:
    """All 2^(n-1) signed terms of det(H_n), in ascending index order."""
    return [SymbolicTerm(sign, pairs) for _, sign, pairs in
            _expansion(order, _add_pair, ())]


def expansion_lines(order: int) -> Iterator[str]:
    """The rendered terms of :func:`expand_symbolic`, lazily; each
    line's text is its parent prefix's text plus one factor."""
    terms = _expansion(order, lambda text, i, col: text + labels[i][col], "")
    # each factor's label is formatted once, so a step appends a string
    # instead of formatting two ints; the table is built once _expansion
    # has checked the order, and the walk reads it only when iterated
    labels = [[f"h({i},{col})" for col in range(i + 2)]
              for i in range(order + 1)]
    return (("+" if sign > 0 else "-") + text for _, sign, text in terms)


def _add_pair(pairs: tuple, i: int, col: int) -> tuple:
    return pairs + ((i, col),)
