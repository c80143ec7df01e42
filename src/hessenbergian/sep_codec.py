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
their leading bits share their leading factors.  :func:`tau` and
:func:`decode_columns` are the one reference of the rule: they decode
one index on its own, and :func:`enumerate_seps` is that decode for
every index in ascending m.  Both forms of the symbolic expansion, the
terms of :func:`expand_symbolic` and the lines ``expand`` prints,
:func:`expansion_lines`, come from one builder, which makes every term
eagerly and level by level down the prefix tree of m: one pass per row
over parallel lists of label, sign and column, each term its parent
prefix's label plus one factor's.  The label of a factor is data to
it: a ``(row, column)`` pair, or the text of :func:`_label`, which
:meth:`SymbolicTerm.render` formats with too.  :class:`BitArray` is
the one validator of a 0/1 sequence from outside: :func:`decode_columns`
passes a raw sequence through it and checks the last bit, while
:func:`tau` sets the fields of the bits it has just built without a
second check.  Integer arguments and the expansion cap go through the
rules in :mod:`errors`.  The module imports nothing numeric, and its
value types are plain ``__slots__`` classes on :class:`errors._Frozen`,
which sets their fields (:class:`BitArray` checks its arguments first),
not dataclasses: ``expand`` runs on it without loading numpy or
``dataclasses``.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Sequence, Tuple, Union

from .errors import (InvalidOrder, InvalidSep, NotInRangeSet,
                     OrderTooLargeForExpansion, _check_int, _check_order_cap,
                     _Frozen, _is_int)

# The m index of a SEP is a plain integer in [0, 2^(order-1)).
SepIndex = int

EXPANSION_CAP = 16


class BitArray(_Frozen):
    """Bits r_1..r_n, one per matrix row.  Values produced by this
    module always end in r_n = 1; arbitrary 0/1 content is accepted at
    construction so that the decoders can reject it explicitly."""

    __slots__ = ("order", "bits")
    order: int
    bits: Tuple[int, ...]

    def __init__(self, order: int, bits: Tuple[int, ...]):
        _check_int(order, "order", 1)
        if len(bits) != order:
            raise InvalidOrder(f"expected {order} bits, got {len(bits)}")
        if not all(_is_int(b) and b in (0, 1) for b in bits):
            raise InvalidOrder("bits must be 0 or 1")
        super().__init__(order, bits)


class SepFactors(_Frozen):
    """Column choices pi_1..pi_n of one non-trivial SEP, plus its sign."""

    __slots__ = ("order", "columns", "sign")
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
    # order bits of 0 or 1 by construction: set, not validated again
    r = object.__new__(BitArray)
    _Frozen.__init__(r, order, bits)
    return r


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
    for i, bit in enumerate(bits, start=1):
        if bit == 0:
            columns.append(i + 1)
            zrun += 1
        else:
            columns.append(i - zrun)
            zrun = 0
    sign = -1 if bits.count(0) & 1 else 1
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


def enumerate_seps(order: int) -> Iterator[Tuple[SepIndex, SepFactors]]:
    """Yield (m, decode_columns(tau(order, m))) for ascending m.

    Exactly 2^(order-1) items, each index decoded on its own; nothing
    is materialized, so any order streams and callers may stop early.
    """
    for m in range(sep_count(order)):
        yield m, decode_columns(tau(order, m))


class SymbolicTerm(_Frozen):
    """One signed term of the symbolic expansion: sign and the (row,
    column) pair of the factor taken in each row."""

    __slots__ = ("sign", "factors")
    sign: int
    factors: Tuple[Tuple[int, int], ...]

    def render(self) -> str:
        head = "+" if self.sign > 0 else "-"
        return head + "".join(_label(i, j) for i, j in self.factors)

    __str__ = render


def _label(i: int, j: int) -> str:
    """The text of factor (i, j) in a rendered term."""
    return f"h({i},{j})"


def _pair(i: int, j: int) -> Tuple[Tuple[int, int]]:
    return ((i, j),)


def _expansion(order: int, label: Callable[[int, int], Sequence]
               ) -> Iterator[Tuple[int, Sequence]]:
    """(sign, label) of every term, in ascending m, where a term's label
    is the concatenation of label(i, pi_i) over its rows.

    The terms are built level by level, breadth first: one pass per row
    over parallel lists of each prefix's label, sign and column of its
    next standard factor, in ascending m, so each term's label is its
    parent prefix's plus one factor's.  The order and the cap are
    checked before any label is made.
    """
    _check_order_cap(order, EXPANSION_CAP, OrderTooLargeForExpansion,
                     "EXPANSION_CAP")
    # each factor's label is made once, so a step appends it instead of
    # making it again
    labels = [[label(i, col) for col in range(i + 2)]
              for i in range(order + 1)]
    # the root prefix has the empty label of the label's type
    prefixes, signs, lasts = [labels[0][0][:0]], [1], [1]
    for i in range(1, order):
        row, superdiagonal = labels[i], labels[i][i + 1]
        next_prefixes, next_signs, next_lasts = [], [], []
        add_prefix, add_sign = next_prefixes.append, next_signs.append
        add_last = next_lasts.append
        # the superdiagonal child (r_i = 0, at 2m) flips the sign and
        # keeps the next standard column; the standard child (r_i = 1,
        # at 2m + 1) takes that column, and its next one is i + 1
        for prefix, sign, last in zip(prefixes, signs, lasts):
            add_prefix(prefix + superdiagonal)
            add_prefix(prefix + row[last])
            add_sign(-sign)
            add_sign(sign)
            add_last(last)
            add_last(i + 1)
        prefixes, signs, lasts = next_prefixes, next_signs, next_lasts
    row = labels[order]  # the last row takes its standard factor alone
    return zip(signs, [prefix + row[last]
                       for prefix, last in zip(prefixes, lasts)])


def expand_symbolic(order: int) -> List[SymbolicTerm]:
    """All 2^(n-1) signed terms of det(H_n), in ascending index order."""
    return [SymbolicTerm(sign, pairs)
            for sign, pairs in _expansion(order, _pair)]


def expansion_lines(order: int) -> List[str]:
    """The rendered terms of :func:`expand_symbolic`, as a list."""
    return [("+" if sign > 0 else "-") + text
            for sign, text in _expansion(order, _label)]
