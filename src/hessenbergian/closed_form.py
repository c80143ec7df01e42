"""Closed-form Hessenbergian evaluation.

The determinant of an order-n lower Hessenberg matrix equals the sum of
its 2^(n-1) non-trivial signed elementary products, and those products
are indexed by the integers m in [0, 2^(n-1)):

    det(H_n) = sum_m chi(H, m)

where chi(H, m) multiplies the signed factors c_{i,pi_i} selected by
decoding m's bit array.  The recurrence of :mod:`determinants` sums
over the same signed factors, grouped by the row-n entry of each
product.  The exponential term count makes this a verification and
benchmarking route, not a production determinant path; orders above a
configurable cap are refused.

Each realization has its own kernel, as the recurrence has.  Row i's
bit is digit n-1-i of m, so the terms with a common prefix of bits
share their leading factors, and both kernels walk the prefix tree of
m, forming each term's product from its parent prefix's: a prefix's
superdiagonal child takes c_{i,i+1} and its standard child the next
standard factor.

A float-backed matrix sums its terms in ascending m, in fixed-size
blocks of 2^b consecutive m.  :func:`_sum_block` multiplies the rows a
block shares once, on one-element arrays, and then, for each of the b
free rows, doubles every prefix into its superdiagonal child and its
standard child (ascending m) with one gather and one array product per
row.  Every term is still the left-to-right product 1*c_1*...*c_n of
its own factors, formed by numpy's array product, so a float term has
the same bits as when the whole block decodes every row; shared tables
of half products would change that association, and with it the last
bits of the sum.  The block sums are combined in ascending order with
compensated accumulation.  numpy is imported by that kernel alone.

An exact matrix is summed fraction-free on plain ints:
:func:`gaussian_rows` scales each signed row by the lcm of its
denominators into ``(re, im)`` lists of ``int``, and
:func:`_gaussian_sum` walks the prefix tree depth first on an explicit
stack, so the order of the matrix bounds its depth, not Python's
recursion limit.  A zero factor makes every term below it zero, so the
walk never enters that subtree; on a banded matrix it visits only the
terms with no zero factor.  The sum is exact in any order, and the
total is divided once, by the product of the row scales.

The symbolic expansion, which touches no matrix, lives in
:mod:`sep_codec`.
"""

from __future__ import annotations

import math

from .errors import (DEFAULT_CLOSED_FORM_CAP, OrderTooLargeForClosedForm,
                     _check_order_cap)
from .matrix import (HessenbergMatrix, exact_value, gaussian_rows,
                     scalar_rows, signed_rows)
from .sep_codec import decode_columns, sep_count, tau

_BLOCK = 1 << 16  # a power of two: a block's m share their high bits


def chi(matrix: HessenbergMatrix, m: int):
    """Product value of the m-th non-trivial SEP, sign folded in.

    The factors come from :func:`signed_rows`, so the superdiagonal
    entries arrive negated and no separate permutation sign is needed.
    The signed rows and the decode are built per call; nothing is cached.
    """
    crows = scalar_rows(signed_rows(matrix))
    factors = decode_columns(tau(matrix.order, m))
    value = 1
    for i, col in enumerate(factors.columns, start=1):
        value = value * crows[i - 1][col - 1]
    return value


def _sum_block(rows, zeros, n: int, start: int, stop: int) -> complex:
    # The terms m in [start, stop), a power-of-two block whose m share
    # every bit above the lowest `free`, built down the prefix tree one
    # factor row at a time; rows[i-1] is signed row i, a complex128 array.
    import numpy as np

    free = (stop - start).bit_length() - 1
    prod = np.ones(1, dtype=np.complex128)
    # 0-based column of each prefix's next standard factor: the row of
    # its last standard factor, 0 when it has none
    last = np.zeros(1, dtype=np.int64)
    dead = np.zeros(1, dtype=bool)  # the prefixes with a zero factor
    # an overflowing product becomes inf or nan in the value, not a warning
    with np.errstate(all="ignore"):
        for i in range(1, n + 1):
            if i == n:
                cols = last
            elif i < n - free:  # a bit that the whole block shares
                if (start >> (n - 1 - i)) & 1:
                    cols, last = last, np.full(1, i)
                else:
                    cols = np.full(1, i)
            else:  # every prefix doubles: superdiagonal child, then standard
                cols = np.repeat(last, 2)
                cols[0::2] = i
                last = np.repeat(last, 2)
                last[1::2] = i
                prod = np.repeat(prod, 2)
                dead = np.repeat(dead, 2)
            # out of place: numpy's in-place product of one-element
            # arrays rounds complex values differently from its product
            # of longer ones, and the block sums must not depend on how
            # many rows the block shares.  The factors are named because
            # numpy runs prod times a large unnamed temporary as that
            # temporary times prod, and its complex product does not
            # commute in the last bit
            picked = np.take(rows[i - 1], cols)
            prod = prod * picked
            if zeros[i - 1] is not None:
                dead |= np.take(zeros[i - 1], cols)
        prod[dead] = 0
        return prod.sum().item()


def _gaussian_sum(rows: tuple) -> tuple:
    # The sum of every term over Gaussian-integer rows of (re, im) int
    # lists, as (re, im): a depth-first walk down the prefix tree on an
    # explicit stack, each child's product its parent's times one factor.
    n = len(rows)
    total_re = total_im = 0
    # (0-based row, column of its standard factor, prefix product re, im)
    stack = [(0, 0, 1, 0)]
    while stack:
        i, last, a, b = stack.pop()
        re, im = rows[i]
        if i == n - 1:  # the last row takes its standard factor alone
            x, y = re[last], im[last]
            total_re += a * x - b * y
            total_im += a * y + b * x
            continue
        # the superdiagonal child keeps `last`; the standard child moves
        # it to this row.  A zero factor's subtree adds exactly 0.
        for col, nxt in ((i + 1, last), (last, i + 1)):
            x, y = re[col], im[col]
            if x or y:
                stack.append((i + 1, nxt, a * x - b * y, a * y + b * x))
    return total_re, total_im


def det_closed_form(matrix: HessenbergMatrix, *,
                    closed_form_cap: int = DEFAULT_CLOSED_FORM_CAP):
    """Determinant as the sum of all non-trivial SEP values.

    2^(n-1) terms; raises OrderTooLargeForClosedForm above the cap.
    A term with a zero factor adds exactly 0 on both realizations, as in
    the recurrence, so a zero entry never turns an overflowing product
    into NaN.  A float-backed matrix sums its terms in _BLOCK-sized
    blocks of ascending m, combined in ascending order; rows with no
    zero entry skip the zero bookkeeping.  An exact matrix is summed by
    the walk of :func:`_gaussian_sum`, which never enters the terms
    under a zero factor, and the Gaussian-integer total is divided once.
    """
    n = matrix.order
    _check_order_cap(n, closed_form_cap, OrderTooLargeForClosedForm,
                     "closed_form_cap")
    crows = signed_rows(matrix)
    if not matrix.is_float_backed:
        parts, scales, kind = gaussian_rows(crows)
        return exact_value(_gaussian_sum(parts), math.prod(scales), kind)
    zeros = tuple(z if z.any() else None for z in (row == 0 for row in crows))
    total = sep_count(n)
    return _kahan_sum(_sum_block(crows, zeros, n, start,
                                 min(start + _BLOCK, total))
                      for start in range(0, total, _BLOCK))


def _kahan_sum(parts):
    # Compensated accumulation of float block sums, whose partial sums
    # carry mixed signs.
    total = 0
    carry = 0
    for p in parts:
        y = p - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total
