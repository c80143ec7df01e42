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
blocks of 2^b consecutive m, and only the product step depends on the
realization.  Row i's bit is digit n-1-i of m, so the terms of a block
share their leading factors: the kernel walks the prefix tree of m,
multiplying each shared row once, on one-element arrays, and then, for
each of the b free rows, doubles every prefix into its superdiagonal
child and its standard child (ascending m) with one gather and one
array product per row.  Every term is still the left-to-right product
1*c_1*...*c_n of its own factors, formed by numpy's array product, so a
float term has the same bits as when the whole block decodes every row;
shared tables of half products would change that association, and with
it the last bits of the sum.  A float-backed matrix multiplies its
stored complex128 rows, and its block sums are combined in ascending
order with compensated accumulation.  An exact matrix is summed
fraction-free: :func:`gaussian_rows` scales each signed row by the lcm
of its denominators into object arrays of plain ``int`` real and
imaginary parts, the products and sums stay Gaussian integers, and the
total is divided once, by the product of the row scales.

The symbolic expansion, which touches no matrix, lives in
:mod:`sep_codec`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DEFAULT_CLOSED_FORM_CAP, OrderTooLargeForClosedForm,
                     _check_order_cap)
from .matrix import (HessenbergMatrix, exact_value, gaussian_rows,
                     multiply_parts, signed_rows)
from .sep_codec import decode_columns, sep_count, tau

_BLOCK = 1 << 16  # a power of two: a block's m share their high bits


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


def _sum_block(factors, zeros, n: int, start: int, stop: int) -> tuple:
    # The terms m in [start, stop), a power-of-two block whose m share
    # every bit above the lowest `free`, built down the prefix tree one
    # factor row at a time.  factors[i-1] holds signed row i as
    # (complex128 array,) or as Gaussian-integer (re,) or (re, im)
    # parts; the block sum comes back in the same parts.
    free = (stop - start).bit_length() - 1
    prod = (np.ones(1, dtype=factors[0][0].dtype),)
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
                prod = tuple(np.repeat(p, 2) for p in prod)
                dead = np.repeat(dead, 2)
            picked = tuple(np.take(p, cols) for p in factors[i - 1])
            # out of place: numpy's in-place product of one-element
            # arrays rounds complex values differently from its product
            # of longer ones, and the block sums must not depend on how
            # many rows the block shares
            prod = multiply_parts(prod, picked)
            if zeros[i - 1] is not None:
                dead |= np.take(zeros[i - 1], cols)
        for p in prod:
            p[dead] = 0
        return tuple(p.sum(keepdims=True).item() for p in prod)


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
    _check_order_cap(n, closed_form_cap, OrderTooLargeForClosedForm,
                     "closed_form_cap")
    crows = signed_rows(matrix)
    if matrix.is_float_backed:
        factors = tuple((row,) for row in crows)
    else:
        factors, scales, kind = gaussian_rows(crows)
    zeros = tuple(z if z.any() else None for z in (
        np.logical_and.reduce([p == 0 for p in parts]) for parts in factors))
    total = sep_count(n)
    sums = [_sum_block(factors, zeros, n, start, min(start + _BLOCK, total))
            for start in range(0, total, _BLOCK)]
    if matrix.is_float_backed:
        return _kahan_sum(part for part, in sums)
    return exact_value(tuple(map(sum, zip(*sums))), math.prod(scales), kind)


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
