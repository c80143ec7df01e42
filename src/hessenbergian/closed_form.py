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
blocks of 2^16 consecutive m, from a signed copy of its rows
(:func:`signed_rows`), which :func:`_float_sums` turns into complex128
arrays once per call.  Each block's terms are formed in sub-blocks of
2^b consecutive m (:func:`_sub_block_terms`), which multiply the rows
they share once, on one-element arrays, and then, for each of the b
free rows, write every prefix's two children straight into their slots
(ascending m) with two array products: the superdiagonal children
times the one factor c_{i,i+1}, and the standard children times a
table of their factors.  The factor a standard child takes depends
only on the free bits, except for the standard child of prefix 0,
which takes the column that the shared rows leave; so each order
fills one factor table per free row, and one for row n, once for all
of its sub-blocks (:func:`_factor_tables`), and each sub-block
writes its shared column's factors into the one placeholder entry of
each table.  If the shared rows hold a zero factor, every term of the
sub-block is zero, and it adds exactly 0 without a product; the zero
flags of the other terms are tracked only when a free row or row n
holds a zero.  Every term is still the left-to-right product
1*c_1*...*c_n of its own factors, formed by numpy's array product, so a
float term has the same bits as when the whole block decodes every
row; shared tables of half products would change that association, and
with it the last bits of the sum.  :func:`_sum_block` adds a block's
sub-block sums in the tree in which numpy's pairwise sum adds a
power-of-two length, so each block sum has the bits of numpy's sum of
the whole block, and the block sums are combined in ascending order
with compensated accumulation.  numpy is imported by that kernel
alone; no other code in the package loads it.  Each call makes one set
of sub-block-sized buffers and every sub-block writes into them,
products out of place between two of them.  Sub-blocks of 2^15 terms
keep those buffers, the factor tables among them, near 2 MB, and they
were the fastest size measured: a smaller one makes more numpy calls
per term.

An exact matrix converts its stored rows once, by
:func:`gaussian_rows`, as the recurrence does, and
:func:`_gaussian_sums` walks the prefix tree depth first on an explicit
stack, so the order of the matrix bounds its depth, not Python's
recursion limit.  It applies c_{i,i+1} = -h_{i,i+1} where it
multiplies a superdiagonal child, so no signed copy is built.  A zero
factor makes every term below it zero, so the walk never enters that
subtree; on a banded matrix it visits only the terms with no zero
factor.  The sum is exact in any order.

Every leading submatrix H_k shares its rows with the matrix, and the
terms of det(H_k) are the standard children at row k of the same prefix
tree, since H_k's last row takes its standard factor and its
superdiagonal is never read.  So the one exact walk adds each standard
child's product into its row's sum, and returns every prefix
determinant at the cost of the largest: :func:`closed_form_prefixes`
divides sum k by d_1...d_k, as :func:`det_prefixes` does for the
recurrence, and :func:`det_closed_form` takes its last entry.  The
float kernel keeps ascending m within each order, so
:func:`closed_form_prefixes` sums each order k's blocks from one set of
signed rows of the whole matrix, with the bits that H_k's own signed
rows give, and :func:`det_closed_form` sums order n alone.

The symbolic expansion, which touches no matrix, lives in
:mod:`sep_codec`.  The kernels count their own terms, 2^(k-1) at order
k, and only the oracle :func:`chi` decodes an index, importing
:mod:`sep_codec` in its body, so ``det --method closed`` loads neither
the codec nor :mod:`determinants`.
"""

from __future__ import annotations

from .errors import (DEFAULT_CLOSED_FORM_CAP, OrderTooLargeForClosedForm,
                     _check_order_cap)
from .matrix import (HessenbergMatrix, exact_prefixes, gaussian_rows,
                     signed_rows)

_BLOCK = 1 << 16  # a power of two: a block's m share their high bits
# the terms formed at once, a power of two; the fastest of 2^13 to 2^16
# (ROADMAP item 11)
_SUB_BLOCK = 1 << 15


def chi(matrix: HessenbergMatrix, m: int):
    """Product value of the m-th non-trivial SEP, sign folded in.

    The factors are the signed factors of :func:`signed_rows`, formed
    here from the stored rows: a superdiagonal entry is negated where it
    is multiplied, c_{i,i+1} = -h_{i,i+1}, so no separate permutation
    sign is needed.  Each row's one factor is read per call, as it is
    stored; no row is converted, cached or copied.
    """
    from .sep_codec import decode_columns, tau

    rows = matrix.rows
    value = 1
    for i, col in enumerate(decode_columns(tau(matrix.order, m)).columns,
                            start=1):
        h = rows[i - 1][col - 1]
        value = value * (-h if col > i else h)
    return value


def _factor_tables(rows, zeros, n: int, free: int, buffers) -> list:
    # The factor each prefix's standard child takes at the last `free`
    # factor rows of order n, in a sub-block of 2^free consecutive m,
    # and at row n, with its zero flags (None for a row with no zero):
    # one (factors, flags) pair of views into `buffers` per row, indexed
    # by the prefixes before that row's doubling.  The next standard
    # factor sits in the column of the row of the last standard factor,
    # so prefix p > 0 takes, at row i, the 0-based column i-1-b, where b
    # is the number of trailing zero bits of p; prefix 0's column comes
    # from the rows the sub-block shares, so entry 0 of each table is
    # the one placeholder, which _sub_block_terms writes.
    _, _, factor_buf, flag_buf = buffers
    tables = []
    for j, i in enumerate(range(n - free, n + 1)):
        row, zero = rows[i - 1], zeros[i - 1]
        at = slice((1 << j) - 1, (2 << j) - 1)  # 2^j prefixes
        factors = factor_buf[at]
        flags = None if zero is None else flag_buf[at]
        for b in range(j):  # the p with b trailing zero bits
            factors[1 << b::2 << b] = row[i - 1 - b]
            if flags is not None:
                flags[1 << b::2 << b] = zero[i - 1 - b]
        tables.append((factors, flags))
    return tables


def _sub_block_terms(rows, zeros, n: int, start: int, tables, buffers):
    # The terms m in [start, start + 2^free), whose m share every bit
    # above the lowest `free`, built down the prefix tree one factor
    # row at a time, or None if a row they all share holds a zero;
    # rows[i-1] is signed row i, a complex128 array, and zeros[i-1] its
    # zero flags, or None when it has no zero.  `tables` are
    # _factor_tables(rows, zeros, n, free, buffers).  Every intermediate
    # is written into the first k entries of the product and dead pairs
    # of `buffers` (see _float_sums), k the number of prefixes so far,
    # and the terms are a view of one of them.
    import numpy as np

    (prod, spare_prod), (dead, spare_dead), *_ = buffers
    free = len(tables) - 1
    # the shared rows' columns; `last` is the column of the next
    # standard factor: the row of the last standard factor, 0 if none
    shared = []
    last = 0
    for i in range(1, n - free):
        if (start >> (n - 1 - i)) & 1:
            shared.append(last)
            last = i
        else:
            shared.append(i)
    # a zero factor that every term shares: every term is exactly 0
    if any(z is not None and z[col] for z, col in zip(zeros, shared)):
        return None
    for i, (factors, flags) in enumerate(tables, start=n - free):
        factors[0] = rows[i - 1][last]
        if flags is not None:
            flags[0] = zeros[i - 1][last]
    # dead flags mark the prefixes with a zero factor, needed only when
    # a row past the shared ones holds a zero
    track = any(flags is not None for _, flags in tables)
    dead[0] = False
    prod[0] = 1
    # out of place: numpy's in-place product of one-element arrays
    # rounds complex values differently from its product of longer ones,
    # and the terms must not depend on how many rows the sub-block
    # shares.  The output is the spare buffer, never an operand, so
    # numpy runs prod times the factor in that order; its complex
    # product does not commute in the last bit
    for row, col in zip(rows, shared):
        np.multiply(prod[:1], row[col:col + 1], out=spare_prod[:1])
        prod, spare_prod = spare_prod, prod
    k = 1
    for i, (factors, flags) in enumerate(tables[:-1], start=n - free):
        # prefix p's superdiagonal child goes to slot 2p, times the one
        # factor c_{i,i+1} as a stride-0 operand, and its standard child
        # to slot 2p+1, so the children stay in ascending m
        row = rows[i - 1]
        np.multiply(prod[:k], row[i:i + 1], out=spare_prod[0:2 * k:2])
        np.multiply(prod[:k], factors, out=spare_prod[1:2 * k:2])
        prod, spare_prod = spare_prod, prod
        if track:
            zero = zeros[i - 1]
            if zero is None:
                spare_dead[0:2 * k:2] = spare_dead[1:2 * k:2] = dead[:k]
            else:
                np.logical_or(dead[:k], zero[i:i + 1],
                              out=spare_dead[0:2 * k:2])
                np.logical_or(dead[:k], flags, out=spare_dead[1:2 * k:2])
            dead, spare_dead = spare_dead, dead
        k *= 2
    factors, flags = tables[-1]  # row n takes its standard factor alone
    np.multiply(prod[:k], factors, out=spare_prod[:k])
    prod = spare_prod
    if track:
        if flags is not None:
            np.logical_or(dead[:k], flags, out=dead[:k])
        np.copyto(prod[:k], 0, where=dead[:k])
    return prod[:k]


def _sum_block(rows, zeros, n: int, start: int, stop: int, tables,
               buffers) -> complex:
    # The terms m in [start, stop), a block, formed in sub-blocks of
    # 2^free terms (`tables` are _factor_tables(..., free, buffers))
    # and summed with the bits of numpy's sum of the whole block.  That
    # sum is pairwise: it halves a power-of-two length down to 64 terms
    # and sums each such leaf in four interleaved runs.  A sub-block
    # smaller than its block holds _SUB_BLOCK terms, at least a leaf, so
    # each sub-block is summed alone and the sums are added in the
    # halving tree, left to right
    sub = len(tables[-1][0])
    sums = []  # the open subtrees of the halving tree, left to right
    for count, first in enumerate(range(start, stop, sub), start=1):
        terms = _sub_block_terms(rows, zeros, n, first, tables, buffers)
        value = 0j if terms is None else terms.sum().item()
        while not count & 1:  # close each subtree this sub-block completes
            value = sums.pop() + value
            count >>= 1
        sums.append(value)
    # numpy's sum adds its pairwise sum to +0j, as each sub-block's sum
    # did, so the two can differ only in the sign of a zero
    return 0j + sums[0]


def _gaussian_sums(rows: tuple) -> list:
    # det(H_1), ..., det(H_n) over the stored rows as Gaussian-integer
    # (re, im) int lists, each as (re, im): one depth-first walk down the
    # prefix tree on an explicit stack, each child's product its parent's
    # times one factor.  At 0-based row i a prefix's standard child is
    # both a term of det(H_{i+1}) and the parent of the terms below it.
    n = len(rows)
    sums_re = [0] * n
    sums_im = [0] * n
    # (0-based row, column of its standard factor, prefix product re, im)
    stack = [(0, 0, 1, 0)]
    while stack:
        i, last, a, b = stack.pop()
        re, im = rows[i]
        x, y = re[last], im[last]
        if i == n - 1:  # the last row takes its standard factor alone
            sums_re[i] += a * x - b * y
            sums_im[i] += a * y + b * x
            continue
        # the standard child moves `last` to this row; the superdiagonal
        # child keeps it.  A zero factor's subtree adds exactly 0.
        j = i + 1
        if x or y:
            c, d = a * x - b * y, a * y + b * x
            sums_re[i] += c
            sums_im[i] += d
            stack.append((j, j, c, d))
        x, y = -re[j], -im[j]  # the signed superdiagonal c = -h
        if x or y:
            stack.append((j, last, a * x - b * y, a * y + b * x))
    return list(zip(sums_re, sums_im))


def _float_sums(crows: tuple, orders) -> list:
    # det(H_k) for each k in orders, from the signed rows of the whole
    # matrix, as complex128 arrays: the rows past k and row k's
    # superdiagonal are never read, so each sum has the bits of H_k's
    # own signed rows.  Every sub-block of every order writes into one
    # set of sub-block-sized buffers, made here (see the module
    # docstring): the product pair, the dead pair, and the factor
    # tables and their zero flags, which each order fills once for all
    # of its sub-blocks
    import numpy as np

    crows = [np.array(row, np.complex128) for row in crows]
    block = _BLOCK
    size = min(_SUB_BLOCK, block, 1 << (max(orders) - 1))
    buffers = (np.empty((2, size), np.complex128), np.empty((2, size), bool),
               np.empty(2 * size, np.complex128), np.empty(2 * size, bool))
    zeros = tuple(z if z.any() else None for z in (row == 0 for row in crows))
    sums = []
    # an overflowing product becomes inf or nan in the value, not a warning
    with np.errstate(all="ignore"):
        for k in orders:
            total = 1 << (k - 1)  # the terms of order k
            step = min(block, total)
            tables = _factor_tables(crows, zeros, k,
                                    min(size, step).bit_length() - 1, buffers)
            sums.append(_kahan_sum(
                _sum_block(crows, zeros, k, start, start + step, tables,
                           buffers)
                for start in range(0, total, step)))
    return sums


def det_closed_form(matrix: HessenbergMatrix, *,
                    closed_form_cap: int = DEFAULT_CLOSED_FORM_CAP):
    """Determinant as the sum of all non-trivial SEP values.

    2^(n-1) terms; raises OrderTooLargeForClosedForm above the cap.
    A term with a zero factor adds exactly 0 on both realizations, as in
    the recurrence, so a zero entry never turns an overflowing product
    into NaN.  A float-backed matrix sums its order-n terms alone, in
    _BLOCK-sized blocks of ascending m, combined in ascending order,
    each formed in _SUB_BLOCK-sized sub-blocks and summed as numpy sums
    the whole block; a sub-block whose shared rows hold a zero factor
    adds 0 without a product, and the others flag zero factors only
    when a row they double over holds a zero.  An exact matrix
    takes the last prefix of :func:`closed_form_prefixes`, the one walk
    of :func:`_gaussian_sums`, which never enters the terms under a
    zero factor.
    """
    if not matrix.is_float_backed:
        return closed_form_prefixes(
            matrix, closed_form_cap=closed_form_cap)[-1]
    n = matrix.order
    _check_order_cap(n, closed_form_cap, OrderTooLargeForClosedForm,
                     "closed_form_cap")
    return _float_sums(signed_rows(matrix), (n,))[0]


def closed_form_prefixes(matrix: HessenbergMatrix, *,
                         closed_form_cap: int = DEFAULT_CLOSED_FORM_CAP):
    """[det(H_0), det(H_1), ..., det(H_n)] by the closed form, as
    :func:`det_prefixes` gives them by the recurrence; det(H_0) = 1.

    The cap is checked once, on the order n, before any term is summed.
    An exact matrix converts its stored rows once, by
    :func:`gaussian_rows` as :func:`det_prefixes` does, and takes every
    prefix from one walk, prefix k divided once by d_1...d_k, so every
    value has the whole matrix's result type.  A float-backed matrix
    sums each order k from one set of signed rows of the whole matrix,
    each with the bits of :func:`det_closed_form` on H_k.
    """
    n = matrix.order
    _check_order_cap(n, closed_form_cap, OrderTooLargeForClosedForm,
                     "closed_form_cap")
    if not matrix.is_float_backed:
        parts, scales, kind = gaussian_rows(matrix.rows)
        return exact_prefixes(_gaussian_sums(parts), scales, kind)
    return [1, *_float_sums(signed_rows(matrix), range(1, n + 1))]


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
