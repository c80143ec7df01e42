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
blocks of 2^b consecutive m, gathered from a signed copy of its rows
(:func:`signed_rows`), which :func:`_float_sums` turns into complex128
arrays once per call.  :func:`_sum_block` multiplies the rows a
block shares once, on one-element arrays, and then, for each of the b
free rows, doubles every prefix into its superdiagonal child and its
standard child (ascending m) with one gather and one array product per
row.  The column each child takes depends only on the block's free
bits, except for the standard child of prefix 0, which takes the
column that the shared rows leave; so each order builds one intp
column table per free row, and one for row n, once for all of its
blocks (:func:`_column_tables`), and each block writes its shared
column into the one placeholder entry of each table before it
gathers.  If the shared rows hold a zero factor, every term of the
block is zero, and the block adds exactly 0 without a gather or a
product; the zero flags of the other terms are doubled and gathered
only when a free row or row n holds a zero.  Every term is still the
left-to-right product 1*c_1*...*c_n of its own factors, formed by
numpy's array product, so a float term has the same bits as when the
whole block decodes every row; shared tables of half products would
change that association, and with it the last bits of the sum.  The
block sums are combined in ascending order with compensated
accumulation.  numpy is imported by that kernel alone; no other code
in the package loads it.  Each call makes one set of block-sized
buffers and every block writes into them, products out of place
between two of them: a fresh array per row of a 2^16-term block is
about 1 MB, which the allocator would map and unmap each time.

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


def _column_tables(n: int, free: int) -> list:
    # The 0-based column each term takes at the last `free` factor rows
    # of order n, and at row n, in a block of 2^free consecutive m:
    # one intp array per row, built by doubling the prefixes as
    # _sum_block does.  At a free row i prefix p's superdiagonal child
    # takes column i and its standard child column last[p], the row of
    # p's last standard factor, which the free bits fix for every p but
    # 0; row n takes last[p] alone.  Prefix 0's column comes from the
    # rows the block shares, so it is the one placeholder, entry 1 of
    # each free row's table and entry 0 of row n's, which _sum_block
    # writes.
    import numpy as np

    last = np.zeros(1, np.intp)  # entry 0 is the placeholder
    tables = []
    for i in range(n - free, n):
        row = np.full_like(last, i)
        tables.append(np.column_stack((row, last)).ravel())
        last = np.column_stack((last, row)).ravel()
    tables.append(last)
    return tables


def _sum_block(rows, zeros, n: int, start: int, tables,
               buffers) -> complex:
    # The terms m in [start, start + 2^free), a block whose m share
    # every bit above the lowest `free`, built down the prefix tree one
    # factor row at a time; rows[i-1] is signed row i, a complex128
    # array, and zeros[i-1] its zero flags, or None when it has no
    # zero.  `tables` are _column_tables(n, free).  Every intermediate
    # is written into the first k entries of `buffers` (see
    # _float_sums), k the number of prefixes so far.
    import numpy as np

    (prod, spare_prod), picked_buf, dead_pair = buffers
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
    # a zero factor that every term shares: the block sums to exactly 0
    if any(z is not None and z[col] for z, col in zip(zeros, shared)):
        return 0j
    for table in tables[:-1]:
        table[1] = last
    tables[-1][0] = last
    # dead flags mark the prefixes with a zero factor, needed only when
    # a row past the shared ones holds a zero
    track = any(z is not None for z in zeros[n - free - 1:n])
    if track:
        dead, spare_dead = dead_pair
        dead[0] = False
    k = 1
    prod[0] = 1
    # an overflowing product becomes inf or nan in the value, not a warning
    with np.errstate(all="ignore"):
        # out of place: numpy's in-place product of one-element arrays
        # rounds complex values differently from its product of longer
        # ones, and the block sums must not depend on how many rows the
        # block shares.  The output is the spare buffer, never an
        # operand, so numpy runs prod times the factor in that order;
        # its complex product does not commute in the last bit
        for row, col in zip(rows, shared):
            np.multiply(prod[:1], row[col:col + 1], out=spare_prod[:1])
            prod, spare_prod = spare_prod, prod
        for i, cols in enumerate(tables, start=n - free):
            if i < n:  # every prefix doubles: superdiagonal, then standard
                # two strided copies: about half the time of one
                # broadcast copy into a (k, 2) view
                spare_prod[0:2 * k:2] = spare_prod[1:2 * k:2] = prod[:k]
                prod, spare_prod = spare_prod, prod
                if track:
                    spare_dead[0:2 * k:2] = spare_dead[1:2 * k:2] = dead[:k]
                    dead, spare_dead = spare_dead, dead
                k *= 2
            # the indices are in range; "clip" spares np.take the
            # buffered copy that its default mode makes with out=
            picked = np.take(rows[i - 1], cols, out=picked_buf[:k],
                             mode="clip")
            np.multiply(prod[:k], picked, out=spare_prod[:k])
            prod, spare_prod = spare_prod, prod
            if track and zeros[i - 1] is not None:
                np.take(zeros[i - 1], cols, out=spare_dead[:k], mode="clip")
                np.logical_or(dead[:k], spare_dead[:k], out=dead[:k])
        if track:
            np.copyto(prod[:k], 0, where=dead[:k])
        return prod[:k].sum().item()


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
    # own signed rows.  Every block of every order writes into one set
    # of buffers, made here (see the module docstring): the product
    # pair, the picked factors and the dead pair; each order builds its
    # column tables once, for all of its blocks
    import numpy as np

    crows = [np.array(row, np.complex128) for row in crows]
    block = _BLOCK
    size = min(block, 1 << (max(orders) - 1))
    buffers = (np.empty((2, size), np.complex128),
               np.empty(size, np.complex128), np.empty((2, size), bool))
    zeros = tuple(z if z.any() else None for z in (row == 0 for row in crows))
    sums = []
    for k in orders:
        total = 1 << (k - 1)  # the terms of order k
        tables = _column_tables(k, min(block, total).bit_length() - 1)
        sums.append(_kahan_sum(_sum_block(crows, zeros, k, start, tables,
                                          buffers)
                               for start in range(0, total, block)))
    return sums


def det_closed_form(matrix: HessenbergMatrix, *,
                    closed_form_cap: int = DEFAULT_CLOSED_FORM_CAP):
    """Determinant as the sum of all non-trivial SEP values.

    2^(n-1) terms; raises OrderTooLargeForClosedForm above the cap.
    A term with a zero factor adds exactly 0 on both realizations, as in
    the recurrence, so a zero entry never turns an overflowing product
    into NaN.  A float-backed matrix sums its order-n terms alone, in
    _BLOCK-sized blocks of ascending m, combined in ascending order;
    a block whose shared rows hold a zero factor adds 0 without a
    product, and the other blocks flag zero factors only when a row
    they double over holds a zero.  An exact matrix
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
