"""Determinants of lower Hessenberg matrices.

Two routes live here:

* :func:`det_prefixes` and :func:`det_recurrence`, the production
  path.  :func:`det_prefixes` evaluates

      det(H_n) = h_{n,n} det(H_{n-1})
               + sum_{k=1}^{n-1} (-1)^{n-k} h_{n,k}
                 (prod_{i=k}^{n-1} h_{i,i+1}) det(H_{k-1}),

  with det(H_0) = 1 and det(H_1) = h_{1,1}, in one bottom-up loop over
  the leading principal prefixes.  Each step reads the prefix
  determinants already computed and keeps the superdiagonal products as
  running products, so the whole evaluation is O(n^2) scalar operations
  with no recursion.  It returns every prefix determinant det(H_0), ...,
  det(H_n), and :func:`det_recurrence` is its last entry.

  A float-backed matrix runs the loop on its stored complex128 rows,
  each k-sum one numpy dot product; numpy is imported for that loop
  alone.  Float overflow shows up as an inf or nan value that the
  caller can refuse, never as a warning on stderr: numpy's
  floating-point warnings are off.  The terms whose h_{j,k} is zero are
  dropped before the dot product, while the superdiagonal products
  still advance, so a zero h_{j,k} times an infinite superdiagonal
  product or prefix determinant never turns the sum into NaN via
  0*inf; the mathematically correct term there is 0.

  An exact matrix runs it fraction-free, on Gaussian integers in plain
  ``int`` lists: :func:`gaussian_rows` scales row i by the lcm d_i of
  its denominators, the recurrence then needs only +, - and x on ints,
  and every prefix determinant is divided once, by D_k = d_1...d_k,
  into an ``int``, ``Fraction`` or ``ComplexRational`` as the entries
  are (see :func:`exact_value`).  This loop runs in q-form: it keeps
  q[k] = prods[k] * alt[k], the k-th term without its h_{j,k}, as one
  running value, so every product is an entry times a large value, and
  it keeps q[k] only while column k is live, up to its last nonzero
  h_{j,k}.  The mostly-zero solution matrices of low-order difference
  equations then cost nothing for their zero columns; a zero entry
  inside the live window adds exactly 0.  Its products associate
  differently from the float loop's, which is why the two loops stay
  apart: the float loop keeps its bits.

* :func:`det_leibniz`, a brute-force oracle.  It sums the Leibniz
  expansion on Python scalars, treating structural zeros as 0: column
  choices are enumerated row by row on an explicit stack (no recursion),
  and a branch that would pick a structurally absent entry is never
  entered.  Taking column j flips the sign once per used column right
  of j, which sums to the inversion parity of the permutation.  This
  route shares no code or theory with the recurrence or with the
  binary-indexed closed form, which is what makes it useful as an
  oracle.  2^(n-1) leaves; orders above the cap are refused.
"""

from __future__ import annotations

import math
import operator
from itertools import compress

from .errors import (DEFAULT_ORACLE_CAP, OrderTooLargeForOracle,
                     _check_order_cap)
from .matrix import (HessenbergMatrix, exact_value, gaussian_rows,
                     multiply_parts, scalar_rows)


def det_prefixes(matrix: HessenbergMatrix) -> list:
    """[det(H_0), det(H_1), ..., det(H_n)] for the leading principal
    submatrices H_k of the matrix, with det(H_0) = 1; one O(n^2) pass."""
    if not matrix.is_float_backed:
        parts, scales, kind = gaussian_rows(matrix.rows)
        values = [1]
        scale = 1
        for d, det in zip(scales, _gaussian_prefixes(parts)):
            scale *= d
            values.append(exact_value(det, scale, kind))
        return values
    import numpy as np

    n = matrix.order
    rows = matrix.rows
    dtype = rows[0].dtype
    dets = np.empty(n + 1, dtype=dtype)
    dets[0] = 1
    dets[1] = rows[0][0]
    # alt[k] = (-1)^k * dets[k-1]; lets the k-sum become one dot product
    alt = np.empty(n + 1, dtype=dtype)
    alt[1] = -1
    # prods[k] = prod_{i=k}^{j-1} h_{i,i+1} while processing row j (1-based k)
    prods = np.empty(n, dtype=dtype)
    with np.errstate(all="ignore"):
        for j in range(2, n + 1):
            s = rows[j - 2][j - 1]  # h_{j-1,j}
            prods[1:j - 1] *= s
            prods[j - 1] = s
            row = rows[j - 1]
            # k - 1 for every nonzero h_{j,k}; a zero one adds nothing
            nz = np.flatnonzero(row[:j - 1])
            ksum = np.dot(row[nz] * prods[nz + 1], alt[nz + 1])
            sign = 1 if j % 2 == 0 else -1
            dets[j] = row[j - 1] * dets[j - 1] + sign * ksum
            alt[j] = dets[j - 1] if j % 2 == 0 else -dets[j - 1]
    return dets.tolist()


def _scale(q: tuple, s: tuple) -> tuple:
    # the lists of parts q, each value times the one value s
    if len(s) == 1 or not s[1]:
        return tuple([x * s[0] for x in p] for p in q)
    (qr, qi), (sr, si) = q, s
    return ([a * sr - b * si for a, b in zip(qr, qi)],
            [a * si + b * sr for a, b in zip(qr, qi)])


def _sum_products(h: tuple, q: tuple) -> tuple:
    # sum_k h[k] q[k] over lists of parts of one width
    if len(h) == 1:
        return (sum(map(operator.mul, h[0], q[0])),)
    (hr, hi), (qr, qi) = h, q
    return (sum(map(operator.mul, hr, qr)) - sum(map(operator.mul, hi, qi)),
            sum(map(operator.mul, hr, qi)) + sum(map(operator.mul, hi, qr)))


def _gaussian_prefixes(rows: tuple) -> list:
    """det(H_1), ..., det(H_n) of Gaussian-integer rows, as int parts.

    The recurrence of :func:`det_prefixes` on rows of ``(re,)`` or
    ``(re, im)`` lists of ints; every value is a tuple of the same
    width.  It runs in q-form: q[k] = prods[k] * alt[k] is one running
    value, multiplied by each new superdiagonal entry, so that every
    product is an entry times a large value, and the k-sum of row j is
    sum_k h_{j,k} q[k].  q[k] is kept only while column k is live, from
    its first row j = k+1 to its last nonzero h_{j,k}; on the solution
    matrix of an N-order equation that is column 1 and a window of N
    columns."""
    n = len(rows)
    one = (1, 0)[:len(rows[0])]
    last = [-1] * n  # 0-based: the last row j > k with h_{j,k} != 0
    for j in range(1, n):
        for p in rows[j]:
            for k in compress(range(j), p):
                last[k] = j
    ends = set(last)  # the rows after which some column stops being live
    dets = [one, tuple(p[0] for p in rows[0])]
    live = []  # the live columns, ascending; q holds their values
    q = tuple([] for _ in one)
    for j in range(1, n):  # 0-based row j gives det(H_{j+1})
        s = tuple(p[j] for p in rows[j - 1])  # the superdiagonal h_{j-1,j}
        if s != one:  # 1 only in int-monic rows; row scaling makes it d_r
            q = _scale(q, s)
        if last[j - 1] >= j:  # alt[j-1] = (-1)^(j-1) det(H_{j-1})
            live.append(j - 1)
            alt = dets[j - 1] if j % 2 else tuple(-x for x in dets[j - 1])
            for p, v in zip(q, multiply_parts(s, alt)):
                p.append(v)
        row = rows[j]
        det = multiply_parts(tuple(p[j] for p in row), dets[j])
        if live:
            ksum = _sum_products(tuple([p[k] for k in live] for p in row), q)
            det = tuple(map(operator.sub if j % 2 else operator.add,
                            det, ksum))
        dets.append(det)
        if j in ends:
            keep = [t for t, k in enumerate(live) if last[k] > j]
            live = [live[t] for t in keep]
            q = tuple([p[t] for t in keep] for p in q)
    return dets[1:]


def det_recurrence(matrix: HessenbergMatrix):
    """Determinant via the Hessenbergian recurrence, O(n^2).

    The last entry of :func:`det_prefixes`; on an exact matrix only that
    entry is divided by its row scales."""
    if matrix.is_float_backed:
        return det_prefixes(matrix)[-1]
    parts, scales, kind = gaussian_rows(matrix.rows)
    return exact_value(_gaussian_prefixes(parts)[-1], math.prod(scales), kind)


def det_leibniz(matrix: HessenbergMatrix, oracle_cap: int = DEFAULT_ORACLE_CAP):
    """Full Leibniz-sum determinant; oracle for orders up to the cap."""
    n = matrix.order
    _check_order_cap(n, oracle_cap, OrderTooLargeForOracle, "oracle_cap")
    rows = scalar_rows(matrix.rows)
    total = 0
    # (rows chosen, used columns as bits, sign, product); children are
    # pushed in descending column order, so the leaves come off in
    # ascending lexicographic order of their column choices
    stack = [(0, 0, 1, 1)]
    while stack:
        i, used, sign, prod = stack.pop()
        if i == n:
            total = total + sign * prod
            continue
        row = rows[i]
        for j in reversed(range(len(row))):
            if not used >> j & 1:
                # each used column right of j is one more inversion
                flip = (used >> j).bit_count() & 1
                stack.append((i + 1, used | 1 << j, -sign if flip else sign,
                              prod * row[j]))
    return total
