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

  Each k-sum is one numpy dot product.  A float-backed matrix runs the
  loop on its stored complex128 rows.  An exact matrix runs it
  fraction-free, on Gaussian integers: :func:`gaussian_rows` scales
  row i by the lcm d_i of its denominators and holds it as object
  arrays of plain ``int`` real and imaginary parts, the recurrence then
  needs only +, - and x on ints, and every prefix determinant is divided
  once, by D_k = d_1...d_k, into an ``int``, ``Fraction`` or
  ``ComplexRational`` as the entries are (see :func:`exact_value`).
  Float overflow shows up as an inf or nan value that the caller can
  refuse, never as a warning on stderr: numpy's floating-point warnings
  are off.

  One zero rule holds on both realizations: the terms whose h_{j,k} is
  zero are dropped before the dot product, while the superdiagonal
  products still advance.  The mostly-zero solution matrices of
  low-order difference equations then cost one superdiagonal product
  per zero entry instead of a full round of exact arithmetic, and a
  zero h_{j,k} times an infinite superdiagonal product or prefix
  determinant never turns the sum into NaN via 0*inf; the
  mathematically correct term there is 0.  Exact values are unchanged,
  since a zero term adds exactly 0.

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
from functools import reduce

import numpy as np

from .errors import OrderTooLargeForOracle
from .matrix import (HessenbergMatrix, exact_value, gaussian_rows,
                     multiply_parts)

DEFAULT_ORACLE_CAP = 10


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


def _dot_parts(a: tuple, b: tuple) -> tuple:
    if len(a) == 1:
        return (np.dot(a[0], b[0]),)
    (ar, ai), (br, bi) = a, b
    return np.dot(ar, br) - np.dot(ai, bi), np.dot(ar, bi) + np.dot(ai, br)


def _gaussian_prefixes(rows: tuple) -> list:
    """det(H_1), ..., det(H_n) of Gaussian-integer rows, as int parts.

    The loop of :func:`det_prefixes` on rows of ``(re,)`` or
    ``(re, im)`` object arrays of ints; every value is a tuple of the
    same width."""
    n = len(rows)
    width = len(rows[0])
    one = (1, 0)[:width]
    dets = [one, tuple(p[0] for p in rows[0])]
    alt = tuple(np.zeros(n + 1, dtype=object) for _ in range(width))
    alt[0][1] = -1
    prods = tuple(np.zeros(n, dtype=object) for _ in range(width))
    for j in range(2, n + 1):
        s = tuple(p[j - 1] for p in rows[j - 2])  # h_{j-1,j}
        if s != one:  # the solution matrices have a unit superdiagonal
            grown = multiply_parts(tuple(p[1:j - 1] for p in prods), s)
            for p, g in zip(prods, grown):
                p[1:j - 1] = g
        for p, v in zip(prods, s):
            p[j - 1] = v
        row = rows[j - 1]
        dets.append(multiply_parts(tuple(p[j - 1] for p in row), dets[j - 1]))
        # k for every nonzero h_{j,k}, k < j; a zero one adds nothing
        k = np.flatnonzero(reduce(operator.or_, (p[:j - 1] for p in row))) + 1
        if len(k):
            terms = multiply_parts(tuple(p[k - 1] for p in row),
                                   tuple(p[k] for p in prods))
            ksum = _dot_parts(terms, tuple(a[k] for a in alt))
            sign = 1 if j % 2 == 0 else -1
            dets[j] = tuple(x + sign * y for x, y in zip(dets[j], ksum))
        for a, v in zip(alt, dets[j - 1]):
            a[j] = v if j % 2 == 0 else -v
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
    if n > oracle_cap:
        raise OrderTooLargeForOracle(
            f"order {n} exceeds oracle_cap={oracle_cap}")
    rows = [row.tolist() for row in matrix.rows]  # Python scalars
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
