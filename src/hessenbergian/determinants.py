"""Determinants of lower Hessenberg matrices.

Two routes live here:

* :func:`det_prefixes` and :func:`det_recurrence`, the production
  path.  :func:`det_prefixes` evaluates the recurrence on the signed
  factors c_{i,i+1} = -h_{i,i+1} that the closed form multiplies, each
  formed from the stored rows where it is multiplied:

      det(H_j) = sum_{k=1}^{j} h_{j,k} q_k,
      q_k = c_{k,k+1} c_{k+1,k+2} ... c_{j-1,j} det(H_{k-1}),

  with det(H_0) = 1, in one bottom-up loop over the leading principal
  prefixes.  The term h_{j,k} q_k sums the signed elementary products of
  H_j that take h_{j,k} from row j, their signs already in the c, so no
  parity sign is needed and the diagonal term is the k = j term, with
  q_j = det(H_{j-1}).  Row j multiplies every running
  q_k by c_{j-1,j} and appends det(H_{j-1}) as the new column's q, so
  the whole evaluation is O(n^2) scalar operations with no recursion.
  It returns every prefix determinant det(H_0), ..., det(H_n), and
  :func:`det_recurrence` is its last entry.

  A float-backed matrix runs the loop on its stored rows of Python
  ``complex``: row j scales every q_k by c with ``map``, and its k-sum
  is one ``sum`` of h_{j,k} q_k over the nonzero h_{j,k}, so no float
  determinant loads numpy.  Float overflow shows up as an inf or nan
  value that the caller can refuse; Python's float arithmetic raises
  and warns on neither.  A zero h_{j,k} is dropped from the sum while
  its q_k still advances, so a zero entry times an infinite q_k never
  turns the sum into NaN via 0*inf; the mathematically correct term
  there is 0.  Every sum starts from 0j, so every zero part of a float
  prefix is +0.0, as in the closed form and the oracle.  Row j reads
  nothing above it but the running q_k, det(H_{j-1}) and the
  superdiagonal h_{j-1,j}, so the loop, :func:`_float_prefixes`, resumes
  from that state: :mod:`split_read` runs it over the head rows of a
  large document in one process and over the tail rows in another.
  :mod:`matrix` is imported only where an exact matrix is converted, so
  :mod:`split_read`, which builds no matrix, does not load it.

  An exact matrix runs the same loop fraction-free, on the Gaussian
  integers that :func:`gaussian_rows` converts the stored rows to, as
  the closed form does: the recurrence then needs only +, - and x on
  ints, and every prefix determinant is divided once, by the product
  D_k = d_1...d_k of its rows' scales, into an ``int``, ``Fraction`` or
  ``ComplexRational`` as the entries are (see :func:`exact_value`).
  Every product is an entry times a large q_k, and q_k is kept only
  while column k is live, from its diagonal row to its last nonzero
  h_{j,k}, so the mostly-zero solution matrices of low-order difference
  equations cost nothing for their zero columns; a zero entry inside the
  live window adds exactly 0.  The two loops stay apart, Python
  ``complex`` and plain ints on Gaussian integers, but share this one
  form; the closed form splits by realization the same way.

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
from itertools import compress, repeat
from operator import mul
from typing import TYPE_CHECKING

from .errors import (DEFAULT_ORACLE_CAP, OrderTooLargeForOracle,
                     _check_order_cap)

if TYPE_CHECKING:
    from .matrix import HessenbergMatrix


def det_prefixes(matrix: HessenbergMatrix) -> list:
    """[det(H_0), det(H_1), ..., det(H_n)] for the leading principal
    submatrices H_k of the matrix, with det(H_0) = 1; one O(n^2) pass."""
    if not matrix.is_float_backed:
        from .matrix import exact_prefixes, gaussian_rows

        parts, scales, kind = gaussian_rows(matrix.rows)
        return exact_prefixes(_gaussian_prefixes(parts), scales, kind)
    dets = [1 + 0j]
    _float_prefixes(matrix.rows, [], dets)
    return dets


def _float_prefixes(rows, q: list, dets: list, prev=None) -> tuple:
    """The float recurrence over ``rows``, resumed from the state that
    the m rows above them left: q, the running q_k of their columns
    (empty for m = 0); ``dets``, whose last entry is det(H_m); and
    ``prev``, the superdiagonal h_{m,m+1} of row m (None for m = 0).
    Appends det(H_{m+1}), ... to ``dets`` and returns the state after
    the last row, ``(q, prev)``, so a pass cut anywhere and resumed
    computes every value that one pass does, bit for bit."""
    for row in rows:
        if prev is not None:  # the signed superdiagonal c = -h_{j-1,j}
            q = list(map(mul, q, repeat(-prev)))
        q.append(dets[-1])
        # a zero h_{j,k} adds nothing; the superdiagonal h_{j,j+1}, last
        # of the nonzero entries, meets no q and map drops it
        dets.append(sum(map(mul, compress(row, row), compress(q, row)), 0j))
        prev = row[-1]
    return q, prev


def _scale(q: tuple, s: tuple) -> tuple:
    # the (re, im) lists q, each value times the one value s
    (qr, qi), (sr, si) = q, s
    if not si:
        return [a * sr for a in qr], [b * sr for b in qi]
    return ([a * sr - b * si for a, b in zip(qr, qi)],
            [a * si + b * sr for a, b in zip(qr, qi)])


def _sum_products(h: tuple, q: tuple) -> tuple:
    # sum_k h[k] q[k] over (re, im) lists
    (hr, hi), (qr, qi) = h, q
    return (sum(map(mul, hr, qr)) - sum(map(mul, hi, qi)),
            sum(map(mul, hr, qi)) + sum(map(mul, hi, qr)))


def _gaussian_prefixes(rows: tuple) -> list:
    """det(H_1), ..., det(H_n) of Gaussian-integer rows, as int parts.

    The recurrence of :func:`det_prefixes` on rows of ``(re, im)``
    lists of ints; every value is an ``(re, im)`` tuple.  q holds the
    running q_k of the live columns only, column k being live from its
    diagonal row k to its last nonzero h_{j,k}; on the solution matrix
    of an N-order equation that is column 1 and a window of N columns."""
    n = len(rows)
    last = [-1] * n  # 0-based: the last row j >= k with h_{j,k} != 0
    for j in range(n):
        for p in rows[j]:
            for k in compress(range(j + 1), p):
                last[k] = j
    ends = set(last)  # the rows after which some column stops being live
    dets = [(1, 0)]
    live = []  # the live columns, ascending; q holds their values
    q = ([], [])
    for j in range(n):  # 0-based row j gives det(H_{j+1})
        if j:  # the signed superdiagonal c = -h_{j-1,j}
            q = _scale(q, tuple(-p[j] for p in rows[j - 1]))
        if last[j] >= j:
            live.append(j)
            for p, v in zip(q, dets[j]):
                p.append(v)
        dets.append(_sum_products(
            tuple([p[k] for k in live] for p in rows[j]), q))
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
    from .matrix import exact_value, gaussian_rows

    parts, scales, kind = gaussian_rows(matrix.rows)
    return exact_value(_gaussian_prefixes(parts)[-1], math.prod(scales), kind)


def det_leibniz(matrix: HessenbergMatrix, oracle_cap: int = DEFAULT_ORACLE_CAP):
    """Full Leibniz-sum determinant; oracle for orders up to the cap."""
    n = matrix.order
    _check_order_cap(n, oracle_cap, OrderTooLargeForOracle, "oracle_cap")
    rows = matrix.rows
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
