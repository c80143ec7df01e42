"""Determinants of lower Hessenberg matrices.

Two routes live here:

* :func:`det_prefixes` and :func:`det_recurrence`, the production
  path.  :func:`det_prefixes` evaluates

      det(H_n) = h_{n,n} det(H_{n-1})
               + sum_{k=1}^{n-1} (-1)^{n-k} h_{n,k}
                 (prod_{i=k}^{n-1} h_{i,i+1}) det(H_{k-1}),

  with det(H_0) = 1 and det(H_1) = h_{1,1}, bottom-up over the leading
  principal prefixes.  Prefix determinants are memoized and the
  superdiagonal products run, so the whole evaluation is O(n^2) scalar
  operations; recursion depth never exceeds O(1) per prefix.  It returns
  every prefix determinant det(H_0), ..., det(H_n), and
  :func:`det_recurrence` is its last entry.

  There is one kernel for both realizations: each k-sum is one numpy
  dot product over the row's arrays, which :func:`row_arrays` builds
  per call as complex128 for float-backed matrices and as object
  arrays (plain Python arithmetic, exact for exact entries) otherwise.
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

* :func:`det_leibniz`, a brute-force oracle.  It sums the full
  n!-term Leibniz expansion, treating structural zeros as 0: column
  choices are enumerated row by row and any branch that would pick a
  structurally absent entry contributes nothing, so it is skipped.
  Signs come from inversion-count parity of the chosen permutation.
  This route shares no code or theory with the recurrence or with the
  binary-indexed closed form, which is what makes it useful as an
  oracle.  Factorial cost; orders above the cap are refused.
"""

from __future__ import annotations

import numpy as np

from .errors import OrderTooLargeForOracle
from .matrix import HessenbergMatrix, row_arrays, row_length

DEFAULT_ORACLE_CAP = 10


def det_prefixes(matrix: HessenbergMatrix) -> list:
    """[det(H_0), det(H_1), ..., det(H_n)] for the leading principal
    submatrices H_k of the matrix, with det(H_0) = 1; one O(n^2) pass."""
    n = matrix.order
    rows = row_arrays(matrix, matrix.rows)
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


def det_recurrence(matrix: HessenbergMatrix):
    """Determinant via the Hessenbergian recurrence, O(n^2)."""
    return det_prefixes(matrix)[-1]


def det_leibniz(matrix: HessenbergMatrix, oracle_cap: int = DEFAULT_ORACLE_CAP):
    """Full Leibniz-sum determinant; oracle for orders up to the cap."""
    n = matrix.order
    if n > oracle_cap:
        raise OrderTooLargeForOracle(
            f"order {n} exceeds oracle_cap={oracle_cap}")
    rows = matrix.rows
    used = [False] * (n + 1)
    columns = [0] * n
    total = 0

    def inversion_sign(cols):
        inv = 0
        for a in range(n):
            for b in range(a + 1, n):
                if cols[a] > cols[b]:
                    inv += 1
        return -1 if inv & 1 else 1

    def walk(i, prod):
        nonlocal total
        if i > n:
            total = total + inversion_sign(columns) * prod
            return
        for j in range(1, row_length(n, i) + 1):
            if not used[j]:
                used[j] = True
                columns[i - 1] = j
                walk(i + 1, prod * rows[i - 1][j - 1])
                used[j] = False

    walk(1, 1)
    return total
