"""Independent references the benchmark checks every CLI output against.

Nothing in this module imports the package under test.  The determinant
reference uses a different algorithm (Gaussian elimination with partial
pivoting) in a wider type (``numpy.clongdouble``) than the package's
recurrence; the expansion check re-derives the permutation rules from
the definition of a lower Hessenberg matrix, not from the bit codec.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

# |a - b| <= REL_TOL * |b| for determinants, whose magnitude is far from 1
# (an order-700 unit-square matrix has |det| near 1e-30).
REL_TOL = 1e-9


def strict_json(text: str):
    """``json.loads`` that refuses the ``NaN``/``Infinity`` extensions."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def hessenberg_det(rows: Sequence[Sequence[complex]]) -> complex:
    """Determinant of a lower Hessenberg matrix given by its stored rows.

    Row i (0-based) holds min(i+2, n) entries.  The transpose is upper
    Hessenberg, so partial pivoting only ever compares two rows and the
    elimination costs O(n^2) clongdouble operations.
    """
    n = len(rows)
    a = np.zeros((n, n), dtype=np.clongdouble)
    for i, row in enumerate(rows):
        a[:len(row), i] = row  # column i of the transpose is row i
    det = np.clongdouble(1)
    for k in range(n - 1):
        if abs(a[k + 1, k]) > abs(a[k, k]):
            a[[k, k + 1], k:] = a[[k + 1, k], k:]
            det = -det
        pivot = a[k, k]
        if pivot == 0:
            return 0j
        a[k + 1, k + 1:] -= (a[k + 1, k] / pivot) * a[k, k + 1:]
        det *= pivot
    return complex(det * a[n - 1, n - 1])


def close_relative(value: complex, reference: complex) -> bool:
    return abs(value - reference) <= REL_TOL * abs(reference)


def close_solution(value: complex, reference: complex) -> bool:
    """The solve tolerance: |a - b| <= 1e-9 (1 + |b|)."""
    return abs(value - reference) <= 1e-9 * (1.0 + abs(reference))


def exact_from_json(obj) -> tuple:
    """``[re_num, re_den, im_num, im_den]`` -> (Fraction, Fraction)."""
    if (not isinstance(obj, list) or len(obj) != 4
            or not all(type(v) is int for v in obj)):
        raise ValueError(f"not an exact scalar: {obj!r}")
    return Fraction(obj[0], obj[1]), Fraction(obj[2], obj[3])


def float_from_json(obj) -> complex:
    """``[re, im]`` -> complex."""
    if (not isinstance(obj, list) or len(obj) != 2
            or not all(type(v) in (int, float) for v in obj)):
        raise ValueError(f"not a float scalar: {obj!r}")
    return complex(obj[0], obj[1])


_FACTOR = re.compile(r"h\((\d+),(\d+)\)")


def expansion_error(text: str, order: int) -> Optional[str]:
    """Why ``text`` is not the full symbolic expansion of an order-n
    lower Hessenberg determinant, or None when it is.

    Each line is a sign and one factor h(i, pi_i) per row i = 1..n.
    The 2^(n-1) lines must be distinct permutations with pi_i <= i+1,
    and the sign must be (-1)^(number of superdiagonal picks): such a
    permutation splits into cycles (k k+1 ... k+l) on consecutive
    indices, each with l superdiagonal picks and sign (-1)^l.
    """
    lines = text.splitlines()
    if len(lines) != 1 << (order - 1):
        return f"expected {1 << (order - 1)} terms, got {len(lines)}"
    if len(set(lines)) != len(lines):
        return "repeated terms"
    for line in lines:
        sign, body = line[:1], line[1:]
        pairs = [(int(i), int(j)) for i, j in _FACTOR.findall(body)]
        if sign not in ("+", "-") or "".join(
                f"h({i},{j})" for i, j in pairs) != body:
            return f"malformed term {line!r}"
        if [i for i, _ in pairs] != list(range(1, order + 1)):
            return f"rows out of order in {line!r}"
        columns = [j for _, j in pairs]
        if sorted(columns) != list(range(1, order + 1)):
            return f"not a permutation: {line!r}"
        if any(j > i + 1 for i, j in pairs):
            return f"trivial entry picked in {line!r}"
        supers = sum(j == i + 1 for i, j in pairs)
        if (sign == "-") != bool(supers & 1):
            return f"wrong sign on {line!r}"
    return None
