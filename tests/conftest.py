"""Seeded builders shared across the test modules.

These intentionally duplicate (rather than import) the CLI's generator
logic so library tests do not depend on front-end plumbing.
"""

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

from hessenbergian import (ComplexRational, HessenbergMatrix, LdevcSpec,
                           row_length)


def random_fraction(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_rational_scalar(rng: random.Random) -> ComplexRational:
    return ComplexRational(random_fraction(rng), random_fraction(rng))


def nonzero_rational_scalar(rng: random.Random) -> ComplexRational:
    re = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
    return ComplexRational(re, random_fraction(rng))


def random_exact_matrix(order: int, rng: random.Random) -> HessenbergMatrix:
    return HessenbergMatrix(
        order,
        [[random_rational_scalar(rng) for _ in range(row_length(order, i))]
         for i in range(1, order + 1)])


def random_float_matrix(order: int, rng: random.Random) -> HessenbergMatrix:
    """Entries in the complex unit square: re, im ~ U[0, 1)."""
    return HessenbergMatrix(
        order,
        [[complex(rng.random(), rng.random())
          for _ in range(row_length(order, i))] for i in range(1, order + 1)])


def random_exact_spec(index_N: int, horizon: int,
                      rng: random.Random) -> LdevcSpec:
    coeffs = [[random_rational_scalar(rng) for _ in range(index_N + n)]
              + [nonzero_rational_scalar(rng)] for n in range(horizon + 1)]
    forcing = [random_rational_scalar(rng) for _ in range(horizon + 1)]
    return LdevcSpec(index_N, horizon, coeffs, forcing)


def periodic_exact_spec(index_N: int, horizon: int, period: int,
                        rng: random.Random) -> LdevcSpec:
    """A banded N-order spec: row n holds the (N+1)-value band
    a_{n,n..N+n} and the forcing value of row n mod period."""
    band = [[random_rational_scalar(rng) for _ in range(index_N)]
            + [nonzero_rational_scalar(rng)] for _ in range(period)]
    pattern = [random_rational_scalar(rng) for _ in range(period)]
    coeffs = [[0] * n + band[n % period] for n in range(horizon + 1)]
    forcing = [pattern[n % period] for n in range(horizon + 1)]
    return LdevcSpec(index_N, horizon, coeffs, forcing)


def random_float_spec(index_N: int, horizon: int,
                      rng: random.Random) -> LdevcSpec:
    """random_exact_spec's distribution, drawn directly as complex
    doubles."""
    def part(span=9):
        return rng.randint(-span, span) / rng.randint(1, span)

    def lead():
        return complex(rng.choice((1, -1)) * rng.randint(1, 9) / rng.randint(1, 9),
                       part())
    coeffs = [[complex(part(), part()) for _ in range(index_N + n)] + [lead()]
              for n in range(horizon + 1)]
    forcing = [complex(part(), part()) for _ in range(horizon + 1)]
    return LdevcSpec(index_N, horizon, coeffs, forcing)


@contextmanager
def default_digit_limit():
    """Python's default int/str digit limit, whatever the environment
    set; the previous limit is restored on exit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(saved)
