"""A fixed amount of work, timed as a process before and after every CLI op.

On a virtual machine that shares its host, speed can drift by 2x over
minutes, and an op's wall time drifts with it.  The ratio of an op's
wall time to the mean wall time of this process run just before and
just after it cancels most of that drift.  This file is part of the benchmark, not
of the program under test, so no change to the program moves it.

It does the kinds of work the ops do: interpreter and numpy start-up,
JSON parsing, exact rational and complex arithmetic in Python.  It reads
and writes no file.
"""

import json
from fractions import Fraction
from random import Random

import numpy  # noqa: F401  (the ops pay for this import too)


def main() -> None:
    rng = Random(0)
    text = json.dumps([[rng.random(), rng.random()] for _ in range(40000)])
    for _ in range(2):
        json.loads(text)
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i % 7 - 3, i % 11 + 1)
    z = 0j
    for i in range(100000):
        z = z * 0.5 + complex(i & 3, 1)


if __name__ == "__main__":
    main()
