"""The benchmark's workloads: op kinds, their seeded inputs and oracles.

A workload is a fixed rotation of legs, one CLI op kind each.  Every
rotation writes fresh inputs seeded by (run seed, leg, rotation index)
with the package's own generators and serializers, which is the write
path that ``setup_s`` times.  The expected value of every op comes from
an oracle independent of the route the op takes, computed after set-up
and outside every timer.

Import this module only after ``program.import_package()``.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any, Optional

from hessenbergian import (EXACT, FLOAT, ComplexRational, HessenbergMatrix,
                           LdevcSpec, det_recurrence, row_length,
                           solve_forward)
from hessenbergian.cli import generate_spec, random_float_matrix
from hessenbergian.formats import (convert_spec, dump_text, matrix_to_json,
                                   spec_to_json)

import oracles

FAILURE_CLASSES = ("exit", "json", "stderr", "oracle")


def derive_seed(seed: int, key: str, rotation: int) -> int:
    digest = hashlib.sha256(f"{seed}:{key}:{rotation}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _exact_matrix(order: int, rng: Random) -> HessenbergMatrix:
    def scalar():
        return ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return HessenbergMatrix(order, [[scalar() for _ in range(row_length(order, i))]
                                    for i in range(1, order + 1)])


def _exact_pair(value) -> tuple:
    value = value if isinstance(value, ComplexRational) else ComplexRational(value)
    return value.re, value.im


class DetLeg:
    """``det FILE --method M`` on a seeded matrix file.

    The recurrence is checked against the long-double elimination in
    ``oracles``; the closed form against the package's recurrence, the
    route it shares no code with.
    """

    json_output = True

    def __init__(self, kind: str, order: int, backend: str, method: str):
        self.kind, self.order, self.backend, self.method = kind, order, backend, method
        self.seed_key = f"det:{order}:{backend}"

    def generate(self, seed: int, shared: dict) -> HessenbergMatrix:
        if self.backend == FLOAT:
            return random_float_matrix(self.order, Random(seed))
        return _exact_matrix(self.order, Random(seed))

    def serialize(self, matrix: HessenbergMatrix) -> str:
        return dump_text(matrix_to_json(matrix))

    def args(self, path: Optional[Path]) -> list:
        return ["det", str(path), "--method", self.method]

    def expect(self, matrix: HessenbergMatrix):
        if self.method == "recurrence":
            return oracles.hessenberg_det(matrix.rows)
        value = det_recurrence(matrix)
        return complex(value) if self.backend == FLOAT else _exact_pair(value)

    def agrees(self, doc, expected) -> bool:
        if doc["backend"] != self.backend:
            return False
        if self.backend == FLOAT:
            return oracles.close_relative(oracles.float_from_json(doc["value"]),
                                          expected)
        return oracles.exact_from_json(doc["value"]) == expected


class ExpandLeg:
    """``expand --order n``; takes no input, so it has no set-up cost."""

    json_output = False
    seed_key = "expand"

    def __init__(self, kind: str, order: int):
        self.kind, self.order = kind, order

    def generate(self, seed: int, shared: dict) -> None:
        return None

    def args(self, path: Optional[Path]) -> list:
        return ["expand", "--order", str(self.order)]

    def expect(self, obj) -> int:
        return self.order

    def agrees(self, text: str, order: int) -> bool:
        return _expansion_ok(text, order)


# Checking an order-16 expansion takes as long as the op that prints it,
# and every op of a run prints the same text, so verdicts are kept.
@functools.lru_cache(maxsize=4)
def _expansion_ok(text: str, order: int) -> bool:
    return oracles.expansion_error(text, order) is None


class SolveLeg:
    """``solve FILE --method ratio-recurrence --init 1,2`` on a generated
    N=2 spec, checked against ``solve_forward`` on the same spec.

    Legs with the same family, params and horizon share one spec per
    rotation; ``scale`` multiplies every row (coefficients and forcing)
    by an exact integer, which leaves the solution unchanged.
    """

    json_output = True
    INIT = "1,2"

    def __init__(self, kind: str, family: str, params: str, horizon: int,
                 backend: str, scale: int = 1):
        self.kind, self.family, self.params = kind, family, params
        self.horizon, self.backend, self.scale = horizon, backend, scale
        self.seed_key = f"solve:{family}:{params}:{horizon}"

    def generate(self, seed: int, shared: dict) -> LdevcSpec:
        if self.seed_key not in shared:
            shared[self.seed_key] = generate_spec(self.family, self.params, 2,
                                                  self.horizon, seed)
        spec = shared[self.seed_key]
        if self.scale == 1:
            return spec
        return LdevcSpec(spec.index_N, spec.horizon,
                         [[v * self.scale for v in row] for row in spec.coeffs],
                         [g * self.scale for g in spec.forcing])

    def serialize(self, spec: LdevcSpec) -> str:
        return dump_text(spec_to_json(spec))

    def args(self, path: Optional[Path]) -> list:
        args = ["solve", str(path), "--method", "ratio-recurrence",
                "--init", self.INIT]
        return args + ["--backend", FLOAT] if self.backend == FLOAT else args

    def expect(self, spec: LdevcSpec) -> list:
        if self.backend == FLOAT:
            return [complex(v) for v in
                    solve_forward(convert_spec(spec, FLOAT), (1 + 0j, 2 + 0j))]
        return [_exact_pair(v) for v in solve_forward(spec, (1, 2))]

    def agrees(self, doc, expected: list) -> bool:
        values = doc["values"]
        if doc["backend"] != self.backend or len(values) != len(expected):
            return False
        if self.backend == FLOAT:
            return all(oracles.close_solution(oracles.float_from_json(v), e)
                       for v, e in zip(values, expected))
        return all(oracles.exact_from_json(v) == e
                   for v, e in zip(values, expected))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "det-float": [DetLeg("det-float", 700, FLOAT, "recurrence")],
    "closed-form": [DetLeg("closed-float", 22, FLOAT, "closed"),
                    DetLeg("closed-exact", 12, EXACT, "closed"),
                    ExpandLeg("expand", 16)],
    "solve": [SolveLeg("exact-dense", "random", "", 40, EXACT),
              SolveLeg("exact-banded", "periodic", "3", 40, EXACT),
              SolveLeg("float", "random", "", 200, FLOAT),
              SolveLeg("float-scaled", "random", "", 200, FLOAT, scale=1000)],
}


@dataclass
class Prepared:
    """One op's input: the in-memory object, its file and size."""

    leg: Any
    obj: Any
    path: Optional[Path]
    size: int


def set_up(legs, seed: int, rotation: int, directory: Path,
           write_spans: Optional[dict] = None) -> list:
    """Generate and write one rotation's inputs.

    With ``write_spans``, the serialize-and-write time of each leg is
    appended to ``write_spans[leg.kind]``.
    """
    shared: dict = {}
    prepared = []
    for leg in legs:
        obj = leg.generate(derive_seed(seed, leg.seed_key, rotation), shared)
        if obj is None:
            prepared.append(Prepared(leg, None, None, 0))
            continue
        start = time.perf_counter()
        text = leg.serialize(obj)
        path = directory / f"{leg.kind}-{rotation}.json"
        path.write_text(text, encoding="utf-8")
        if write_spans is not None:
            write_spans.setdefault(leg.kind, []).append(time.perf_counter() - start)
        prepared.append(Prepared(leg, obj, path, len(text)))
    return prepared


def failures(leg, result, expected) -> set:
    """The failure classes one op's result falls in; empty when it passed.

    A nonzero exit (or a timeout) fails by itself.  At exit 0, any stderr
    output fails, stdout must be strict JSON (for JSON-printing ops) and
    the value must agree with the oracle.
    """
    if result.returncode != 0:
        return {"exit"}
    found = {"stderr"} if result.stderr else set()
    output = result.stdout
    if leg.json_output:
        try:
            output = oracles.strict_json(output)
        except ValueError:  # includes JSONDecodeError and NaN/Infinity
            return found | {"json"}
    try:
        ok = leg.agrees(output, expected)
    except (KeyError, TypeError, ValueError):
        ok = False
    return found if ok else found | {"oracle"}
