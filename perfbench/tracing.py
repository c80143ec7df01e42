"""The traced run: spans around the package's public calls, per layer.

The traced run covers every leg of every workload, so each traced run
reports the whole per-layer table whichever workload it was started
for.  For each leg it writes the same seeded inputs as the untraced
run, runs the CLI op once (checked, and timed for ``cli.op_s``), then
repeats the op's work in this process, timing each public call the CLI
makes.  Spans sit only around public functions, so they survive
refactors inside a layer.

``trace.unaccounted_s.<leg>`` is the op's median CLI wall time minus the
startup probe minus the spans on the op's own path: interpreter exit,
file reads, argument parsing and whatever a layer does outside its
public calls.
"""

from __future__ import annotations

import math
import statistics
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from hessenbergian import (FLOAT, det_closed_form, det_recurrence,
                           enumerate_seps, expand_symbolic, general_solution,
                           sep_count, solve_forward)
from hessenbergian.cli import parse_init
from hessenbergian.formats import (convert_spec, dump_text, matrix_from_json,
                                   parse_text, scalar_to_json, spec_from_json)

from program import STARTUP_ARGS
from workloads import WORKLOADS, DetLeg, ExpandLeg, SolveLeg, failures, set_up

STARTUP_PROBES = 5
ENUMERATE_ORDER = 16
ENUMERATE_REPEATS = 3


class Samples:
    """Named samples: span durations, rates and counts."""

    def __init__(self):
        self.values = defaultdict(list)

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.values[name].append(time.perf_counter() - start)

    def add(self, name: str, value: float):
        self.values[name].append(value)

    def last(self, name: str) -> float:
        return self.values[name][-1]

    def median(self, name: str) -> float:
        return statistics.median(self.values[name])


def _closed_span(leg: DetLeg) -> str:
    return "closed_form.float_s" if leg.backend == FLOAT else "closed_form.exact_s"


def _path_spans(leg) -> list:
    """Span names on the CLI op's own path, in call order."""
    if isinstance(leg, ExpandLeg):
        return ["closed_form.expand_s"]
    if isinstance(leg, DetLeg):
        kernel = (_closed_span(leg) if leg.method == "closed"
                  else "determinants.recurrence_cold_s")
        middle = ["matrix.float_scan_s", kernel]
    else:
        middle = (["formats.convert_s"] if leg.backend == FLOAT else []) + ["ldevc.ratio_s"]
    return ["formats.parse_s", "formats.decode_s", *middle, "formats.encode_s"]


def catalogue() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    metrics = {"cli.startup_s": "s", "sep_codec.enumerate_s": "s"}
    for legs in WORKLOADS.values():
        for leg in legs:
            names = {"cli.op_s": "s", "trace.unaccounted_s": "s"}
            names.update((name, "s") for name in _path_spans(leg))
            if not isinstance(leg, ExpandLeg):
                names.update({"formats.bytes_per_s": "B/s", "formats.write_s": "s"})
            if isinstance(leg, DetLeg):
                names.update({"determinants.recurrence_cold_s": "s",
                              "determinants.recurrence_warm_s": "s"})
                if leg.method == "closed":
                    names["closed_form.terms_per_s"] = "1/s"
            if isinstance(leg, SolveLeg):
                names.update({"ldevc.forward_s": "s", "ldevc.ratio_over_forward": "ratio"})
                if leg.backend == FLOAT:
                    names["ldevc.nonfinite_values"] = "count"
            metrics.update((f"{name}.{leg.kind}", unit)
                           for name, unit in sorted(names.items()))
    return metrics


def _trace_det(leg: DetLeg, path: Path, size: int, s: Samples):
    k = leg.kind
    text = path.read_text(encoding="utf-8")
    with s.span(f"formats.parse_s.{k}"):
        obj = parse_text(text)
    with s.span(f"formats.decode_s.{k}"):
        matrix, backend = matrix_from_json(obj)
    s.add(f"formats.bytes_per_s.{k}",
          size / (s.last(f"formats.parse_s.{k}") + s.last(f"formats.decode_s.{k}")))
    with s.span(f"matrix.float_scan_s.{k}"):
        matrix.is_float_backed
    if leg.method == "closed":
        with s.span(f"{_closed_span(leg)}.{k}"):
            value = det_closed_form(matrix)
        s.add(f"closed_form.terms_per_s.{k}",
              sep_count(leg.order) / s.last(f"{_closed_span(leg)}.{k}"))
    # the first call pays for the lazy complex128 row copy, the second not
    with s.span(f"determinants.recurrence_cold_s.{k}"):
        recurrence = det_recurrence(matrix)
    with s.span(f"determinants.recurrence_warm_s.{k}"):
        det_recurrence(matrix)
    if leg.method == "recurrence":
        value = recurrence
    with s.span(f"formats.encode_s.{k}"):
        dump_text({"backend": backend, "value": scalar_to_json(value)})


def _trace_expand(leg: ExpandLeg, path, size, s: Samples):
    with s.span(f"closed_form.expand_s.{leg.kind}"):
        "\n".join(term.render() for term in expand_symbolic(leg.order))


def _trace_solve(leg: SolveLeg, path: Path, size: int, s: Samples):
    k = leg.kind
    text = path.read_text(encoding="utf-8")
    with s.span(f"formats.parse_s.{k}"):
        obj = parse_text(text)
    with s.span(f"formats.decode_s.{k}"):
        spec, backend = spec_from_json(obj)
    s.add(f"formats.bytes_per_s.{k}",
          size / (s.last(f"formats.parse_s.{k}") + s.last(f"formats.decode_s.{k}")))
    if leg.backend == FLOAT:
        with s.span(f"formats.convert_s.{k}"):
            spec = convert_spec(spec, FLOAT)
        backend = FLOAT
    init = parse_init(SolveLeg.INIT, backend)
    # the ill-scaled leg overflows; keep its numpy warnings out of the report
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        with s.span(f"ldevc.ratio_s.{k}"):
            values = [general_solution(spec, n, init)
                      for n in range(spec.horizon + 1)]
        with s.span(f"ldevc.forward_s.{k}"):
            solve_forward(spec, init)
    s.add(f"ldevc.ratio_over_forward.{k}",
          s.last(f"ldevc.ratio_s.{k}") / s.last(f"ldevc.forward_s.{k}"))
    if leg.backend == FLOAT:
        s.add(f"ldevc.nonfinite_values.{k}",
              sum(not (math.isfinite(v.real) and math.isfinite(v.imag))
                  for v in values))
    with s.span(f"formats.encode_s.{k}"):
        dump_text({"backend": backend,
                   "values": [scalar_to_json(v) for v in values]})


_TRACERS = {DetLeg: _trace_det, ExpandLeg: _trace_expand, SolveLeg: _trace_solve}


def traced_run(runner, seed: int, seconds: float, directory: Path) -> tuple:
    """Rotations over every leg of every workload until ``seconds`` have
    passed (at least one), then the startup and enumeration probes.
    Returns (result, report); the report gives the input bytes per
    workload."""
    s = Samples()
    writes: dict = {}
    input_bytes = {name: 0 for name in WORKLOADS}
    attempted = failed = wrong = 0
    start = time.perf_counter()
    rotation = 0
    while rotation == 0 or time.perf_counter() - start < seconds:
        for workload, legs in WORKLOADS.items():
            for p in set_up(legs, seed, rotation, directory, writes):
                input_bytes[workload] += p.size
                expected = p.leg.expect(p.obj)
                result = runner.run(p.leg.args(p.path))
                found = failures(p.leg, result, expected)
                attempted += 1
                failed += bool(found)
                wrong += "oracle" in found
                s.add(f"cli.op_s.{p.leg.kind}", result.latency_s)
                _TRACERS[type(p.leg)](p.leg, p.path, p.size, s)
                if p.path is not None:
                    p.path.unlink()
        rotation += 1
    for _ in range(STARTUP_PROBES):
        s.add("cli.startup_s", runner.run(STARTUP_ARGS).latency_s)
    for _ in range(ENUMERATE_REPEATS):
        with s.span("sep_codec.enumerate_s"):
            list(enumerate_seps(ENUMERATE_ORDER))
    for kind, samples in writes.items():
        s.values[f"formats.write_s.{kind}"] = samples

    values = {name: s.median(name) for name in s.values}
    startup = values["cli.startup_s"]
    for legs in WORKLOADS.values():
        for leg in legs:
            k = leg.kind
            values[f"trace.unaccounted_s.{k}"] = (
                values[f"cli.op_s.{k}"] - startup
                - sum(values[f"{name}.{k}"] for name in _path_spans(leg)))
    names = catalogue()
    if set(values) != set(names):
        raise RuntimeError(f"traced metrics differ from the catalogue: "
                           f"{sorted(set(values) ^ set(names))}")
    result = {"attempted": attempted, "failed": failed, "correct": wrong == 0,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in names.items()}}
    return result, {"rotations": rotation, "input_bytes": input_bytes}
