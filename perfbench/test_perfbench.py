"""Tests of the benchmark itself: its oracles, failure classes and metric
catalogue.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from random import Random

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import program  # noqa: E402

program.import_package()

from hessenbergian import (EXACT, FLOAT, ComplexRational, HessenbergMatrix,  # noqa: E402
                           det_recurrence, expand_symbolic, solve_forward)
from hessenbergian.cli import main as cli_main, random_float_matrix  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from program import OpResult  # noqa: E402


def _exact(matrix: HessenbergMatrix) -> HessenbergMatrix:
    return HessenbergMatrix(matrix.order, [[ComplexRational.from_complex(v) for v in row]
                                           for row in matrix.rows])


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 40])
def test_longdouble_reference_matches_exact_arithmetic(order):
    # float entries are dyadic rationals, so the exact determinant of the
    # same matrix is known without rounding
    for seed in range(3):
        matrix = random_float_matrix(order, Random(seed))
        exact = complex(det_recurrence(_exact(matrix)))
        assert abs(oracles.hessenberg_det(matrix.rows) - exact) <= 1e-15 * abs(exact)


def test_longdouble_reference_pivots_and_detects_singular():
    # h11 = 0 forces a row swap; a zero column makes the matrix singular
    swap = HessenbergMatrix(2, [[0j, 2 + 0j], [3 + 0j, 4 + 0j]])
    assert oracles.hessenberg_det(swap.rows) == -6
    singular = HessenbergMatrix(3, [[0j, 1 + 0j], [0j, 2 + 0j, 1 + 0j],
                                    [0j, 1 + 0j, 1 + 0j]])
    assert oracles.hessenberg_det(singular.rows) == 0


def test_longdouble_reference_agrees_with_package_at_benchmark_order():
    matrix = random_float_matrix(700, Random(7))
    assert oracles.close_relative(det_recurrence(matrix),
                                  oracles.hessenberg_det(matrix.rows))


def _expansion(order: int) -> list:
    return [term.render() for term in expand_symbolic(order)]


@pytest.mark.parametrize("order", range(1, 9))
def test_expansion_check_accepts_the_package_expansion(order):
    assert oracles.expansion_error("\n".join(_expansion(order)), order) is None


@pytest.mark.parametrize("corrupt", [
    lambda lines: lines[:-1],                                   # a term missing
    lambda lines: lines[:-1] + lines[:1],                       # a term repeated
    lambda lines: [("-" if l[0] == "+" else "+") + l[1:] if i == 3 else l
                   for i, l in enumerate(lines)],               # a sign flipped
    lambda lines: [l.replace("h(1,1)", "h(1,3)") for l in lines],   # trivial entry
    lambda lines: [l.replace("h(2,1)", "h(2,2)") for l in lines],   # not a permutation
    lambda lines: [l.replace(")h(", ") h(") for l in lines],        # malformed
])
def test_expansion_check_rejects_corrupted_expansions(corrupt):
    text = "\n".join(corrupt(_expansion(4)))
    assert oracles.expansion_error(text, 4) is not None


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_strict_json_rejects_non_standard_numbers(token):
    with pytest.raises(ValueError):
        oracles.strict_json(f'{{"values": [[{token}, 0.0]]}}')


def _cli(args) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in args])
    return OpResult(0.0, code, out.getvalue(), err.getvalue())


SMALL_LEGS = [
    workloads.DetLeg("det-small", 60, FLOAT, "recurrence"),
    workloads.DetLeg("closed-float-small", 10, FLOAT, "closed"),
    workloads.DetLeg("closed-exact-small", 6, EXACT, "closed"),
    workloads.ExpandLeg("expand-small", 6),
    workloads.SolveLeg("exact-small", "random", "", 8, EXACT),
    workloads.SolveLeg("banded-small", "periodic", "3", 8, EXACT),
    workloads.SolveLeg("float-small", "random", "", 20, FLOAT),
    workloads.SolveLeg("float-scaled-small", "random", "", 20, FLOAT, scale=1000),
]


def test_oracles_accept_correct_cli_output(tmp_path):
    for p in workloads.set_up(SMALL_LEGS, 3, 0, tmp_path):
        result = _cli(p.leg.args(p.path))
        assert workloads.failures(p.leg, result, p.leg.expect(p.obj)) == set(), p.leg.kind


def test_failure_classes():
    leg = workloads.SolveLeg("float-small", "random", "", 1, FLOAT)
    spec = leg.generate(0, {})
    want = leg.expect(spec)
    good = json.dumps({"backend": FLOAT, "values": [[v.real, v.imag] for v in want]})
    assert workloads.failures(leg, OpResult(0.0, 0, good, ""), want) == set()
    assert workloads.failures(leg, OpResult(0.0, 2, "", "error: x"), want) == {"exit"}
    assert workloads.failures(leg, OpResult(0.0, None, "", ""), want) == {"exit"}
    nan = '{"backend":"float","values":[[NaN,NaN],[1.0,0.0]]}'
    assert workloads.failures(leg, OpResult(0.0, 0, nan, "RuntimeWarning"), want) \
        == {"json", "stderr"}
    wrong = json.dumps({"backend": FLOAT,
                        "values": [[v.real * 1.001, v.imag] for v in want]})
    assert workloads.failures(leg, OpResult(0.0, 0, wrong, ""), want) == {"oracle"}
    assert workloads.failures(leg, OpResult(0.0, 0, "[]", ""), want) == {"oracle"}


def test_scaled_spec_keeps_the_solution():
    float_leg, scaled_leg = SMALL_LEGS[-2:]
    shared: dict = {}
    spec, scaled = float_leg.generate(5, shared), scaled_leg.generate(5, shared)
    assert scaled.coeffs[3][0] == 1000 * spec.coeffs[3][0]
    assert solve_forward(scaled, (1, 2)) == solve_forward(spec, (1, 2))


def test_set_up_is_seeded(tmp_path):
    def files(seed, rotation, sub):
        directory = tmp_path / sub
        directory.mkdir()
        return [p.path.read_bytes() for p in
                workloads.set_up(workloads.WORKLOADS["solve"], seed, rotation, directory)]
    assert files(1, 0, "a") == files(1, 0, "b")
    assert files(1, 0, "c") != files(1, 1, "d")
    assert files(1, 0, "e") != files(2, 0, "f")


def test_relative_uses_the_references_on_both_sides():
    assert run.relative([3.0, 6.0], [1.0, 2.0, 4.0]) == [2.0, 2.0]


def test_reference_process_runs(tmp_path):
    runner = program.CliRunner(program.import_package(), tmp_path)
    try:
        assert runner.reference() > 0
    finally:
        runner.close()


def test_tail_percentile():
    assert run.tail([3.0] + [1.0] * 10) == (1.0, 0.0, 10)
    value, percentile, beyond = run.tail([float(i) for i in range(40)])
    assert (value, percentile, beyond) == (29.0, 72.5, 10)


def test_benchmark_json_names_every_metric():
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.catalogue()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
