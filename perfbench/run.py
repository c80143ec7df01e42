"""End-to-end benchmark of the ``hessenbergian`` CLI.

    python3 perfbench/run.py --workload det-float|closed-form|solve \\
        --seed N --seconds S --trace 0|1

One client drives the real CLI in a closed loop: one
``python -m hessenbergian ...`` child per op, one child at a time, each
checked against an oracle independent of the route it takes.  Inputs
come only from ``--seed``.  Every op runs between two processes of
``reference.py``, a fixed amount of work, and its timing metrics are
relative to them, because the machine's own speed drifts more than a
regression bound.  Ops run in whole rotations of the workload's legs.
The number of rotations is fixed by ``--seconds`` and the workload's
nominal rotation time, not by the clock, so every run of a workload
makes the same ops and its percentiles always fall on the same sample
ranks.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run (see
``tracing.py``).  The line before it is a report with the run facts,
the tail percentile and sample count, ``error_rate``, the count of each
failure class and the same timings in seconds.  Exits 0 after printing
a result, nonzero without one when the package sources are missing.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches

import argparse
import gc
import json
import math
import shutil
import signal
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import program

# Nominal seconds per rotation of each workload's legs; they turn
# --seconds into a fixed number of rotations.  At --seconds 20 a run
# makes 17 det-float, 18 closed-form and 16 solve ops, and takes 25-45 s
# with set-up and reference processes on a 2-CPU Xeon.
ROTATION_S = {"det-float": 1.2, "closed-form": 3.3, "solve": 5.0}
# Writing a det-float input (10 MB of JSON) takes as long as the op that
# reads it, so its rotations cycle over this many input sets; the other
# workloads write fresh inputs for every rotation.
INPUT_SETS = {"det-float": 3}
# Ten samples must lie beyond the reported tail percentile, so at least
# eleven ops run however short --seconds is.
MIN_OPS = 11
# Stop starting ops after this much op time, so that a much slower
# program still finishes inside the time limit; the report says so.
MAX_OP_TIME_S = 80
TAIL_BEYOND = 10
# A rotation's set-up repeats until it has taken this long, so that a
# millisecond set-up is averaged over a stretch of machine time.
SETUP_MIN_S = 0.3
E2E_UNITS = {"throughput_rel": "ops/ref", "latency_p50_rel": "x",
             "latency_tail_rel": "x", "success_rate": "fraction",
             "peak_rss_mb": "MiB", "setup_s": "s"}


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond) for the highest percentile
    with TAIL_BEYOND samples beyond it; the minimum when there are fewer."""
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return (ordered[index], 100.0 * index / len(ordered),
            len(ordered) - index - 1)


def relative(latencies: list, references: list) -> list:
    """Each op's wall time over the mean of the reference processes run
    just before and just after it; ``references`` has one more entry."""
    return [2 * latency / (before + after) for latency, before, after
            in zip(latencies, references, references[1:])]


def rotations(workload: str, legs: int, seconds: float) -> int:
    return max(math.ceil(MIN_OPS / legs), round(seconds / ROTATION_S[workload]))


def measure(runner, workload: str, seed: int, seconds: float, directory) -> tuple:
    """The untraced closed loop; returns (result, report)."""
    from workloads import FAILURE_CLASSES, WORKLOADS, failures, set_up
    legs = WORKLOADS[workload]
    planned = rotations(workload, len(legs), seconds)
    input_sets = min(planned, INPUT_SETS.get(workload, planned))
    # Set-up first: every input set is written and every expected value
    # computed before the first op, so no op shares the machine with the
    # generator or with the memory it frees.
    setups, inputs = [], []
    for rotation in range(input_sets):
        gc.collect()
        start = time.perf_counter()
        repeats = 0
        while not repeats or time.perf_counter() - start < SETUP_MIN_S:
            prepared = set_up(legs, seed, rotation, directory)
            repeats += 1
        setups.append((time.perf_counter() - start) / repeats)
        inputs.append([(p.leg, p.path, p.size, p.leg.expect(p.obj))
                       for p in prepared])
        del prepared
    ops = [op for rotation in range(planned) for op in inputs[rotation % input_sets]]
    written = sum(size for input_set in inputs for _, _, size, _ in input_set)
    gc.collect()

    # Each op runs between two reference processes (see reference.py).
    latencies, kinds, references = [], [], [runner.reference()]
    peak_kib = 0
    classes = Counter({name: 0 for name in FAILURE_CLASSES})
    attempted = failed = 0
    for leg, path, _, want in ops:
        if sum(latencies) >= MAX_OP_TIME_S:
            break
        result = runner.run(leg.args(path))
        references.append(runner.reference())
        found = failures(leg, result, want)
        latencies.append(result.latency_s)
        kinds.append(leg.kind)
        peak_kib = max(peak_kib, result.maxrss_kib)
        attempted += 1
        failed += bool(found)
        classes.update(found)
    ratios = relative(latencies, references)
    by_kind = defaultdict(list)
    for kind, ratio in zip(kinds, ratios):
        by_kind[kind].append(ratio)

    tail_rel, percentile, beyond = tail(ratios)
    passed = attempted - failed
    values = {
        "throughput_rel": passed / sum(ratios),
        "latency_p50_rel": statistics.median(ratios),
        "latency_tail_rel": tail_rel,
        "success_rate": passed / attempted,
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": statistics.median(setups),
    }
    result = {"correct": classes["oracle"] == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in E2E_UNITS.items()}}
    report = {
        "rotations": planned,
        "input_sets": input_sets,
        "ops_planned": len(ops),
        "op_time_s": sum(latencies),
        "seconds": {"ops_per_s": {"value": passed / sum(latencies), "unit": "ops/s"},
                    "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
                    "latency_tail_s": {"value": tail(latencies)[0], "unit": "s"},
                    "reference_p50_s": {"value": statistics.median(references),
                                        "unit": "s"}},
        "error_rate": {"value": failed / attempted, "unit": "fraction"},
        "failure_classes": dict(classes),
        "latency_tail": {"percentile": percentile, "samples_beyond": beyond,
                         "samples": len(latencies)},
        "latency_p50_rel_by_leg": {k: statistics.median(v) for k, v in by_kind.items()},
        "latency_samples_s": latencies,
        "reference_samples_s": references,
        "setup_samples_s": setups,
        "input_bytes": {workload: written},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, still stop the launcher and remove the scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    package = program.import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    scratch = program.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(dir=scratch))
    runner = program.CliRunner(package, directory)
    try:
        runner.run(program.STARTUP_ARGS)  # fills bytecode and file caches
        if args.trace:
            from tracing import traced_run
            result, report = traced_run(runner, args.seed, args.seconds, directory)
        else:
            result, report = measure(runner, args.workload, args.seed,
                                     args.seconds, directory)
    finally:
        runner.close()
        shutil.rmtree(directory)
        try:
            scratch.rmdir()  # only if no other run is using it
        except OSError:
            pass
    facts = dict(program.run_facts(args.seed), workload=args.workload,
                 trace=args.trace, seconds=args.seconds)
    print(json.dumps({"report": dict(facts, **report)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
