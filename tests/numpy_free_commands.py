"""The numpy-free commands, run and checked with numpy blocked.

Usage: python tests/numpy_free_commands.py OUTDIR

Puts None in ``sys.modules["numpy"]``, so any import of numpy fails,
and then runs expand, sep, gen, exact ``solve`` by the forward and the
ratio methods, exact ``det`` by every method, float ``det`` by the
recurrence and the Leibniz oracle, a float ``det`` on an order-400
file past ``cli._SPLIT_READ_CHARS`` bytes, whose recurrence this
one-thread process runs on two cores, each process reading its own byte
range of the file, float ``solve`` by the recurrence
methods and forward, and ``bench --methods recurrence``, writing each
output into OUTDIR.  Only the float closed form needs numpy.  The expand commands
run as ``python -m hessenbergian`` does, through the package's
``__main__``; the others call ``cli.main``.  Exits 0 when every check
holds, else 1 with the failed check on stderr.  The file has no
``test_`` prefix, so pytest does not collect it: CI runs it on an
interpreter that has no numpy, and
``test_cli.test_numpy_free_commands_run_without_numpy`` runs it in a
child process.
"""

import cmath
import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
from fractions import Fraction

# sha256 of the stdout of `expand --order 16`, and of the same command
# with `--limit 3`, pinned byte for byte
EXPAND_16 = "c6bcb0e23f99f1445f5df25ed2e11eee52a39043c52ab1cdb5075ae4dbaa04c8"
EXPAND_16_LIMIT_3 = (
    "61b7a308fe1f91c5b1264cf388ebc00998bfe6e157ffbc0f845a2e983582d8a0")
INIT = "1,2/3-i"


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"numpy-free check failed: {what}")


def run_module(*argv) -> str:
    """The stdout of ``python -m hessenbergian ARGV``, run in this
    process; a non-zero exit fails the check."""
    sys.argv = ["hessenbergian", *argv]
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_module("hessenbergian", run_name="__main__",
                             alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    check(code == 0, f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def run_checks(outdir: str) -> None:
    sys.modules["numpy"] = None  # any import of numpy now fails
    # each of these modules imports with numpy blocked
    import hessenbergian.errors
    import hessenbergian.sep_codec
    from hessenbergian.cli import main
    from hessenbergian.ldevc import LdevcSpec, solve_forward

    def run(name: str, *argv) -> str:
        # one command with --out OUTDIR/name; returns the file's text
        path = os.path.join(outdir, name)
        check(main([*argv, "--out", path]) == 0, name)
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    spec = LdevcSpec(1, 1, [[1, 2], [Fraction(1, 2), 3, 4]], [1, 0])
    check(solve_forward(spec, [Fraction(1)]) == [0, Fraction(-1, 8)],
          "solve_forward on a Fraction spec")

    check(len(run_module("expand", "--order", "3").splitlines()) == 4,
          "expand --order 3 prints 4 terms")
    for extra, digest in (((), EXPAND_16),
                          (("--limit", "3"), EXPAND_16_LIMIT_3)):
        argv = ("expand", "--order", "16", *extra)
        expanded = run_module(*argv).encode()
        check(hashlib.sha256(expanded).hexdigest() == digest,
              f"{' '.join(argv)} text")

    spec_path = os.path.join(outdir, "spec.json")
    run("spec.json", "gen", "--family", "random", "--N", "2", "--horizon", "8")
    forward = run("forward.json", "solve", spec_path, "--init", INIT,
                  "--method", "forward")
    check(len(json.loads(forward)["values"]) == 9, "a horizon-8 solve")
    for method in ("ratio-recurrence", "ratio-closed"):
        check(run(f"{method}.json", "solve", spec_path, "--init", INIT,
                  "--method", method) == forward, f"{method} equals forward")

    # a banded exact spec: the closed form's one walk gives every prefix
    periodic_path = os.path.join(outdir, "periodic.json")
    run("periodic.json", "gen", "--family", "periodic", "--params", "3",
        "--N", "2", "--horizon", "16")
    forward = run("periodic-forward.json", "solve", periodic_path, "--init",
                  INIT, "--method", "forward")
    check(len(json.loads(forward)["values"]) == 17, "a horizon-16 solve")
    for method in ("ratio-closed", "reduced-closed"):
        check(run(f"periodic-{method}.json", "solve", periodic_path,
                  "--init", INIT, "--method", method) == forward,
              f"periodic {method} equals forward")

    # zero diagonal entries and a banded first column: the exact
    # recurrence's live columns open and close inside the matrix, and
    # the closed form's walk skips the terms under a zero factor
    for name, rows, value in (
            ("m", [[1, 2], [3, 4]], [-2, 1, 0, 1]),
            ("band", [[0, 1], [1, 0, 1], [0, 2, 0, 1], [0, 0, 3, 0]],
             [3, 1, 0, 1])):
        path = os.path.join(outdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"order": len(rows), "rows": rows}, fh)
        want = json.dumps({"backend": "exact", "value": value},
                          separators=(",", ":")) + "\n"
        for method in ("recurrence", "leibniz", "closed"):
            check(run(f"{name}-{method}.json", "det", path, "--method",
                      method) == want, f"det {name} --method {method}")
        # the same matrix read as float: the recurrence and the oracle
        # run on Python complex
        want = json.dumps({"backend": "float",
                           "value": [float(value[0]), 0.0]},
                          separators=(",", ":")) + "\n"
        for method in ("recurrence", "leibniz"):
            check(run(f"{name}-float-{method}.json", "det", path,
                      "--backend", "float", "--method", method) == want,
                  f"det {name} --backend float --method {method}")

    # a float document past the threshold: this process runs one thread,
    # so det runs the recurrence over the head rows in a forked child
    from random import Random

    from hessenbergian.cli import (_SPLIT_READ_CHARS, _result_to_json,
                                   random_float_matrix)
    from hessenbergian.determinants import det_recurrence
    from hessenbergian.formats import dump_text, matrix_to_json

    matrix = random_float_matrix(400, Random(400))
    path = os.path.join(outdir, "m400.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_text(matrix_to_json(matrix)))
    check(os.path.getsize(path) >= _SPLIT_READ_CHARS,
          "the order-400 document is past the threshold")
    want = dump_text({"backend": "float",
                      "value": _result_to_json(det_recurrence(matrix))}) + "\n"
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(fork())
        return forks[-1]

    os.fork = counted_fork
    try:
        check(run("m400-det.json", "det", path) == want,
              "float det of the order-400 document")
    finally:
        os.fork = fork
    check(len(forks) == 1, "det ran the order-400 document on two cores")
    try:
        os.waitpid(-1, os.WNOHANG)
        check(False, "det left a child behind")
    except ChildProcessError:
        pass

    # the random spec read as float: every recurrence method agrees with
    # forward substitution to rounding
    forward = json.loads(run("float-forward.json", "solve", spec_path,
                             "--backend", "float", "--init", INIT,
                             "--method", "forward"))["values"]
    check(len(forward) == 9, "a horizon-8 float solve")
    for method in ("ratio-recurrence", "reduced-recurrence"):
        values = json.loads(run(f"float-{method}.json", "solve", spec_path,
                                "--backend", "float", "--init", INIT,
                                "--method", method))["values"]
        check(len(values) == 9 and all(
            cmath.isclose(complex(*a), complex(*b), rel_tol=1e-9,
                          abs_tol=1e-9) for a, b in zip(values, forward)),
              f"float {method} agrees with forward")

    lines = run("bench.csv", "bench", "--orders", "3,40", "--reps", "2",
                "--methods", "recurrence").splitlines()
    check(lines[0] == "order,method,median_ns"
          and [line.rsplit(",", 1)[0] for line in lines[1:]]
          == ["3,recurrence", "40,recurrence"],
          "bench --methods recurrence")

    check(run("sep.json", "sep", "--order", "8", "--index", "81")
          == '{"bits":[1,0,1,0,0,0,1,1],"columns":[1,3,2,5,6,7,4,8],'
             '"sign":1}\n', "sep --order 8 --index 81")
    check(sys.modules["numpy"] is None, "numpy stayed blocked")


if __name__ == "__main__":
    run_checks(sys.argv[1])
