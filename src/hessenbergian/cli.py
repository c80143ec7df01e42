"""Command-line front end.

Subcommands: ``det`` (determinant of a matrix file), ``expand``
(symbolic term list), ``sep`` (bit-codec inspection), ``solve``
(equation-spec solutions), ``gen`` (coefficient generators) and
``bench`` (CSV timing harness).  Each subcommand returns its output
and :func:`main` emits it.  Values are printed as JSON carrying a
backend tag; benchmarks are CSV.  Every error path prints a single
``error: ...`` line to stderr, cut after _ERROR_CHARS characters, and
exits 2 (usage, parse or validation problems, or a float result that is
infinite or NaN and so has no strict-JSON form) or 3 (a size cap was
exceeded, including the int/str digit limit of an integer read or
written; the message names the cap).  An interrupt (Ctrl-C) is not an
input, so it has its own code: one ``error: interrupted`` line and exit
130.  Identical inputs and seed produce byte-identical output.  A
command runs with the cyclic garbage collector off, since the data it
builds holds no cycles, and :func:`main` gives the caller's collector
setting back however the command ends.  :func:`run`, the process entry
that ``python -m hessenbergian`` and the installed script both call,
leaves it off and calls ``gc.freeze()`` before it returns the exit
code: CPython's finalization runs a full collection even with the
collector off, and it then walks nothing the process built or
imported.  It does not leave by ``os._exit``, which would skip every
``atexit`` handler and the interpreter's flush of stdout.

At load time the module imports only :mod:`errors`, which owns the
parser's defaults, realization names and method names.  Every
subcommand imports the modules it runs in its own body, ``statistics``,
``random``, ``time``, ``fractions`` and :mod:`scalars` included, so a
command loads and compiles only what it runs: ``expand`` and ``sep``
run on :mod:`sep_codec` alone, ``gen`` and ``solve`` on :mod:`ldevc`,
``det --method closed`` on :mod:`closed_form` without
:mod:`determinants`, and only ``bench`` loads ``statistics``.  A float
``det`` or ``solve`` loads neither ``fractions`` nor :mod:`scalars`.  numpy
loads only for the float closed form: a float ``det --method closed``,
a float ``solve`` by a closed method, and ``bench`` timing ``closed``.
Every other command, float ``det`` by the recurrence or the Leibniz
oracle and float ``solve`` by a recurrence method or forward included,
runs without it.

``det --method recurrence`` evaluates a regular file of at least
``_SPLIT_READ_CHARS`` bytes on two cores where it can, before any of
its text is read: :mod:`split_read` forks one child that reads and
decodes the head rows from its own byte range of the file and runs the
recurrence over them, and this process reads the tail rows from the
rest and resumes the same loop from the child's state.  Neither process
holds the file's text, only a chunk of it at a time, and each decodes
only the rows of ``[re, im]`` float pairs that the package writes.  Its
value is bit for bit that of the one-process read, :func:`_read` of the
whole file, which reads every file the split does not take, a pipe and
any other text included, and words every error, so stdout, stderr and
the exit code do not depend on the path.  No option selects it, and no
other command or method, nor ``det`` on a shorter file, loads it.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import os
import stat
import sys
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (DEFAULT_CLOSED_FORM_CAP, DEFAULT_ORACLE_CAP, EXACT,
                     FLOAT, GENERAL_METHODS, FormatError, HessenbergianError,
                     InvalidParams, NonFiniteResult, SizeCapExceeded, _cut,
                     _digit_limit_error)

if TYPE_CHECKING:
    from fractions import Fraction
    from random import Random

    from .ldevc import LdevcSpec
    from .matrix import HessenbergMatrix

BENCH_METHODS = ("recurrence", "closed")

# the recurrence runs on two cores over a matrix file of at least this
# many bytes where it can (see split_read); below it the fork costs more
# than it saves (ROADMAP item 11)
_SPLIT_READ_CHARS = 650_000


_ERROR_CHARS = 160


def _echo(text: str) -> str:
    # repr(text) for an error message, cut short and marked
    return _cut(text, show=repr)


def _fail(message) -> None:
    # the one writer of error lines: one line, cut as _echo cuts a token
    line = " ".join(str(message).split()) or "unknown error"
    print(f"error: {_cut(line, _ERROR_CHARS)}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    # one-line machine-parsable messages instead of argparse's usage dump
    def error(self, message):
        _fail(message)
        raise SystemExit(2)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {_echo(text)}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _order_list(text: str) -> list:
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid order list {_echo(text)}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"orders must be positive, got {_echo(text)}")
    return values


def _method_list(text: str) -> list:
    values = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not values or any(v not in BENCH_METHODS for v in values):
        raise argparse.ArgumentTypeError(
            f"methods must be a comma list drawn from {BENCH_METHODS}, got {_echo(text)}")
    return values


# scalar literals -----------------------------------------------------------

def _split_complex(s: str):
    if not s.endswith("i"):
        return s, ""
    body = s[:-1]
    # split before the imaginary part's sign; a sign directly after '/',
    # 'e' or 'E' (or at position 0) belongs to a number, not the split
    for p in range(len(body) - 1, 0, -1):
        if body[p] in "+-" and body[p - 1] not in "/eE":
            re_text, im_text = body[:p], body[p:]
            break
    else:
        re_text, im_text = "", body
    if im_text in ("", "+"):
        im_text = "1"
    elif im_text == "-":
        im_text = "-1"
    return re_text, im_text


def _fraction(text: str) -> Fraction:
    """Fraction(text), refusing first (IntegerTooLargeForJson) a
    numerator or denominator longer than the int/str digit limit, or an
    exponent whose magnitude reaches it: Fraction would spend minutes
    expanding 10**exponent."""
    from fractions import Fraction

    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.lstrip("+-").replace("_", "")
    parts = (*mantissa.lstrip("+-").split("/"), exponent)
    if limit and (any(len(part) > limit for part in parts)
                  or exponent.isdecimal() and int(exponent) >= limit):
        raise _digit_limit_error("scalar literal")
    return Fraction(text)


def _float_part(text: str) -> float:
    # p/q rounds as a document's [p, q, 0, 1] read as float
    if "/" not in text:
        return float(text)
    from .scalars import _ratio

    ratio = _fraction(text)
    return _ratio(ratio.numerator, ratio.denominator)


def parse_scalar_token(token: str, backend: str):
    """Parse finite literals like ``3/2``, ``-2``, ``1+i``, ``2i``, ``1e-2``
    or ``3/2-1/3i`` into the requested realization (never inf or nan)."""
    s = token.strip()
    if not s:
        raise FormatError("empty scalar literal")
    re_text, im_text = _split_complex(s)
    try:
        if backend == FLOAT:
            z = complex(_float_part(re_text) if re_text else 0.0,
                        _float_part(im_text) if im_text else 0.0)
            if not cmath.isfinite(z):
                raise ValueError(token)
            return z
        from .scalars import ComplexRational

        return ComplexRational(_fraction(re_text) if re_text else 0,
                               _fraction(im_text) if im_text else 0)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise FormatError(f"invalid scalar literal {_echo(token)}") from None


def parse_init(text: Optional[str], backend: str) -> tuple:
    if text is None or not text.strip():
        return ()
    return tuple(parse_scalar_token(tok, backend) for tok in text.split(","))


# generators ----------------------------------------------------------------

def generate_spec(family: str, params: str, index_N: int, horizon: int,
                  seed: int) -> LdevcSpec:
    """Deterministic spec families.

    constant: monic banded rows a_{n,N+n} = 1, a_{n,N+n-j} = -alpha_j
    with params "alpha_1,...,alpha_N" and zero forcing, i.e. the
    constant-coefficient equation y_n = sum_j alpha_j y_{n-j}.
    periodic: banded rows a_{n,n+k} = c[n mod p][k] with params the
    period "p"; coefficients and forcing repeat with period p.
    random: every stored coefficient random; takes no params.  All
    leading coefficients are forced nonzero.
    """
    from fractions import Fraction
    from random import Random

    from .ldevc import LdevcSpec
    from .scalars import ComplexRational

    def random_fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def random_scalar():
        return ComplexRational._from_fractions(random_fraction(),
                                               random_fraction())

    def random_nonzero():
        # real-part numerator drawn from 1..9 with a random sign, so the
        # value (used as a leading coefficient) can never vanish
        re = Fraction(rng.choice((1, -1)) * rng.randint(1, 9),
                      rng.randint(1, 9))
        return ComplexRational._from_fractions(re, random_fraction())

    if family == "constant":
        alphas = parse_init(params, EXACT)
        if len(alphas) != index_N:
            raise InvalidParams(
                f"constant family needs {index_N} params, got {len(alphas)}")
        coeffs = []
        for n in range(horizon + 1):
            row = [0] * (index_N + n + 1)
            row[index_N + n] = 1
            for j, alpha in enumerate(alphas, start=1):
                row[index_N + n - j] = -alpha
            coeffs.append(row)
        return LdevcSpec(index_N, horizon, coeffs, [0] * (horizon + 1))
    rng = Random(seed)
    if family == "periodic":
        try:
            period = int(params)
        except ValueError:
            raise InvalidParams(
                f"periodic family needs an integer period, got {_echo(params)}") from None
        if period < 1:
            raise InvalidParams(f"period must be positive, got {period}")
        band = [[random_scalar() for _ in range(index_N)] + [random_nonzero()]
                for _ in range(period)]
        pattern = [random_scalar() for _ in range(period)]
        coeffs = [[0] * n + band[n % period] for n in range(horizon + 1)]
        forcing = [pattern[n % period] for n in range(horizon + 1)]
        return LdevcSpec(index_N, horizon, coeffs, forcing)
    if family == "random":
        if params.strip():
            raise InvalidParams("random family takes no params")
        coeffs = [[random_scalar() for _ in range(index_N + n)]
                  + [random_nonzero()] for n in range(horizon + 1)]
        forcing = [random_scalar() for _ in range(horizon + 1)]
        return LdevcSpec(index_N, horizon, coeffs, forcing)
    raise InvalidParams(f"unknown family {family!r}")


def random_float_matrix(order: int, rng: Random) -> HessenbergMatrix:
    """Entries drawn uniformly from the complex unit square."""
    from .matrix import HessenbergMatrix, row_length

    return HessenbergMatrix(
        order,
        [[complex(rng.random(), rng.random())
          for _ in range(row_length(order, i))] for i in range(1, order + 1)])


# subcommands ---------------------------------------------------------------

def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _result_to_json(value):
    """scalar_to_json for a computed result.  An infinite or NaN float
    result has no strict-JSON form, so it is refused (NonFiniteResult).
    Every zero part of a float result is written as +0.0, whichever
    method computed it."""
    from .formats import scalar_to_json

    if not isinstance(value, (float, complex)):  # a float needs no scalars
        from .scalars import is_exact

        if is_exact(value):
            return scalar_to_json(value)
    if not cmath.isfinite(value):
        raise NonFiniteResult(
            f"float result {complex(value)!r} is not finite; it has no "
            f"JSON form")
    # + 0j makes a -0.0 part +0.0; + 0 would not reach the imaginary
    # part from Python 3.14, where an int adds to the real part alone
    return scalar_to_json(value + 0j)


def _det_kernel(method: str, args):
    """The routine a ``det`` method name runs, with its cap from ``args``."""
    if method == "closed":
        from .closed_form import det_closed_form

        return partial(det_closed_form, closed_form_cap=args.closed_form_cap)
    from .determinants import det_leibniz, det_recurrence

    if method == "recurrence":
        return det_recurrence
    return partial(det_leibniz, oracle_cap=args.oracle_cap)


def _splits(path: str) -> bool:
    # a regular file at least _SPLIT_READ_CHARS bytes long, which
    # split_read reads by byte ranges; a pipe, a terminal or a path that
    # does not stat is read by _read alone, once
    try:
        info = os.stat(path)
    except (OSError, ValueError):  # ValueError: a NUL in the path
        return False
    return stat.S_ISREG(info.st_mode) and info.st_size >= _SPLIT_READ_CHARS


def cmd_det(args) -> str:
    from .formats import dump_text, matrix_from_json, parse_text

    value, backend = None, FLOAT
    if args.method == "recurrence" and _splits(args.matrix):
        from .split_read import det_float

        value = det_float(args.matrix, args.backend)
    if value is None:
        matrix, backend = matrix_from_json(parse_text(_read(args.matrix)),
                                           args.backend)
        value = _det_kernel(args.method, args)(matrix)
    return dump_text({"backend": backend, "value": _result_to_json(value)})


def cmd_expand(args) -> str:
    from .sep_codec import expansion_lines

    lines = expansion_lines(args.order)
    if args.limit is not None:
        lines = islice(lines, args.limit)
    return "\n".join(lines)


def cmd_sep(args) -> str:
    # small ints only, so json writes them as formats.dump_text does,
    # without loading formats and the scalars it reads
    import json

    from .sep_codec import decode_columns, tau

    bits = tau(args.order, args.index)
    factors = decode_columns(bits)
    return json.dumps({"bits": list(bits.bits),
                       "columns": list(factors.columns),
                       "sign": factors.sign}, separators=(",", ":"))


def cmd_solve(args) -> str:
    from .formats import dump_text, parse_text, spec_from_json
    from .ldevc import general_solutions, solve_forward

    spec, backend = spec_from_json(parse_text(_read(args.spec)), args.backend)
    init = parse_init(args.init, backend)
    if args.method == "forward":
        values = solve_forward(spec, init)
    else:
        values = general_solutions(spec, init, args.method,
                                   closed_form_cap=args.closed_form_cap)
    return dump_text({"backend": backend,
                      "values": [_result_to_json(v) for v in values]})


def cmd_gen(args) -> str:
    from .formats import dump_text, spec_to_json

    spec = generate_spec(args.family, args.params, args.N, args.horizon,
                         args.seed)
    return dump_text(spec_to_json(spec))


def cmd_bench(args) -> str:
    import statistics
    from random import Random
    from time import perf_counter_ns

    from .matrix import HessenbergMatrix

    kernels = [(method, _det_kernel(method, args)) for method in args.methods]
    # one untimed call each, on a matrix that draws nothing from the
    # seeded generator, so no timed rep pays for a first call's imports
    # (the float closed form imports numpy in its first call)
    for _, kernel in kernels:
        kernel(HessenbergMatrix(1, [[1j]]))
    rng = Random(args.seed)
    lines = ["order,method,median_ns"]
    for order in args.orders:
        matrix = random_float_matrix(order, rng)
        for method, kernel in kernels:
            samples = []
            for _ in range(args.reps):
                start = perf_counter_ns()
                kernel(matrix)
                samples.append(perf_counter_ns() - start)
            lines.append(f"{order},{method},{int(statistics.median(samples))}")
    return "\n".join(lines)


# wiring --------------------------------------------------------------------

def _option(*flags, **kwargs) -> _Parser:
    parent = _Parser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> _Parser:
    # each subcommand takes only the shared options it reads
    backend = _option("--backend", choices=(EXACT, FLOAT), default=None,
                      help="read the input into this realization "
                           "(default: the file's own)")
    seed = _option("--seed", type=int, default=0,
                   help="generator seed (default 0)")
    out = _option("--out", metavar="PATH", default=None,
                  help="write output to PATH instead of stdout")
    closed_form_cap = _option(
        "--closed-form-cap", dest="closed_form_cap", type=_positive_int,
        default=DEFAULT_CLOSED_FORM_CAP,
        help=f"order cap for the closed form (default {DEFAULT_CLOSED_FORM_CAP})")
    oracle_cap = _option(
        "--oracle-cap", dest="oracle_cap", type=_positive_int,
        default=DEFAULT_ORACLE_CAP,
        help=f"order cap for the Leibniz oracle (default {DEFAULT_ORACLE_CAP})")

    parser = _Parser(prog="hessenbergian",
                     description="Hessenberg determinants and linear "
                                 "difference equation solutions")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("det",
                       parents=[backend, out, closed_form_cap, oracle_cap],
                       help="determinant of a matrix JSON file")
    p.add_argument("matrix", help="path to a matrix JSON document")
    p.add_argument("--method", choices=("recurrence", "closed", "leibniz"),
                   default="recurrence")
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("expand", parents=[out],
                       help="print the symbolic determinant expansion")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--limit", type=_positive_int, default=None,
                   help="print only the first K terms")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("sep", parents=[out],
                       help="decode one term index into bits, columns and sign")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.set_defaults(func=cmd_sep)

    p = sub.add_parser("solve", parents=[backend, out, closed_form_cap],
                       help="solve an equation-spec JSON file")
    p.add_argument("spec", help="path to a spec JSON document")
    p.add_argument("--init", default="",
                   help="comma list of N initial values y_-N..y_-1")
    p.add_argument("--method", choices=GENERAL_METHODS + ("forward",),
                   default="ratio-recurrence")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", parents=[seed, out],
                       help="generate an equation-spec JSON file")
    p.add_argument("--family", choices=("constant", "periodic", "random"),
                   required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--params", default="",
                   help="family parameters (see generate_spec)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", parents=[seed, out, closed_form_cap],
                       help="time determinant methods; prints CSV")
    p.add_argument("--orders", type=_order_list, required=True,
                   help="comma list of matrix orders")
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--methods", type=_method_list, default=list(BENCH_METHODS),
                   help="comma list drawn from recurrence,closed")
    p.set_defaults(func=cmd_bench)

    return parser


def run() -> int:
    """The process entry of ``python -m hessenbergian`` and of the
    installed ``hessenbergian`` script: :func:`main` on ``sys.argv``
    with the cyclic collector left off, and every object the process
    holds frozen before the exit code is returned, so the interpreter's
    exit-time collection walks none of them.  It returns rather than
    calling ``os._exit``, so ``atexit`` handlers and the interpreter's
    flush of stdout still run."""
    gc.disable()  # main gives this setting back, so it stays off
    try:
        return main()
    finally:
        gc.freeze()


def main(argv: Optional[Sequence[str]] = None) -> int:
    # a command builds acyclic data (a parsed tree, rows, big ints) and
    # exits, so the cyclic collector would only re-walk it; the caller's
    # setting comes back on every way out, since tests call main in process
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        text = args.func(args)
        if args.out is None:
            print(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return 0
    except SystemExit as exc:  # --help: 0; _Parser.error wrote its line: 2
        return exc.code or 0
    except KeyboardInterrupt:  # not an input, so not 2 or 3
        _fail("interrupted")
        return 130
    except SizeCapExceeded as exc:
        _fail(exc)
        return 3
    except (HessenbergianError, OSError) as exc:
        _fail(exc)
        return 2
    except Exception as exc:  # pragma: no cover - single-line contract
        _fail(f"internal: {exc!r}")
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(run())
