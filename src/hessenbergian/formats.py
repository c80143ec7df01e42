"""JSON wire formats for matrices, equation specs and scalars.

Scalars are written in one of two canonical shapes:

* exact: ``[re_num, re_den, im_num, im_den]``, four integers with
  nonzero denominators;
* float: ``[re, im]``, two numbers read as a complex double.

On input a bare integer is also accepted and is neutral (it fits either
realization); a bare float forces the float realization.  One document
must stay within a single realization: mixing four-integer and
two-number scalars is a format error, whatever it is read into.

There is one conversion rule: the loaders decode every scalar once,
straight into their ``backend`` argument (default: the document's own
realization, "exact" unless something float-only appeared), and return
it with the object.  Float values go through ``complex`` first, even when
read as exact; :func:`convert_spec` reuses the rule.  Matrix and spec
documents of either realization, read into either backend, are decoded
by one batched rule, :func:`_decode_rows`: one type scan over every
scalar, then one conversion pass.  A float document read as float must
hold finite ``[re, im]`` pairs of floats and ints, or bare floats or
ints v read as ``[v, 0]``, and each row becomes a tuple of
``complex(re, im)``.  An exact document must hold quads of ints with
nonzero denominators, or bare ints: read as exact, a quad becomes a
ComplexRational of two Fractions and a bare int stays itself; read as
float, each part is rounded once and a bare v becomes ``complex(v)``.
Every quad with two zero numerators decodes to one shared zero of the
backend.  The values are, bit for bit and type for type, what the
scalar rule gives each scalar, and :func:`matrix_to_json` writes a
float value back as ``[z.real, z.imag]``.  :mod:`split_read` runs the
same decode on each half of a large float matrix document, one half in
a forked child, and builds the same rows; it checks its first half
through :func:`_matrix_document`, the one check of a matrix document's
keys, order, rows and realizations, which :func:`matrix_from_json`
runs too.  Any other document (a float document read as exact, a bare
bool, a value beyond the double range read as float, or any invalid
scalar) takes the scalar rule, which alone words the decode errors.
No document is read or written with numpy.  The loaders import
:mod:`matrix` and :mod:`ldevc` where they build a matrix or a spec, so
a command that reads one loads only its module, and one that only
writes JSON loads neither.

A matrix document is ``{"order": n, "rows": [[...], ...]}`` with row i
holding min(i+1, n) scalars.  An equation-spec document is
``{"N": ..., "horizon": ..., "coeffs": [[...], ...], "forcing": [...]}``
with coefficient row n holding N+n+1 scalars.  Serialization is
canonical (sorted shapes, compact separators) so equal objects dump to
identical bytes.

Text is strict JSON both ways: the tokens NaN and Infinity are refused.
A value beyond the double range read as float (an integer, a ratio, or
a literal such as 1e400, which json reads as inf), and a non-finite
float read as exact, are FormatErrors.  An error echoes an offending
scalar cut by :func:`errors._cut`.
An integer with more decimal digits than Python converts between int
and str (sys.get_int_max_str_digits()) raises IntegerTooLargeForJson on
parse and on dump; the limit itself is left as it is.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from itertools import chain, starmap
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import (EXACT, FLOAT, FormatError, _cut, _digit_limit_error,
                     _is_int)
from .scalars import (ComplexRational, _from_fractions, _ratio, exact_parts,
                      is_exact)

if TYPE_CHECKING:
    from .ldevc import LdevcSpec
    from .matrix import HessenbergMatrix


def _shape(obj):
    """The realization a scalar's shape names; None for a bare integer."""
    if isinstance(obj, list):  # float pairs, the bulk of large files, first
        if len(obj) == 2 and all(
                isinstance(v, float) or _is_int(v) for v in obj):
            return FLOAT
        if len(obj) == 4 and all(_is_int(v) for v in obj):
            return EXACT
    elif isinstance(obj, float):
        return FLOAT
    elif _is_int(obj):
        return None
    raise FormatError(
        f"invalid scalar {_cut(repr(obj))}; expected "
        f"[re_num,re_den,im_num,im_den], [re,im], or a bare integer")


def scalar_from_json(obj, mode: str, backend: str):
    """One scalar of a document in realization ``mode``, decoded straight
    into ``backend``; a scalar of the other realization is a FormatError."""
    shape = _shape(obj)
    if shape not in (None, mode):
        raise FormatError(
            "document mixes exact and float scalars; use one realization")
    if shape == EXACT:
        re_num, re_den, im_num, im_den = obj
        if re_den == 0 or im_den == 0:
            raise FormatError(f"zero denominator in scalar {_cut(repr(obj))}")
        if backend == EXACT:
            return ComplexRational(Fraction(re_num, re_den),
                                   Fraction(im_num, im_den))
    elif mode == backend == EXACT:  # a bare integer of an exact document
        return obj
    try:
        if shape == EXACT:
            z = complex(_ratio(re_num, re_den), _ratio(im_num, im_den))
        else:
            z = complex(*obj) if isinstance(obj, list) else complex(obj)
    except OverflowError:  # an integer or ratio beyond the double range
        raise FormatError("a scalar is beyond the double range") from None
    if backend == FLOAT:
        if not cmath.isfinite(z):  # a literal such as 1e400 reads as inf
            raise FormatError("a scalar is beyond the double range")
        return z
    try:
        return ComplexRational.from_complex(z)
    except ValueError as exc:  # a non-finite float has no exact value
        raise FormatError(f"cannot read a scalar as exact: {exc}") from None


def scalar_to_json(value):
    if is_exact(value):
        return list(exact_parts(value))
    z = complex(value)
    return [z.real, z.imag]


def _require_keys(obj, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} document must be a JSON object")
    missing = [k for k in keys if k not in obj]
    extra = [k for k in obj if k not in keys]
    if missing:
        raise FormatError(f"{what} document missing keys: {', '.join(missing)}")
    if extra:
        raise FormatError(f"{what} document has unknown keys: {', '.join(extra)}")


def _require_rows(rows, what: str) -> None:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FormatError(f"{what} must be a list of lists")


def _realizations(scalars, backend):
    """(mode, backend): the realization named by the document's first
    scalar that is not a bare integer, and the one to decode into."""
    if backend not in (None, EXACT, FLOAT):
        raise ValueError(f"unknown backend {backend!r}")
    mode = next((_shape(v) for v in scalars if not _is_int(v)), EXACT)
    return mode, backend or mode


def _matrix_document(obj, backend):
    """(order, rows, mode, backend) of a matrix document, the rows not
    yet decoded: the one check of its keys, its integer order, its rows
    (a list of lists) and its realizations."""
    _require_keys(obj, ("order", "rows"), "matrix")
    if not _is_int(obj["order"]):
        raise FormatError(f"matrix order must be an integer, got {obj['order']!r}")
    rows = obj["rows"]
    _require_rows(rows, "matrix rows")
    return (obj["order"], rows,
            *_realizations(chain.from_iterable(rows), backend))


def matrix_from_json(obj, backend=None):
    """Decode a matrix document into ``backend`` (default: the document's
    own realization); returns (matrix, backend)."""
    from .matrix import HessenbergMatrix

    order, rows, mode, backend = _matrix_document(obj, backend)
    return HessenbergMatrix(order, _rows(rows, mode, backend)), backend


def _rows(rows, mode, backend):
    """Every row decoded into ``backend``: by :func:`_decode_rows` when
    it can, else scalar by scalar, which words any decode error."""
    decoded = _decode_rows(rows, mode, backend)
    if decoded is None:
        decoded = [[scalar_from_json(v, mode, backend) for v in row]
                   for row in rows]
    return decoded


def _decode_rows(rows, mode, backend):
    """The rows of a document in realization ``mode`` read into
    ``backend`` in one batched pass, as the module docstring sets out:
    each value bit for bit and type for type what
    :func:`scalar_from_json` gives its scalar, and every zero quad the
    one zero of the call.  None unless every scalar passes the type
    scan and every value is in the double range when read as float;
    the scalar rule then decodes the document or words its error."""
    def scalars():
        return chain.from_iterable(rows)

    kinds = set(map(type, scalars()))
    if mode == FLOAT:
        if backend != FLOAT or not kinds <= {list, float, int}:
            return None
        if not kinds <= {list}:  # a bare v reads as [v, 0], as complex(v)
            rows = [[v if isinstance(v, list) else [v, 0] for v in row]
                    for row in rows]
        if (not set(map(len, scalars())) <= {2}
                or not set(map(type, chain.from_iterable(scalars())))
                <= {float, int}):
            return None
        try:
            decoded = [tuple(starmap(complex, row)) for row in rows]
        except OverflowError:  # an integer beyond the double range
            return None
        # a literal such as 1e400 reads as inf
        if not all(map(cmath.isfinite, chain.from_iterable(decoded))):
            return None
        return decoded
    if not kinds <= {list, int}:  # a bool, a float or anything else
        return None
    quads = ([v for v in scalars() if type(v) is list] if int in kinds
             else list(scalars()))
    if (not set(map(len, quads)) <= {4}
            or not set(map(type, chain.from_iterable(quads))) <= {int}
            or not all(map(itemgetter(1), quads))
            or not all(map(itemgetter(3), quads))):
        return None
    if backend == EXACT:
        zero = ComplexRational(0)
        return [[v if type(v) is int
                 else zero if not (v[0] or v[2])
                 else _from_fractions(Fraction(v[0], v[1]),
                                      Fraction(v[2], v[3]))
                 for v in row]
                for row in rows]
    if int in kinds:
        rows = [[[v, 1, 0, 1] if type(v) is int else v for v in row]
                for row in rows]
    try:
        # each part rounded once, as _ratio rounds it
        return [[0j if not (a or c)
                 else complex(a / b if b > 0 else -a / -b,
                              c / d if d > 0 else -c / -d)
                 for a, b, c, d in row]
                for row in rows]
    except OverflowError:  # a ratio beyond the double range
        return None


def matrix_to_json(matrix: HessenbergMatrix) -> dict:
    floats = matrix.is_float_backed
    return {"order": matrix.order,
            "rows": [[[z.real, z.imag] for z in row] if floats
                     else [scalar_to_json(v) for v in row]
                     for row in matrix.rows]}


def spec_from_json(obj, backend=None):
    """Decode an equation-spec document into ``backend`` (default: the
    document's own realization); returns (spec, backend)."""
    from .ldevc import LdevcSpec

    _require_keys(obj, ("N", "horizon", "coeffs", "forcing"), "spec")
    if not _is_int(obj["N"]) or not _is_int(obj["horizon"]):
        raise FormatError("spec N and horizon must be integers")
    coeffs, forcing = obj["coeffs"], obj["forcing"]
    _require_rows(coeffs, "spec coeffs")
    if not isinstance(forcing, list):
        raise FormatError("spec forcing must be a list")
    mode, backend = _realizations(
        chain(chain.from_iterable(coeffs), forcing), backend)
    *coeffs, forcing = _rows([*coeffs, forcing], mode, backend)
    return LdevcSpec(obj["N"], obj["horizon"], coeffs, forcing), backend


def spec_to_json(spec: LdevcSpec) -> dict:
    return {"N": spec.index_N,
            "horizon": spec.horizon,
            "coeffs": [[scalar_to_json(v) for v in row] for row in spec.coeffs],
            "forcing": [scalar_to_json(v) for v in spec.forcing]}


def convert_spec(spec: LdevcSpec, backend: str) -> LdevcSpec:
    """The spec written out and read back into ``backend``; a spec no
    document can express (one mixing exact and float values) is refused."""
    return spec_from_json(spec_to_json(spec), backend)[0]


def _over_digit_limit(exc: ValueError) -> bool:
    # CPython's message for an int/str conversion above the digit limit
    return "integer string conversion" in str(exc)


def _refuse_constant(token: str):
    raise FormatError(f"invalid JSON: non-JSON token {token}")


def parse_text(text: str):
    """json.loads with errors reported as FormatError.  The non-JSON
    tokens NaN, Infinity and -Infinity are refused, so is nesting deeper
    than the parser can recurse, and an integer above the int/str digit
    limit raises IntegerTooLargeForJson."""
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    except ValueError as exc:
        if not _over_digit_limit(exc):
            raise
        raise _digit_limit_error("input") from None


def dump_text(obj) -> str:
    """Compact canonical JSON; equal inputs yield identical bytes.
    NaN and infinities are refused (ValueError), never written as the
    non-JSON tokens NaN/Infinity; an integer above the int/str digit
    limit raises IntegerTooLargeForJson."""
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        if not _over_digit_limit(exc):
            raise
        raise _digit_limit_error("output") from None
