"""JSON wire formats for matrices, equation specs and scalars.

Scalars are written in one of two canonical shapes:

* exact: ``[re_num, re_den, im_num, im_den]``, four integers with
  nonzero denominators;
* float: ``[re, im]``, two numbers read as a complex double.

On input a bare integer is also accepted and is neutral (it fits either
realization); a bare float forces the float realization.  One document
must stay within a single realization: mixing four-integer and
two-number scalars is a format error.  Loaders return the decoded
object together with the realization they inferred ("exact" unless
something float-only appeared).

A matrix document is ``{"order": n, "rows": [[...], ...]}`` with row i
holding min(i+1, n) scalars.  An equation-spec document is
``{"N": ..., "horizon": ..., "coeffs": [[...], ...], "forcing": [...]}``
with coefficient row n holding N+n+1 scalars.  Serialization is
canonical (sorted shapes, compact separators) so equal objects dump to
identical bytes.

Text is strict JSON both ways: the tokens NaN and Infinity are refused.
An integer beyond the double range in a float document is a FormatError.
An integer with more decimal digits than Python converts between int
and str (sys.get_int_max_str_digits()) raises IntegerTooLargeForJson on
parse and on dump; the limit itself is left as it is.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from numbers import Rational

from .errors import FormatError, IntegerTooLargeForJson
from .ldevc import LdevcSpec
from .matrix import HessenbergMatrix
from .scalars import EXACT, FLOAT, ComplexRational, convert_scalar


class _ModeTracker:
    """Records which scalar realizations a document used."""

    __slots__ = ("mode",)

    def __init__(self):
        self.mode = None

    def note(self, mode: str):
        if self.mode is None:
            self.mode = mode
        elif self.mode != mode:
            raise FormatError(
                "document mixes exact and float scalars; use one realization")

    def backend(self) -> str:
        return FLOAT if self.mode == FLOAT else EXACT


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def scalar_from_json(obj, tracker: _ModeTracker):
    if _is_int(obj):
        return obj
    if isinstance(obj, float):
        tracker.note(FLOAT)
        return complex(obj, 0.0)
    if isinstance(obj, list):
        if len(obj) == 4 and all(_is_int(v) for v in obj):
            tracker.note(EXACT)
            re_num, re_den, im_num, im_den = obj
            if re_den == 0 or im_den == 0:
                raise FormatError(f"zero denominator in scalar {obj!r}")
            return ComplexRational(Fraction(re_num, re_den),
                                   Fraction(im_num, im_den))
        if len(obj) == 2 and all(
                _is_int(v) or isinstance(v, float) for v in obj):
            tracker.note(FLOAT)
            try:
                return complex(obj[0], obj[1])
            except OverflowError:  # an integer beyond the double range
                raise FormatError(
                    "a float scalar is beyond the double range") from None
    raise FormatError(
        f"invalid scalar {obj!r}; expected [re_num,re_den,im_num,im_den], "
        f"[re,im], or a bare integer")


def scalar_to_json(value):
    if isinstance(value, ComplexRational):
        return [value.re.numerator, value.re.denominator,
                value.im.numerator, value.im.denominator]
    if isinstance(value, Rational):
        f = Fraction(value)
        return [f.numerator, f.denominator, 0, 1]
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


def _scalar_rows(rows, tracker: _ModeTracker, what: str):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FormatError(f"{what} must be a list of lists")
    return [[scalar_from_json(v, tracker) for v in row] for row in rows]


def matrix_from_json(obj):
    """Decode a matrix document; returns (matrix, backend)."""
    _require_keys(obj, ("order", "rows"), "matrix")
    if not _is_int(obj["order"]):
        raise FormatError(f"matrix order must be an integer, got {obj['order']!r}")
    tracker = _ModeTracker()
    rows = _scalar_rows(obj["rows"], tracker, "matrix rows")
    matrix = HessenbergMatrix(obj["order"], rows)
    backend = tracker.backend()
    if backend == FLOAT:
        # bare integers are neutral; normalize them into the realization
        matrix = convert_matrix(matrix, FLOAT)
    return matrix, backend


def matrix_to_json(matrix: HessenbergMatrix) -> dict:
    return {"order": matrix.order,
            "rows": [[scalar_to_json(v) for v in row] for row in matrix.rows]}


def spec_from_json(obj):
    """Decode an equation-spec document; returns (spec, backend)."""
    _require_keys(obj, ("N", "horizon", "coeffs", "forcing"), "spec")
    if not _is_int(obj["N"]) or not _is_int(obj["horizon"]):
        raise FormatError("spec N and horizon must be integers")
    tracker = _ModeTracker()
    coeffs = _scalar_rows(obj["coeffs"], tracker, "spec coeffs")
    if not isinstance(obj["forcing"], list):
        raise FormatError("spec forcing must be a list")
    forcing = [scalar_from_json(v, tracker) for v in obj["forcing"]]
    spec = LdevcSpec(obj["N"], obj["horizon"], coeffs, forcing)
    backend = tracker.backend()
    if backend == FLOAT:
        spec = convert_spec(spec, FLOAT)
    return spec, backend


def spec_to_json(spec: LdevcSpec) -> dict:
    return {"N": spec.index_N,
            "horizon": spec.horizon,
            "coeffs": [[scalar_to_json(v) for v in row] for row in spec.coeffs],
            "forcing": [scalar_to_json(v) for v in spec.forcing]}


def _convert_row(row, backend: str) -> list:
    try:
        return [convert_scalar(v, backend) for v in row]
    # an infinite or NaN float has no exact value (ValueError), and a
    # value beyond the double range has no float one (OverflowError)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"cannot convert to {backend}: {exc}") from None


def convert_matrix(matrix: HessenbergMatrix, backend: str) -> HessenbergMatrix:
    """The matrix in the other realization; a non-finite float entry
    (to exact) or an entry beyond the double range (to float) raises
    FormatError."""
    return HessenbergMatrix(
        matrix.order, [_convert_row(row, backend) for row in matrix.rows])


def convert_spec(spec: LdevcSpec, backend: str) -> LdevcSpec:
    """The spec in the other realization; a non-finite float value
    (to exact) or a value beyond the double range (to float) raises
    FormatError."""
    return LdevcSpec(
        spec.index_N, spec.horizon,
        [_convert_row(row, backend) for row in spec.coeffs],
        _convert_row(spec.forcing, backend))


def _over_digit_limit(exc: ValueError) -> bool:
    # CPython's message for an int/str conversion above the digit limit
    return "integer string conversion" in str(exc)


def _digit_limit_error(where: str) -> IntegerTooLargeForJson:
    return IntegerTooLargeForJson(
        f"an integer in the {where} has more than "
        f"sys.get_int_max_str_digits()={sys.get_int_max_str_digits()} "
        f"decimal digits")


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
