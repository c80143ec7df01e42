"""Hessenbergian: lower Hessenberg determinants, a bit codec for their
expansion terms, and determinant-ratio solutions of linear difference
equations with variable coefficients.

The public names are loaded on first use (PEP 562): importing the
package loads no submodule, so a caller that needs only the numpy-free
modules (``errors``, ``scalars``, ``sep_codec``, ``ldevc``'s spec type)
never loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_OWNERS = {
    "AscendingOrder": "ldevc", "BitArray": "sep_codec",
    "ComplexRational": "scalars", "DEFAULT_CLOSED_FORM_CAP": "errors",
    "DEFAULT_ORACLE_CAP": "errors", "EXACT": "scalars",
    "EXPANSION_CAP": "sep_codec", "EquationClass": "ldevc", "FLOAT": "scalars",
    "FormatError": "errors", "HessenbergianError": "errors",
    "HessenbergMatrix": "matrix", "IndexOutOfRange": "errors",
    "IntegerTooLargeForJson": "errors", "InvalidOrder": "errors",
    "InvalidParams": "errors", "InvalidSep": "errors",
    "IrregularOrder": "errors", "LdevcSpec": "ldevc",
    "LinearityViolation": "errors", "NOrder": "ldevc",
    "NonFiniteResult": "errors", "NotInRangeSet": "errors",
    "OrderTooLargeForClosedForm": "errors",
    "OrderTooLargeForExpansion": "errors", "OrderTooLargeForOracle": "errors",
    "Scalar": "scalars", "SepFactors": "sep_codec", "SepIndex": "sep_codec",
    "SizeCapExceeded": "errors", "SolutionBundle": "ldevc",
    "SymbolicTerm": "sep_codec", "UnboundedOrder": "ldevc",
    "WrongEntryCount": "errors", "WrongInitLength": "errors",
    "chi": "closed_form", "classify": "ldevc", "decode_columns": "sep_codec",
    "det_closed_form": "closed_form", "det_leibniz": "determinants",
    "det_prefixes": "determinants", "det_recurrence": "determinants",
    "encode_sep": "sep_codec", "entry_count": "matrix",
    "enumerate_seps": "sep_codec", "expand_symbolic": "sep_codec",
    "fundamental_solution": "ldevc", "general_solution": "ldevc",
    "general_solutions": "ldevc", "leading_submatrix": "matrix",
    "make_matrix": "matrix", "particular_solution": "ldevc",
    "row_length": "matrix", "sep_count": "sep_codec",
    "sep_index": "sep_codec", "signed_rows": "matrix",
    "solve_bundle": "ldevc", "solve_forward": "ldevc", "tau": "sep_codec",
}

__all__ = list(_OWNERS)


def __getattr__(name: str):
    owner = _OWNERS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{owner}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
