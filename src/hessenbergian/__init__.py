"""Hessenbergian: lower Hessenberg determinants, a bit codec for their
expansion terms, and determinant-ratio solutions of linear difference
equations with variable coefficients."""

from .closed_form import (DEFAULT_CLOSED_FORM_CAP, EXPANSION_CAP,
                          SymbolicTerm, chi, det_closed_form, expand_symbolic)
from .determinants import (DEFAULT_ORACLE_CAP, det_leibniz, det_prefixes,
                           det_recurrence)
from .errors import (FormatError, HessenbergianError, IndexOutOfRange,
                     IntegerTooLargeForJson, InvalidOrder, InvalidParams,
                     InvalidSep, IrregularOrder, LinearityViolation,
                     NonFiniteResult, NotInRangeSet,
                     OrderTooLargeForClosedForm, OrderTooLargeForExpansion,
                     OrderTooLargeForOracle, WrongEntryCount, WrongInitLength)
from .ldevc import (AscendingOrder, EquationClass, LdevcSpec, NOrder,
                    SolutionBundle, UnboundedOrder, classify,
                    fundamental_matrix, fundamental_solution, general_matrix,
                    general_solution, general_solutions, particular_matrix,
                    particular_solution, solve_bundle, solve_forward)
from .matrix import (HessenbergMatrix, entry_count, leading_submatrix,
                     make_matrix, row_length, signed_rows)
from .scalars import EXACT, FLOAT, ComplexRational, Scalar, convert_scalar
from .sep_codec import (BitArray, SepFactors, SepIndex, decode_columns,
                        encode_sep, enumerate_seps, sep_count, sep_index, tau)

__version__ = "0.1.0"

__all__ = [
    "AscendingOrder", "BitArray", "ComplexRational", "DEFAULT_CLOSED_FORM_CAP",
    "DEFAULT_ORACLE_CAP", "EXACT", "EXPANSION_CAP", "EquationClass", "FLOAT",
    "FormatError", "HessenbergianError", "HessenbergMatrix", "IndexOutOfRange",
    "IntegerTooLargeForJson", "InvalidOrder", "InvalidParams", "InvalidSep",
    "IrregularOrder", "LdevcSpec",
    "LinearityViolation", "NOrder",
    "NonFiniteResult", "NotInRangeSet", "OrderTooLargeForClosedForm",
    "OrderTooLargeForExpansion", "OrderTooLargeForOracle", "Scalar",
    "SepFactors", "SepIndex", "SolutionBundle", "SymbolicTerm",
    "UnboundedOrder", "WrongEntryCount", "WrongInitLength",
    "chi", "classify", "convert_scalar", "decode_columns", "det_closed_form",
    "det_leibniz", "det_prefixes", "det_recurrence", "encode_sep",
    "entry_count", "enumerate_seps", "expand_symbolic", "fundamental_matrix",
    "fundamental_solution", "general_matrix", "general_solution",
    "general_solutions", "leading_submatrix", "make_matrix",
    "particular_matrix", "particular_solution", "row_length", "sep_count",
    "sep_index", "signed_rows", "solve_bundle", "solve_forward", "tau",
]
