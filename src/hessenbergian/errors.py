"""Exception types shared across the package.

Every domain error is a distinct class so callers (and the CLI exit-code
mapping) can dispatch on type rather than parse messages.
"""


class HessenbergianError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOrder(HessenbergianError):
    """Matrix or enumeration order is not a positive integer."""


class WrongEntryCount(HessenbergianError):
    """A row-major entry list or coefficient row has the wrong length."""


class IndexOutOfRange(HessenbergianError):
    """An index (SEP index m, solution row n, basis index) is outside its range."""


class NotInRangeSet(HessenbergianError):
    """A bit array is not decodable because its last bit is not 1."""


class InvalidSep(HessenbergianError):
    """Column indices do not form a permutation with pi_i <= i+1."""


class OrderTooLargeForOracle(HessenbergianError):
    """Order exceeds the brute-force Leibniz cap (factorial cost)."""


class OrderTooLargeForClosedForm(HessenbergianError):
    """Order exceeds the closed-form summation cap (2^(n-1) terms)."""


class OrderTooLargeForExpansion(HessenbergianError):
    """Order exceeds the symbolic expansion cap (2^(n-1) emitted terms)."""


class IrregularOrder(HessenbergianError):
    """A leading coefficient a_{n,N+n} is zero; such equations are rejected."""


class WrongInitLength(HessenbergianError):
    """Initial conditions do not supply exactly N values."""


class InvalidParams(HessenbergianError):
    """Generator family parameters are malformed."""


class FormatError(HessenbergianError):
    """A JSON file does not conform to the matrix or spec format."""


class NonFiniteResult(HessenbergianError):
    """A float result is infinite or NaN, so it has no strict-JSON form."""


class LinearityViolation(HessenbergianError):
    """Solution families break y_n = p_n + sum_k xi_{n,k} y_{k-N}."""
