"""Exception types shared across the package.

Every domain error is a distinct class so callers can dispatch on type
rather than parse messages.  The CLI exits 3 on a :class:`SizeCapExceeded`
and 2 on any other :class:`HessenbergianError`.
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


class SizeCapExceeded(HessenbergianError):
    """An input is larger than a cap allows; the message names the cap."""


class OrderTooLargeForOracle(SizeCapExceeded):
    """Order exceeds the brute-force Leibniz cap (factorial cost)."""


class OrderTooLargeForClosedForm(SizeCapExceeded):
    """Order exceeds the closed-form summation cap (2^(n-1) terms)."""


class OrderTooLargeForExpansion(SizeCapExceeded):
    """Order exceeds the symbolic expansion cap (2^(n-1) emitted terms)."""


class IntegerTooLargeForJson(SizeCapExceeded):
    """An integer has more decimal digits than Python converts between
    int and str (sys.get_int_max_str_digits()), so it can be neither read
    from nor written to JSON."""


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
