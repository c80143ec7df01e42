"""Linear difference equations with variable coefficients, regular order.

Equation row n (0 <= n <= horizon) relates the unknowns y_{-N}..y_n:

    a_{n,0} y_{-N} + a_{n,1} y_{1-N} + ... + a_{n,N+n} y_n = g_n,

with fixed index N >= 0 and arbitrary scalar coefficients; the N values
y_{-N}..y_{-1} are the initial conditions.  Regularity means every
leading coefficient a_{n,N+n} is nonzero; that is validated when a spec
is constructed, and specs violating it are rejected outright
(IrregularOrder).

Solutions come from two independent routes.  :func:`solve_forward`
substitutes row by row, solving each equation for its leading unknown;
it is the plain reference.  The Hessenbergian route writes every
solution value as one Hessenbergian.  With
D_n = a_{0,N} a_{1,N+1} ... a_{n,N+n}, the paper's

    xi_{n,iota} = (-1)^(n+1) det(Xi_n) / D_n    (fundamental solution)
    p_n         = (-1)^n     det(P_n)  / D_n    (particular solution)
    y_n         = (-1)^n     det(G_n)  / D_n    (general solution)

use (n+1) x (n+1) lower Hessenberg matrices that differ only in column
1, and y_n = p_n + sum_k xi_{n,k} y_{k-N}.

The solvers build one matrix per first column: the order-(h+1) monic
matrix at the horizon h.  Its row i = r+1 is row r of the paper's
matrices divided by the leading coefficient a_{r,N+r}:

* column 1 carries a_{r,iota} (fundamental, basis index iota), g_r
  (particular), or g_r - sum_{k<N} a_{r,k} y_{k-N} (general), over
  a_{r,N+r};
* column j >= 2 carries a_{r,N+j-2} / a_{r,N+r}, stored for
  j <= min(i+1, h+1), so every superdiagonal entry is exactly 1.

A determinant is linear in each row, so the leading order-(n+1) prefix
of this matrix has determinant det(X_n) / D_n: D_n is folded into the
rows and never formed.  The solution value at row n is (-1)^n times
that prefix (times -1 again for xi), so in floating point each prefix
stays as large as the solution, where det(X_n) and D_n apart can
overflow while their ratio is finite.

The *-recurrence methods take every prefix from one pass of the
Hessenbergian recurrence (:func:`det_prefixes`), O(h^2) scalar
operations in all; the *-closed methods take every prefix from one
closed-form sum over the same matrix (:func:`closed_form_prefixes`),
which on an exact matrix is one walk.  For one row alone, both routes
evaluate the last prefix only.  The reduced-* methods name the same
values as the ratio-* methods and run the same computation: dividing
the rows after the first by -a_{r,N+r} instead would only move the sign
(-1)^n into the rows, and negation is exact in both realizations (in
floating point only the sign of a zero part can differ).

Each row is divided by its own lead and built in that lead's
realization: the superdiagonal 1 is the int 1 beside an exact lead and
the ``complex`` 1 beside a float one, so the rows of a float spec reach
the matrix constructor all ``complex`` and are taken as they are.  A
spec that mixes realizations is settled by the constructor: one float or
complex value makes the whole matrix float, each exact entry rounded
once.

The method names, :data:`GENERAL_METHODS`, belong to :mod:`errors`,
where the CLI's argument parser reads them without this module, which
re-exports them.  The spec type and :func:`solve_forward` need neither
the matrix nor the determinant module; the functions that build and
evaluate the monic matrix import them.  The spec and the solution
bundle are plain ``__slots__`` classes on :class:`errors._Frozen`,
which sets their fields, so the module loads no ``dataclasses``.
``fractions`` and :mod:`scalars` load only where an exact value is built
or checked, once per call of a solver (:func:`_exact_rules`), so a float
spec solves without them.  numpy loads only for the closed methods on a
float matrix; every other method and spec solves without it.
"""

from __future__ import annotations

from itertools import chain
from operator import truediv
from typing import TYPE_CHECKING, Tuple

from .errors import (DEFAULT_CLOSED_FORM_CAP, GENERAL_METHODS,
                     IrregularOrder, LinearityViolation, WrongEntryCount,
                     WrongInitLength, _check_int, _Frozen)

if TYPE_CHECKING:
    from .matrix import HessenbergMatrix


class LdevcSpec(_Frozen):
    """Validated, immutable equation system up to a finite horizon.

    coeffs[n] stores exactly N+n+1 scalars a_{n,0..N+n}; forcing holds
    g_0..g_horizon.  Construction rejects wrong row lengths
    (WrongEntryCount) and zero leading coefficients (IrregularOrder).
    """

    __slots__ = ("index_N", "horizon", "coeffs", "forcing")
    index_N: int
    horizon: int
    coeffs: Tuple[Tuple, ...]
    forcing: Tuple
    __hash__ = None  # equal by value, but unhashable

    def __init__(self, index_N: int, horizon: int, coeffs, forcing):
        _check_int(index_N, "index N", 0)
        _check_int(horizon, "horizon", 0)
        if len(coeffs) != horizon + 1:
            raise WrongEntryCount(
                f"expected {horizon + 1} coefficient rows, got {len(coeffs)}")
        if len(forcing) != horizon + 1:
            raise WrongEntryCount(
                f"expected {horizon + 1} forcing values, got {len(forcing)}")
        frozen = []
        for n, row in enumerate(coeffs):
            want = index_N + n + 1
            if len(row) != want:
                raise WrongEntryCount(
                    f"coefficient row {n} must hold {want} values, got {len(row)}")
            if not row[index_N + n]:
                raise IrregularOrder(
                    f"leading coefficient a[{n},{index_N + n}] is zero")
            frozen.append(tuple(row))
        super().__init__(index_N, horizon, tuple(frozen), tuple(forcing))

    def leading(self, n: int):
        """a_{n,N+n}, the coefficient of y_n in row n."""
        return self.coeffs[n][self.index_N + n]

    def __repr__(self):
        return f"LdevcSpec(N={self.index_N}, horizon={self.horizon})"


def _exact_rules(spec: LdevcSpec) -> tuple:
    """``(is_exact, divide)`` for the values of ``spec``.  ``fractions``
    and :mod:`scalars` load once per call, and only where some leading
    coefficient is not ``complex``: every lead of a float spec is, and
    its matrix and every value solved from it are float, so it builds
    and checks no exact value.  ``divide(num, den)`` is num / den, but
    an int pair goes through Fraction, so that it does not fall through
    to float division on the exact path; every other exact pair already
    divides through Fraction or ComplexRational."""
    if all(isinstance(row[spec.index_N + n], complex)
           for n, row in enumerate(spec.coeffs)):
        return (lambda value: False), truediv
    from fractions import Fraction

    from .scalars import is_exact

    def divide(num, den):
        if isinstance(num, int) and isinstance(den, int):
            return Fraction(num, den)
        return num / den

    return is_exact, divide


def _check_method(method: str):
    if method not in GENERAL_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {GENERAL_METHODS}")


def _monic_matrix(spec: LdevcSpec, n: int, first_column) -> HessenbergMatrix:
    """The order-(n+1) solution matrix with row r divided by a_{r,N+r}.

    Matrix row r+1 holds first_column[r] and a_{r,N..N+r-1}, then, for
    r < n, the superdiagonal a_{r,N+r} / a_{r,N+r}, which is exactly 1:
    the int 1 for an exact lead, the ``complex`` 1 for a float one, so
    the rows of a float spec reach the constructor all ``complex``.
    """
    from .matrix import HessenbergMatrix

    is_exact, divide = _exact_rules(spec)
    N = spec.index_N
    rows = []
    for r in range(n + 1):
        lead = spec.leading(r)
        inv = divide(1, lead)  # one division per row, then products
        row = [first_column[r], *spec.coeffs[r][N:N + r]]
        if inv != 1:  # a monic row stays as it is
            # a zero stays a zero the recurrence skips
            row = [v * inv if v else v for v in row]
        if r < n:
            row.append(1 if is_exact(lead) else 1 + 0j)
        rows.append(row)
    return HessenbergMatrix(n + 1, rows)


def _solutions(spec: LdevcSpec, n: int, first_column,
               method: str = "ratio-recurrence", *,
               closed_form_cap: int = DEFAULT_CLOSED_FORM_CAP,
               every: bool = True) -> list:
    """(-1)^k det(X_k) / D_k for k = 0..n, or for k = n alone when not
    ``every``; X_k is the order-(k+1) solution matrix whose first column
    is ``first_column``."""
    matrix = _monic_matrix(spec, n, first_column)
    if method.endswith("closed"):
        from .closed_form import closed_form_prefixes, det_closed_form

        if every:
            dets = closed_form_prefixes(
                matrix, closed_form_cap=closed_form_cap)[1:]
        else:
            dets = [det_closed_form(matrix, closed_form_cap=closed_form_cap)]
    else:
        from .determinants import det_prefixes, det_recurrence

        dets = det_prefixes(matrix)[1:] if every else [det_recurrence(matrix)]
    orders = range(1, n + 2) if every else (n + 1,)
    # the prefix of order k belongs to row n = k-1, so (-1)^n is + for odd
    # k; 0 - det rather than -det keeps a +0.0 part of a float +0.0
    return [det if k % 2 else 0 - det for k, det in zip(orders, dets)]


def _coefficient_column(spec: LdevcSpec, i: int) -> list:
    return [row[i] for row in spec.coeffs]


def fundamental_solution(spec: LdevcSpec, n: int, i: int):
    """xi_{n,i}; the basis sequence value at row n for basis index i."""
    _check_int(n, "row", 0, spec.horizon)
    _check_int(i, "basis index", 0, spec.index_N - 1)
    # (-1)^(n+1) = -(-1)^n; 0 - v keeps a +0.0 part of a float +0.0
    return 0 - _solutions(spec, n, _coefficient_column(spec, i),
                          every=False)[0]


def particular_solution(spec: LdevcSpec, n: int):
    """p_n; the forced response under zero initial conditions."""
    _check_int(n, "row", 0, spec.horizon)
    return _solutions(spec, n, spec.forcing, every=False)[0]


def _check_init(spec: LdevcSpec, init) -> tuple:
    init = tuple(init)
    if len(init) != spec.index_N:
        raise WrongInitLength(
            f"expected {spec.index_N} initial values, got {len(init)}")
    return init


def _general_first_column(spec: LdevcSpec, n: int, init: tuple):
    column = []
    for r in range(n + 1):
        value = spec.forcing[r]
        for a, y in zip(spec.coeffs[r], init):
            if a:  # banded specs have mostly zero a_{r,k}
                value = value - a * y
        column.append(value)
    return column


def general_solution(spec: LdevcSpec, n: int, init,
                     method: str = "ratio-recurrence", *,
                     closed_form_cap: int = DEFAULT_CLOSED_FORM_CAP):
    """y_n by one of four equivalent Hessenbergian routes.

    Evaluates the order-(n+1) monic general matrix, by the recurrence or
    by the closed form, and applies (-1)^n to its determinant; reduced-*
    is another name for ratio-*.  The two closed variants obey the
    closed-form cap.  To get every y_0..y_h, use
    :func:`general_solutions`, which costs as much as one call here at
    n = h.
    """
    init = _check_init(spec, init)
    _check_int(n, "row", 0, spec.horizon)
    _check_method(method)
    return _solutions(spec, n, _general_first_column(spec, n, init), method,
                      closed_form_cap=closed_form_cap, every=False)[0]


def general_solutions(spec: LdevcSpec, init,
                      method: str = "ratio-recurrence", *,
                      closed_form_cap: int = DEFAULT_CLOSED_FORM_CAP) -> list:
    """[y_0, ..., y_h] by one of the four Hessenbergian routes, from the
    leading submatrices of one monic horizon matrix.

    The *-recurrence methods take O(h^2) scalar operations.  The *-closed
    methods refuse a horizon matrix above the closed-form cap before
    summing anything.
    """
    init = _check_init(spec, init)
    _check_method(method)
    h = spec.horizon
    return _solutions(spec, h, _general_first_column(spec, h, init), method,
                      closed_form_cap=closed_form_cap)


def solve_forward(spec: LdevcSpec, init) -> list:
    """Row-by-row substitution, solving each row for its leading
    unknown; the independent reference for every other route.

    Where neither the spec nor ``init`` holds a float or complex value,
    a zero a_{n,k} is skipped, since its term is an exact 0, so a banded
    spec costs O(h N) products; in floating point 0 * y is NaN for an
    infinite y and can carry a -0.0 into the sum, so there every term is
    kept."""
    init = _check_init(spec, init)
    divide = _exact_rules(spec)[1]
    kinds = set(map(type, chain(init, spec.forcing,
                                chain.from_iterable(spec.coeffs))))
    keep_zeros = any(issubclass(kind, (float, complex)) for kind in kinds)
    N = spec.index_N
    values = []
    for n in range(spec.horizon + 1):
        acc = spec.forcing[n]
        row = spec.coeffs[n]
        for idx in range(N + n):
            if keep_zeros or row[idx]:
                y = init[idx] if idx < N else values[idx - N]
                acc = acc - row[idx] * y
        values.append(divide(acc, spec.leading(n)))
    return values


class SolutionBundle(_Frozen):
    """Fundamental table xi[i][n], particular p[n], and general y[n]
    sequences for one spec and one set of initial conditions."""

    __slots__ = ("index_N", "fundamentals", "particulars", "generals",
                 "init")
    index_N: int
    fundamentals: Tuple[Tuple, ...]
    particulars: Tuple
    generals: Tuple
    init: Tuple


def _values_agree(a, b, is_exact) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    fa, fb = complex(a), complex(b)
    return abs(fa - fb) <= 1e-9 * (1.0 + abs(fb))


def solve_bundle(spec: LdevcSpec, init) -> SolutionBundle:
    """Assemble all three solution families, one monic horizon pass per
    family member, and verify the linearity identity
    y_n = p_n + sum_k xi_{n,k} y_{k-N} before returning (raises
    LinearityViolation)."""
    init = _check_init(spec, init)
    h = spec.horizon
    fundamentals = tuple(
        tuple(0 - v for v in
              _solutions(spec, h, _coefficient_column(spec, i)))
        for i in range(spec.index_N))
    particulars = tuple(_solutions(spec, h, spec.forcing))
    generals = tuple(general_solutions(spec, init))
    is_exact = _exact_rules(spec)[0]
    for n in range(h + 1):
        expected = particulars[n]
        for k, y in enumerate(init):
            expected = expected + fundamentals[k][n] * y
        if not _values_agree(generals[n], expected, is_exact):
            raise LinearityViolation(
                f"linearity identity violated at row {n}: "
                f"{generals[n]!r} != {expected!r}")
    return SolutionBundle(spec.index_N, fundamentals, particulars,
                          generals, tuple(init))
