import cmath
import math
import random
import warnings
from fractions import Fraction

import pytest

from conftest import (periodic_exact_spec, random_exact_spec,
                      random_float_spec, random_fraction,
                      random_rational_scalar)
from hessenbergian import (ComplexRational, IndexOutOfRange, InvalidOrder,
                           IrregularOrder, LdevcSpec, LinearityViolation,
                           OrderTooLargeForClosedForm, WrongEntryCount,
                           WrongInitLength, fundamental_solution,
                           general_solution, general_solutions,
                           particular_solution, solve_bundle, solve_forward)
from hessenbergian import ldevc, matrix
from hessenbergian.cli import generate_spec
from hessenbergian.errors import FLOAT
from hessenbergian.formats import convert_spec
from hessenbergian.ldevc import GENERAL_METHODS

F = Fraction
CR = ComplexRational


def first_order_spec(alpha, horizon):
    """-alpha*y_{n-1} + y_n = 0."""
    coeffs = [[0] * (n) + [-alpha, 1] for n in range(horizon + 1)]
    return LdevcSpec(1, horizon, coeffs, [0] * (horizon + 1))


def golden_system_spec():
    # the frozen solution below was computed independently with a
    # general-purpose CAS solving the full linear system
    coeffs = [
        [F(1, 2), F(-1), F(3)],
        [F(0), F(2), F(1, 3), F(-1, 2)],
        [F(1), F(1, 4), F(-2), F(0), F(5, 3)],
        [F(-1, 3), F(1), F(0), F(1, 2), F(2), F(-3, 4)],
        [F(2, 5), F(0), F(-1), F(1, 6), F(0), F(1), F(7, 2)],
    ]
    forcing = [F(1), F(0), F(-2, 3), F(5), F(1, 4)]
    return LdevcSpec(2, 4, coeffs, forcing)


GOLDEN_INIT = (F(3), F(-1, 2))
GOLDEN_Y = [F(-1, 3), F(-20, 9), F(-101, 40), F(-2279, 135), F(8623, 1890)]


def test_spec_validation():
    with pytest.raises(WrongEntryCount):
        LdevcSpec(1, 1, [[1, 2]], [0, 0])            # missing a row
    with pytest.raises(WrongEntryCount):
        LdevcSpec(1, 0, [[1, 2, 3]], [0])            # row too long
    with pytest.raises(WrongEntryCount):
        LdevcSpec(1, 0, [[1, 2]], [0, 0])            # forcing too long
    with pytest.raises(IrregularOrder):
        LdevcSpec(1, 1, [[1, 2], [1, 2, 0]], [0, 0])  # zero leading coeff
    with pytest.raises(InvalidOrder):
        LdevcSpec(-1, 0, [], [])
    with pytest.raises(InvalidOrder):
        LdevcSpec(1, -1, [], [])
    with pytest.raises(InvalidOrder):
        LdevcSpec(True, 0, [[0, 1]], [0])            # a bool is not an N
    with pytest.raises(InvalidOrder):
        LdevcSpec(0, True, [[1], [0, 1]], [0, 0])    # nor a horizon


def test_spec_is_immutable():
    spec = first_order_spec(F(2), 3)
    with pytest.raises(AttributeError):
        spec.horizon = 9
    with pytest.raises(AttributeError):
        del spec.horizon
    with pytest.raises(AttributeError):
        spec.foo = 1  # not a field: no slot, and frozen all the same
    assert spec.leading(2) == 1


def test_solution_matrix_structure():
    spec = LdevcSpec(1, 1, [[2, 3], [5, 7, 11]], [13, 17])

    def rows(first_column):
        m = ldevc._monic_matrix(spec, 1, first_column)
        assert m.order == 2
        superdiagonal = m.rows[0][1]
        assert type(superdiagonal) is int and superdiagonal == 1
        return [list(row) for row in m.rows]
    # row r is divided by its lead a_{r,N+r} (3, then 11), so the
    # superdiagonal is exactly 1; the last lead only divides
    xi_column = ldevc._coefficient_column(spec, 0)
    assert rows(xi_column) == [[F(2, 3), 1], [F(5, 11), F(7, 11)]]
    assert rows(spec.forcing) == [[F(13, 3), 1], [F(17, 11), F(7, 11)]]
    g_column = ldevc._general_first_column(spec, 1, (F(1, 2),))
    assert g_column == [12, F(29, 2)]
    assert rows(g_column) == [[4, 1], [F(29, 22), F(7, 11)]]


@pytest.mark.parametrize("family, params", [
    ("random", ""), ("periodic", "3"), ("constant", "2,-1")])
def test_float_solution_rows_are_all_complex(monkeypatch, family, params):
    # a float spec's rows reach the constructor in the realization of
    # their leads, superdiagonal 1 included, so it converts none of them
    spec = convert_spec(generate_spec(family, params, 2, 12, 0), FLOAT)
    built = []
    constructor = matrix.HessenbergMatrix

    def spy(order, rows):
        built.append(rows)
        return constructor(order, rows)

    monkeypatch.setattr(matrix, "HessenbergMatrix", spy)
    solve_bundle(spec, (1 + 0j, 2 + 0j))
    # N fundamentals, the particular and the general matrix
    assert len(built) == 4
    assert {type(v) for rows in built for row in rows for v in row} == {
        complex}


def test_row_zero_ratios():
    spec = LdevcSpec(1, 0, [[F(2), F(3)]], [F(13)])
    assert fundamental_solution(spec, 0, 0) == F(-2, 3)
    assert particular_solution(spec, 0) == F(13, 3)


def test_index_out_of_range():
    spec = first_order_spec(F(2), 3)
    with pytest.raises(IndexOutOfRange):
        fundamental_solution(spec, 1, 1)
    with pytest.raises(IndexOutOfRange):
        fundamental_solution(spec, 4, 0)
    with pytest.raises(IndexOutOfRange):
        particular_solution(spec, -1)
    with pytest.raises(IndexOutOfRange):
        fundamental_solution(spec, 1, True)  # a bool is not an index
    with pytest.raises(IndexOutOfRange):
        general_solution(spec, True, (F(1),))
    spec0 = LdevcSpec(0, 1, [[1], [0, 1]], [1, 1])
    with pytest.raises(IndexOutOfRange):
        fundamental_solution(spec0, 0, 0)  # no basis sequences when N=0


def test_golden_system_forward():
    spec = golden_system_spec()
    assert solve_forward(spec, GOLDEN_INIT) == GOLDEN_Y


@pytest.mark.parametrize("method", GENERAL_METHODS)
def test_golden_system_all_methods(method):
    spec = golden_system_spec()
    got = [general_solution(spec, n, GOLDEN_INIT, method) for n in range(5)]
    assert got == GOLDEN_Y


def test_golden_system_bundle():
    spec = golden_system_spec()
    bundle = solve_bundle(spec, GOLDEN_INIT)
    assert list(bundle.generals) == GOLDEN_Y
    assert bundle.index_N == 2
    assert len(bundle.fundamentals) == 2
    assert len(bundle.fundamentals[0]) == 5
    for n in range(5):
        combo = bundle.particulars[n]
        for k in range(2):
            combo = combo + bundle.fundamentals[k][n] * GOLDEN_INIT[k]
        assert combo == GOLDEN_Y[n]
    # a value record: equal and hashed by its fields, and frozen
    again = solve_bundle(spec, GOLDEN_INIT)
    assert again == bundle and hash(again) == hash(bundle)
    assert repr(bundle).startswith("SolutionBundle(index_N=2, fundamentals=(")
    with pytest.raises(AttributeError, match="cannot assign to field 'init'"):
        bundle.init = ()


def test_first_order_powers():
    alpha = CR(F(-3, 2))
    spec = first_order_spec(alpha, 12)
    ys = solve_forward(spec, (1,))
    for n in range(13):
        assert ys[n] == alpha ** (n + 1)
        assert fundamental_solution(spec, n, 0) == alpha ** (n + 1)


def test_fundamental_sequences_satisfy_homogeneous_equation():
    rng = random.Random(61)
    for index_N in (1, 2, 3):
        spec = random_exact_spec(index_N, 8, rng)
        for i in range(index_N):
            xi = [fundamental_solution(spec, n, i) for n in range(9)]
            for n in range(9):
                acc = 0
                for idx in range(index_N + n + 1):
                    if idx < index_N:
                        y = 1 if idx == i else 0
                    else:
                        y = xi[idx - index_N]
                    acc = acc + spec.coeffs[n][idx] * y
                assert not acc


def test_methods_agree_on_random_specs():
    rng = random.Random(67)
    for index_N in (1, 3):
        spec = random_exact_spec(index_N, 7, rng)
        init = tuple(random_fraction(rng) for _ in range(index_N))
        forward = solve_forward(spec, init)
        for method in GENERAL_METHODS:
            got = [general_solution(spec, n, init, method) for n in range(8)]
            assert got == forward


def test_reduced_equals_ratio():
    # the sign (-1)^n folded into the rows changes no value; negation is
    # exact, so on these specs, which have no zero parts, not even a
    # float bit changes
    rng = random.Random(71)
    exact = random_exact_spec(2, 9, rng), (F(1, 3), F(-2))
    floating = random_float_spec(2, 40, rng), (1 / 3 + 0j, -2 + 0j)
    for spec, init in (exact, floating):
        assert (repr(general_solutions(spec, init, "reduced-recurrence"))
                == repr(general_solutions(spec, init, "ratio-recurrence")))
        for n in range(min(spec.horizon, 10) + 1):
            assert (repr(general_solution(spec, n, init, "reduced-closed"))
                    == repr(general_solution(spec, n, init, "ratio-closed")))


def test_unbounded_order_has_no_free_constants():
    rng = random.Random(73)
    spec = random_exact_spec(0, 9, rng)
    forward = solve_forward(spec, ())
    assert [particular_solution(spec, n) for n in range(10)] == forward
    assert [general_solution(spec, n, ()) for n in range(10)] == forward


def test_bundle_refuses_broken_linearity(monkeypatch):
    spec = golden_system_spec()
    honest = ldevc.general_solutions
    monkeypatch.setattr(
        ldevc, "general_solutions",
        lambda *args, **kwargs: [y + 1 for y in honest(*args, **kwargs)])
    with pytest.raises(LinearityViolation, match="row 0"):
        solve_bundle(spec, GOLDEN_INIT)


def test_wrong_init_length():
    spec = golden_system_spec()
    with pytest.raises(WrongInitLength):
        solve_forward(spec, (1,))
    with pytest.raises(WrongInitLength):
        general_solution(spec, 0, (1, 2, 3))
    with pytest.raises(WrongInitLength):
        solve_bundle(spec, ())


def test_unknown_method():
    spec = first_order_spec(F(2), 2)
    with pytest.raises(ValueError):
        general_solution(spec, 1, (1,), "cramer")


def test_closed_cap_passthrough():
    spec = golden_system_spec()
    with pytest.raises(OrderTooLargeForClosedForm):
        general_solution(spec, 3, GOLDEN_INIT, "ratio-closed",
                         closed_form_cap=2)
    # the whole-horizon route refuses before summing any term
    with pytest.raises(OrderTooLargeForClosedForm, match="closed_form_cap=4"):
        general_solutions(spec, GOLDEN_INIT, "reduced-closed",
                          closed_form_cap=4)
    assert general_solutions(spec, GOLDEN_INIT, "reduced-closed",
                             closed_form_cap=5) == GOLDEN_Y


def test_closed_and_recurrence_values_share_their_types():
    # rows 1-3 of the monic matrix stay int (lead 1), rows 4-6 become
    # Fraction (lead 2): every prefix takes the horizon matrix's result
    # type, by the closed form as by the recurrence
    coeffs = ([[0] * n + [-2, 1] for n in range(3)]
              + [[0] * n + [F(1, 3), 2] for n in range(3, 6)])
    spec = LdevcSpec(1, 5, coeffs, [1] * 6)
    closed = general_solutions(spec, (1,), "ratio-closed")
    recurrence = general_solutions(spec, (1,), "ratio-recurrence")
    assert closed == recurrence == solve_forward(spec, (1,))
    assert [type(v) for v in closed] == [type(v) for v in recurrence] == [F] * 6


def scaled_rows(spec, scales):
    """The same equations with row n multiplied by scales[n]; the
    solution does not change."""
    return LdevcSpec(spec.index_N, spec.horizon,
                     [[v * c for v in row] for row, c in zip(spec.coeffs, scales)],
                     [g * c for g, c in zip(spec.forcing, scales)])


@pytest.mark.parametrize("index_N", [0, 1, 2, 3])
def test_general_solutions_equal_forward(index_N):
    rng = random.Random(83 + index_N)
    for _ in range(3):
        spec = random_exact_spec(index_N, 8, rng)
        init = tuple(random_fraction(rng) for _ in range(index_N))
        scaled = scaled_rows(spec, [rng.choice((-1, 1)) * rng.randint(2, 10**6)
                                    for _ in range(spec.horizon + 1)])
        forward = solve_forward(spec, init)
        assert solve_forward(scaled, init) == forward
        for method in GENERAL_METHODS:
            assert general_solutions(spec, init, method) == forward, method
            assert general_solutions(scaled, init, method) == forward, method


@pytest.mark.parametrize("make_spec", [
    # banded: columns leave the live window as it moves down the matrix
    lambda rng: periodic_exact_spec(2, 300, 3, rng),
    # dense: every column stays live from its first row on
    lambda rng: random_exact_spec(3, 120, rng),
], ids=["periodic-N2-h300", "random-N3-h120"])
def test_general_solutions_equal_forward_at_scale(make_spec):
    rng = random.Random(97)
    spec = make_spec(rng)
    init = tuple(random_rational_scalar(rng) for _ in range(spec.index_N))
    assert general_solutions(spec, init) == solve_forward(spec, init)


def test_general_solutions_checks_arguments():
    spec = golden_system_spec()
    with pytest.raises(WrongInitLength):
        general_solutions(spec, (1,))
    with pytest.raises(ValueError):
        general_solutions(spec, GOLDEN_INIT, "cramer")


def test_long_float_horizon_stays_finite():
    # det(G) and D_n overflow separately at this horizon although y_n is
    # finite; the monic rows never form either one
    spec = random_float_spec(2, 600, random.Random(89))
    init = (1 + 0j, 2 + 0j)
    forward = solve_forward(spec, init)
    assert max(abs(y) for y in forward) > 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = general_solutions(spec, init)
    assert len(got) == len(forward)
    for a, b in zip(got, forward):
        assert cmath.isfinite(a)
        assert abs(a - b) <= 1e-9 * (1 + abs(b))


def test_float_spec_agreement():
    rng = random.Random(79)
    horizon = 8
    coeffs = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(2 + n)]
              + [complex(rng.uniform(1, 2), rng.uniform(-1, 1))]
              for n in range(horizon + 1)]
    forcing = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(horizon + 1)]
    spec = LdevcSpec(2, horizon, coeffs, forcing)
    init = (0.5 + 0.25j, -0.75j)
    forward = solve_forward(spec, init)
    for method in GENERAL_METHODS:
        got = [general_solution(spec, n, init, method)
               for n in range(horizon + 1)]
        for a, b in zip(got, forward):
            assert abs(a - b) <= 1e-9 * (1 + abs(b))
    bundle = solve_bundle(spec, init)
    for a, b in zip(bundle.generals, forward):
        assert abs(a - b) <= 1e-9 * (1 + abs(b))


@pytest.mark.parametrize("lead", [1.0, 1], ids=["float-leads", "int-leads"])
def test_float_spec_with_bare_int_entries(lead):
    # bare ints are neutral beside floats, in a spec as in a document:
    # int zeros (and int unit leads) do not make the matrices exact
    spec = LdevcSpec(1, 3, [[0, lead], [0, -0.5, lead], [0, 0, -0.5, lead],
                            [0, 0, 0, -0.5, 2.0]], [0, 1.0, 0, 0])
    init = (0.0,)
    forward = solve_forward(spec, init)
    assert forward == [0.0, 1.0, 0.5, 0.125]
    for method in GENERAL_METHODS:
        assert general_solutions(spec, init, method) == forward
    bundle = solve_bundle(spec, init)
    assert list(bundle.generals) == list(bundle.particulars) == forward
    assert [fundamental_solution(spec, n, 0) for n in range(4)] == [0] * 4


@pytest.mark.parametrize("coeffs,forcing,init", [
    ([[0, 1.0], [0, 3, 2]], [1.0, 0], (0.0,)),
    ([[1, 2], [0, 3, 2]], [1, 0], (0.5,)),
], ids=["float-spec", "float-init"])
def test_int_lead_other_than_one_beside_floats(coeffs, forcing, init):
    # an int lead of 2 divides the int 3 into Fraction(3, 2), which the
    # matrix rounds once beside the float values
    _assert_routes_agree(LdevcSpec(1, 1, coeffs, forcing),
                         LdevcSpec(1, 1, coeffs, [0, 0]), init)


def test_spec_mixing_exact_and_float_values():
    # a monic matrix holding a float rounds its exact entries once; one
    # holding none stays exact
    coeffs = [[1.0, F(1)], [F(1, 2), F(3), F(1)]]
    spec = LdevcSpec(1, 1, coeffs, [F(1, 2), F(1, 3)])
    _assert_routes_agree(spec, LdevcSpec(1, 1, coeffs, [0, 0]), (F(0),))
    p = particular_solution(spec, 1)
    assert p == F(-7, 6) and type(p) is F


def _assert_routes_agree(spec, homogeneous, init):
    # every general route, the bundle and the fundamentals agree with
    # forward substitution; homogeneous is spec with zero forcing
    def agree(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(complex(a) - complex(b)) <= 1e-12 * (1 + abs(b))

    forward = solve_forward(spec, init)
    for method in GENERAL_METHODS:
        agree(general_solutions(spec, init, method), forward)
    bundle = solve_bundle(spec, init)
    agree(bundle.generals, forward)
    xi = solve_forward(homogeneous, (1,))
    agree(bundle.fundamentals[0], xi)
    n = spec.horizon + 1
    agree([fundamental_solution(spec, k, 0) for k in range(n)], xi)


def test_fundamentals_keep_the_sign_of_zero():
    # y_n = 2 y_{n-1} as a float spec: every value is real, and the
    # (-1) of xi_{n,i} must not turn a +0.0 imaginary part into -0.0
    spec = first_order_spec(2 + 0j, 6)
    spec = LdevcSpec(1, 6, [[complex(v) for v in row] for row in spec.coeffs],
                     [0j] * 7)
    bundle = solve_bundle(spec, [1.5 + 0j])
    values = list(bundle.fundamentals[0])
    values += [fundamental_solution(spec, n, 0) for n in range(7)]
    assert values[:7] == [2.0 ** (n + 1) for n in range(7)]
    for v in values:
        assert math.copysign(1, v.real) == math.copysign(1, v.imag) == 1


@pytest.mark.parametrize("make_spec", [random_exact_spec, random_float_spec],
                         ids=["exact", "float"])
def test_single_solution_equals_every_solution(make_spec):
    # every=False takes det_recurrence of the horizon matrix; it must
    # equal, with its type, the entry of the all-prefix pass
    spec = make_spec(2, 12, random.Random(71))
    column = ldevc._coefficient_column(spec, 1)
    every = ldevc._solutions(spec, 12, column)
    for n in range(13):
        one = ldevc._solutions(spec, n, column, every=False)[0]
        assert one == every[n] and type(one) is type(every[n])
        assert repr(one) == repr(every[n])  # a float's sign of zero too
