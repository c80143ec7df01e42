import cmath
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (nonzero_rational_scalar, random_exact_matrix,
                      random_float_matrix)
from hessenbergian import (ComplexRational, HessenbergMatrix, LdevcSpec,
                           NOrder, OrderTooLargeForOracle, chi, classify,
                           det_closed_form, det_leibniz, det_prefixes,
                           det_recurrence, entry_count, leading_submatrix,
                           make_matrix, row_length, sep_count)

CR = ComplexRational
ALL_METHODS = (det_recurrence, det_leibniz)


def test_order_two_golden_by_hand():
    # [[1,2],[3,4]]: 1*4 - 2*3
    m = make_matrix(2, [1, 2, 3, 4])
    for det in ALL_METHODS:
        assert det(m) == -2


def test_order_one():
    m = make_matrix(1, [Fraction(7, 3)])
    for det in ALL_METHODS:
        assert det(m) == Fraction(7, 3)


def test_identity_up_to_64():
    # identity embeds with a zero superdiagonal
    for n in range(1, 65):
        rows = [[0] * (i - 1) + [1] + [0] * (row_length(n, i) - i)
                for i in range(1, n + 1)]
        ident = HessenbergMatrix(n, rows)
        for i in range(1, n + 1):
            for j in range(1, row_length(n, i) + 1):
                assert ident.rows[i - 1][j - 1] == (1 if i == j else 0)
        assert det_recurrence(ident) == 1


def test_order_three_golden():
    # det = 23/4, checked by hand via the order-3 cofactor expansion
    m = HessenbergMatrix(3, [[Fraction(2), Fraction(1)],
                             [Fraction(1, 2), Fraction(-1), Fraction(3)],
                             [Fraction(4), Fraction(0), Fraction(5, 2)]])
    for det in ALL_METHODS:
        assert det(m) == Fraction(23, 4)


def order_five_golden_matrix():
    F = Fraction
    return HessenbergMatrix(5, [
        [CR(F(1, 2)), CR(F(-3))],
        [CR(F(2, 3), F(1, 2)), CR(F(5, 7)), CR(F(1))],
        [CR(F(-1, 4)), CR(F(0)), CR(F(3, 5)), CR(F(-2, 3), F(1, 3))],
        [CR(F(7, 2)), CR(F(1, 6)), CR(F(-4, 9), F(-1, 2)), CR(F(2)), CR(F(1, 5))],
        [CR(F(0), F(2, 7)), CR(F(-5, 3)), CR(F(1, 8)), CR(F(3, 4)), CR(F(-6, 5), F(1))],
    ])


def test_order_five_golden_complex_rational():
    # expected value computed independently with a general-purpose CAS
    expected = CR(Fraction(-4771, 12600), Fraction(-215389, 25200))
    m = order_five_golden_matrix()
    for det in ALL_METHODS:
        assert det(m) == expected


def test_zero_superdiagonal_blocks_triangularize():
    # with the whole superdiagonal zero the determinant is the diagonal product
    rng = random.Random(3)
    n = 7
    rows = []
    for i in range(1, n + 1):
        row = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
               for _ in range(row_length(n, i))]
        if i < n:
            row[-1] = Fraction(0)
        rows.append(row)
    m = HessenbergMatrix(n, rows)
    diag = Fraction(1)
    for i in range(1, n + 1):
        diag *= m.rows[i - 1][i - 1]
    assert det_recurrence(m) == diag
    assert det_leibniz(m) == diag


def test_row_scaling_multilinearity():
    rng = random.Random(17)
    m = random_exact_matrix(6, rng)
    base = det_recurrence(m)
    s = CR(Fraction(-3, 7), Fraction(1, 2))
    for i in range(6):
        rows = [list(r) for r in m.rows]
        rows[i] = [s * v for v in rows[i]]
        assert det_recurrence(HessenbergMatrix(6, rows)) == s * base


def test_float_path_matches_generic_path():
    rng = random.Random(23)
    for order in (1, 2, 5, 12):
        mf = random_float_matrix(order, rng)
        exact_copy = HessenbergMatrix(
            order, [[CR.from_complex(v) for v in row] for row in mf.rows])
        reference = complex(det_recurrence(exact_copy))
        got = det_recurrence(mf)
        assert abs(got - reference) <= 1e-12 * (1 + abs(reference))


def test_zero_entry_meeting_overflowing_superdiagonal_product():
    # h_{1,2} h_{2,3} = 1e600 overflows to inf, but its term in det(H_3)
    # has h_{3,1} = 0, so it adds nothing; 0 * inf must not make it NaN
    m = HessenbergMatrix(3, [[2 + 0j, 1e300 + 0j],
                             [1e-300 + 0j, 3 + 0j, 1e300 + 0j],
                             [0j, 1e-300 + 1e-301j, 5 + 0j]])
    exact = [complex(v) for v in det_prefixes(HessenbergMatrix(
        3, [[CR.from_complex(v) for v in row] for row in m.rows]))]
    got = det_prefixes(m)
    for g, e in zip(got, exact, strict=True):
        assert cmath.isfinite(g)
        assert abs(g - e) <= 1e-12 * abs(e)
    assert got[-1] == det_recurrence(m)


def test_exact_results_keep_python_scalar_types():
    # an int matrix gives int determinants, Fraction entries give
    # Fractions and ComplexRational entries give ComplexRationals;
    # det(H_0) is the int 1 throughout
    ints = make_matrix(3, [1, 2, 3, 4, 5, 6, 7, 8])
    assert [type(v) for v in det_prefixes(ints)] == [int] * 4
    assert type(det_closed_form(ints)) is int
    fracs = make_matrix(2, [Fraction(1, 2), 2, 3, 4])
    assert det_recurrence(fracs) == det_closed_form(fracs) == Fraction(-4)
    assert type(det_recurrence(fracs)) is type(det_closed_form(fracs)) is Fraction
    all_fracs = make_matrix(2, [Fraction(1, 2), Fraction(2), Fraction(3),
                                Fraction(-4, 3)])
    assert det_prefixes(all_fracs) == [1, Fraction(1, 2), Fraction(-20, 3)]
    assert [type(v) for v in det_prefixes(all_fracs)] == [int] + [Fraction] * 2
    crs = make_matrix(2, [CR(Fraction(1, 2), 1), CR(3), CR(0, 1),
                          CR(Fraction(-1, 3))])
    want = CR(Fraction(-1, 6), Fraction(-10, 3))
    assert det_prefixes(crs) == [1, CR(Fraction(1, 2), 1), want]
    assert det_closed_form(crs) == want
    assert [type(v) for v in det_prefixes(crs)] == [int] + [CR] * 2
    assert type(det_closed_form(crs)) is CR


def test_exact_kernels_refuse_float_entries():
    # an object-backed matrix holding a float has no exact value
    mixed = make_matrix(2, [1, 2.0, 3.0, 4.0])
    for det in (det_recurrence, det_closed_form):
        with pytest.raises(TypeError, match="got float"):
            det(mixed)


def test_exact_recurrence_budget_at_order_200():
    m = random_exact_matrix(200, random.Random(200))
    start = time.perf_counter()
    det_recurrence(m)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"order-200 exact recurrence took {elapsed:.2f}s"


def test_exact_closed_form_budget_at_order_12():
    m = random_exact_matrix(12, random.Random(12))
    start = time.perf_counter()
    det_closed_form(m)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.2, f"order-12 exact closed form took {elapsed:.2f}s"


def test_oracle_cap():
    rng = random.Random(5)
    m = random_exact_matrix(11, rng)
    with pytest.raises(OrderTooLargeForOracle):
        det_leibniz(m)
    assert det_leibniz(m, oracle_cap=11) == det_recurrence(m)


@st.composite
def int_matrices(draw, max_order=8):
    n = draw(st.integers(min_value=1, max_value=max_order))
    entries = draw(st.lists(st.integers(min_value=-5, max_value=5),
                            min_size=entry_count(n), max_size=entry_count(n)))
    return make_matrix(n, entries)


@given(int_matrices())
@settings(deadline=None, max_examples=60)
def test_recurrence_equals_oracle(m):
    assert det_recurrence(m) == det_leibniz(m)


@given(int_matrices())
@settings(deadline=None, max_examples=60)
def test_prefixes_are_leading_submatrix_determinants(m):
    prefixes = det_prefixes(m)
    assert len(prefixes) == m.order + 1 and prefixes[0] == 1
    for k in range(1, m.order + 1):
        sub = leading_submatrix(m, k)
        assert prefixes[k] == det_recurrence(sub) == det_leibniz(sub)
    assert prefixes[-1] == det_recurrence(m)


fractions = st.builds(Fraction, st.integers(-10**6, 10**6),
                      st.integers(1, 10**6))
exact_entries = {
    int: st.integers(-10**6, 10**6) | st.just(0),
    Fraction: st.integers(-9, 9) | fractions | st.just(Fraction(0)),
    CR: (st.integers(-9, 9) | fractions
         | st.sampled_from([0, Fraction(0), CR(0)])
         | st.builds(CR, fractions, fractions)
         | st.builds(lambda f: CR(0, f), fractions)),  # purely imaginary
}


@st.composite
def exact_matrices(draw, max_order=8):
    """(matrix, kind): entries of one kind's mix, some rows all zero."""
    kind = draw(st.sampled_from(sorted(exact_entries, key=str)))
    n = draw(st.integers(min_value=1, max_value=max_order))
    zero_rows = draw(st.sets(st.integers(1, n), max_size=2))
    rows = [[0] * row_length(n, i) if i in zero_rows else
            draw(st.lists(exact_entries[kind], min_size=row_length(n, i),
                          max_size=row_length(n, i)))
            for i in range(1, n + 1)]
    return HessenbergMatrix(n, rows), kind


def result_kind(m):
    types = {type(v) for row in m.rows for v in row.tolist()}
    return CR if CR in types else Fraction if Fraction in types else int


@given(exact_matrices())
@settings(deadline=None, max_examples=150)
def test_fraction_free_kernels_equal_independent_oracles(drawn):
    # both kernels run on Gaussian integers; det_leibniz and chi still
    # run on ComplexRational and Python scalars
    m, _ = drawn
    prefixes = det_prefixes(m)
    assert prefixes[0] == 1
    for k in range(1, m.order + 1):
        assert prefixes[k] == det_leibniz(leading_submatrix(m, k))
        assert type(prefixes[k]) is result_kind(m)
    closed = det_closed_form(m)
    assert closed == sum(chi(m, i) for i in range(sep_count(m.order)))
    assert closed == prefixes[-1]
    assert type(closed) is result_kind(m)


@st.composite
def float_matrices(draw, max_order=8):
    n = draw(st.integers(min_value=1, max_value=max_order))
    part = st.floats(min_value=-1, max_value=1)
    entries = draw(st.lists(st.builds(complex, part, part),
                            min_size=entry_count(n), max_size=entry_count(n)))
    return make_matrix(n, entries)


@given(float_matrices())
@settings(deadline=None, max_examples=60)
def test_float_prefixes_match_exact_prefixes(m):
    assert m.is_float_backed
    exact_copy = HessenbergMatrix(
        m.order, [[CR.from_complex(v) for v in row] for row in m.rows])
    for got, want in zip(det_prefixes(m), det_prefixes(exact_copy),
                         strict=True):
        assert isinstance(got, complex)
        assert abs(got - complex(want)) <= 1e-9 * (1 + abs(complex(want)))


def undivided_solution_matrix(spec, n, first_column):
    """The paper's order-(n+1) solution matrix: row r+1 holds
    first_column[r] and a_{r,N..N+min(r,n-1)}, no row divided."""
    N = spec.index_N
    return HessenbergMatrix(n + 1, [
        [first_column[r], *spec.coeffs[r][N:N + min(r + 1, n)]]
        for r in range(n + 1)])


def mostly_zero_solution_matrices():
    """Solution matrices of a first-order and a banded N=2 spec, orders
    1..10: most stored entries are zeros that the recurrence skips."""
    rng = random.Random(77)
    alpha = CR(Fraction(-3, 2), Fraction(1, 2))
    first = LdevcSpec(1, 9, [[0] * n + [-alpha, 1] for n in range(10)],
                      [0] * 10)
    banded = LdevcSpec(
        2, 9, [[0] * n + [nonzero_rational_scalar(rng) for _ in range(3)]
               for n in range(10)],
        [nonzero_rational_scalar(rng) for _ in range(10)])
    assert classify(banded) == NOrder(2)
    init = (CR(Fraction(2, 7), Fraction(-1, 3)), CR(5))

    def column(spec, i):
        return [row[i] for row in spec.coeffs]

    def general_column(spec, init):
        column = []
        for row, value in zip(spec.coeffs, spec.forcing):
            for a, y in zip(row, init):
                if a:
                    value = value - a * y
            column.append(value)
        return column
    for n in range(10):
        yield undivided_solution_matrix(first, n, column(first, 0))
        yield undivided_solution_matrix(first, n,
                                        general_column(first, init[:1]))
        yield undivided_solution_matrix(banded, n, column(banded, 0))
        yield undivided_solution_matrix(banded, n, column(banded, 1))
        yield undivided_solution_matrix(banded, n,
                                        general_column(banded, init))


def test_recurrence_skipping_zero_terms_equals_oracles():
    for m in mostly_zero_solution_matrices():
        got = det_recurrence(m)
        assert got == det_leibniz(m)
        assert got == det_closed_form(m)
