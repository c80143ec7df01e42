import random
import time
from fractions import Fraction

import pytest

from conftest import random_exact_matrix, random_float_matrix
from hessenbergian import (IndexOutOfRange, InvalidOrder,
                           OrderTooLargeForClosedForm,
                           OrderTooLargeForExpansion, chi, closed_form,
                           det_closed_form, det_leibniz, det_recurrence,
                           expand_symbolic, make_matrix, sep_count)


def test_chi_goldens_order_two():
    m = make_matrix(2, [1, 2, 3, 4])
    assert chi(m, 0) == -6   # term of columns (2,1): -(h12 h21)
    assert chi(m, 1) == 4    # term of columns (1,2): h11 h22
    assert chi(m, 0) + chi(m, 1) == det_recurrence(m)
    with pytest.raises(IndexOutOfRange):
        chi(m, 2)


def test_closed_form_sums_chi():
    rng = random.Random(31)
    m = random_exact_matrix(6, rng)
    total = chi(m, 0)
    for idx in range(1, sep_count(6)):
        total = total + chi(m, idx)
    assert det_closed_form(m) == total


def test_exact_equivalence_small_orders():
    rng = random.Random(37)
    for order in range(1, 9):
        for _ in range(5):
            m = random_exact_matrix(order, rng)
            closed = det_closed_form(m)
            assert closed == det_recurrence(m)
            assert closed == det_leibniz(m)


def test_float_agreement():
    rng = random.Random(41)
    for order in (1, 4, 9, 14, 16):
        m = random_float_matrix(order, rng)
        a = det_recurrence(m)
        b = det_closed_form(m)
        assert abs(a - b) <= 1e-9 * (1 + abs(a))


def test_zero_factor_meets_overflowing_product():
    # h12 h23 h31 is inf * 0 term by term; the zero rule makes it 0
    m = make_matrix(3, [complex(v) for v in (2, 1e300, 1e-300, 3, 1e300,
                                             0, 1e-300 + 1e-301j, 5)])
    want = det_recurrence(m)
    assert abs(want - (23 - 0.2j)) <= 1e-12 * 23
    assert abs(det_closed_form(m) - want) <= 1e-12 * abs(want)


def test_term_structure_invariants():
    for order in range(1, 11):
        terms = expand_symbolic(order)
        assert len(terms) == sep_count(order)
        for term in terms:
            assert term.sign in (1, -1)
            rows = [r for r, _ in term.factors]
            cols = [c for _, c in term.factors]
            assert rows == list(range(1, order + 1))
            assert sorted(cols) == list(range(1, order + 1))
            assert all(c - r <= 1 for r, c in term.factors)


def test_expand_goldens():
    assert [t.render() for t in expand_symbolic(1)] == ["+h(1,1)"]
    assert [t.render() for t in expand_symbolic(2)] == [
        "-h(1,2)h(2,1)", "+h(1,1)h(2,2)"]
    assert [t.render() for t in expand_symbolic(3)] == [
        "+h(1,2)h(2,3)h(3,1)",
        "-h(1,2)h(2,1)h(3,3)",
        "-h(1,1)h(2,3)h(3,2)",
        "+h(1,1)h(2,2)h(3,3)",
    ]
    assert [t.sign for t in expand_symbolic(4)] == [-1, 1, 1, -1, 1, -1, -1, 1]


def test_render_and_str():
    term = expand_symbolic(2)[1]
    assert str(term) == term.render() == "+h(1,1)h(2,2)"


def test_expansion_cap():
    with pytest.raises(OrderTooLargeForExpansion):
        expand_symbolic(17)
    with pytest.raises(InvalidOrder):
        expand_symbolic(0)
    assert len(expand_symbolic(16)) == 32768


def test_closed_form_cap():
    rng = random.Random(43)
    m = random_float_matrix(30, rng)
    with pytest.raises(OrderTooLargeForClosedForm):
        det_closed_form(m)
    small = random_exact_matrix(4, rng)
    with pytest.raises(OrderTooLargeForClosedForm):
        det_closed_form(small, closed_form_cap=3)


@pytest.mark.parametrize("random_matrix", [random_float_matrix,
                                           random_exact_matrix],
                         ids=["float", "exact"])
def test_multi_block_sum(monkeypatch, random_matrix):
    # 64-term blocks give order 13 (4096 terms) 64 blocks, so the
    # compensated combination of several blocks is covered below the
    # default block size's order 18; exact block sums combine exactly
    monkeypatch.setattr(closed_form, "_BLOCK", 64)
    rng = random.Random(53)
    m = random_matrix(13, rng)
    value = det_closed_form(m)
    assert det_closed_form(m) == value  # blocks combine in ascending order
    reference = det_recurrence(m)
    if m.is_float_backed:
        assert abs(value - reference) <= 1e-12 * (1 + abs(reference))
    else:
        assert value == reference


def test_closed_form_single_row():
    assert det_closed_form(make_matrix(1, [Fraction(5, 9)])) == Fraction(5, 9)
    assert det_closed_form(make_matrix(1, [2.5 + 0j])) == 2.5


def _float_matrix_with_zeros(order, rng):
    # unit-square entries, about one in five of them zero
    return make_matrix(order, [
        0j if rng.random() < 0.2 else complex(rng.random(), rng.random())
        for _ in range(order * (order + 3) // 2 - 1)])


@pytest.mark.parametrize("block", [1, 2, 4, 64])
def test_prefix_doubling_blocks_equal_oracles(monkeypatch, block):
    # blocks that share every row (1), some rows (2, 4) or none (64 at
    # order <= 7) all give the recurrence's value; exact ones the sum of chi
    monkeypatch.setattr(closed_form, "_BLOCK", block)
    rng = random.Random(block)
    for order in range(1, 11):
        for m in (random_float_matrix(order, rng),
                  _float_matrix_with_zeros(order, rng)):
            want = det_recurrence(m)
            assert abs(det_closed_form(m) - want) <= 1e-12 * (1 + abs(want))
    for order in range(1, 8):
        m = random_exact_matrix(order, rng)
        total = 0
        for idx in range(sep_count(order)):
            total = total + chi(m, idx)
        assert det_closed_form(m) == total


def test_float_closed_form_budget_at_order_22():
    m = random_float_matrix(22, random.Random(22))
    start = time.perf_counter()
    det_closed_form(m)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.4, f"order-22 float closed form took {elapsed:.2f}s"
