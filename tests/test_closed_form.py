import cmath
import hashlib
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (random_exact_matrix, random_float_matrix,
                      random_fraction, random_rational_scalar)
from hessenbergian import (HessenbergMatrix, IndexOutOfRange, InvalidOrder,
                           OrderTooLargeForClosedForm,
                           OrderTooLargeForExpansion, chi, closed_form,
                           closed_form_prefixes, det_closed_form,
                           det_leibniz, det_prefixes, det_recurrence,
                           entry_count, expand_symbolic, leading_submatrix,
                           make_matrix, row_length, sep_count)
from hessenbergian.cli import main
from hessenbergian.matrix import signed_rows
from hessenbergian.sep_codec import enumerate_seps


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
    # compensated combination of several float blocks is covered below
    # the default block size's order 18; the exact walk has no blocks,
    # so its case is a plain value check
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


def _float_matrix_with_signed_zeros(order, rng):
    # unit-square entries, about one in three with a -0.0 or 0.0 part
    def entry():
        re, im = rng.random(), rng.random()
        pick = rng.random()
        if pick < 0.1:
            return complex(-0.0, im)
        if pick < 0.2:
            return complex(re, -0.0)
        if pick < 0.3:
            return complex(-0.0, -0.0)
        return complex(re, im)
    return make_matrix(order, [entry() for _ in range(entry_count(order))])


@pytest.mark.parametrize("block", [1, 2, 4, 64])
def test_prefix_doubling_blocks_equal_oracles(monkeypatch, block):
    # float blocks that share every row (1), some rows (2, 4) or none
    # (64 at order <= 7) all give the recurrence's value; the exact walk
    # has no blocks, and its value is checked against the sum of chi
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


@pytest.mark.parametrize("draw", [
    lambda rng: rng.randint(-9, 9), random_fraction, random_rational_scalar,
], ids=["int", "Fraction", "ComplexRational"])
def test_exact_prefixes_equal_recurrence_prefixes(draw):
    # one walk gives every prefix, each divided by its own row scales,
    # with the values and result types of the recurrence's prefixes
    rng = random.Random(57)
    for order in range(1, 11):
        for zeros in (0.0, 0.3, 0.6):
            m = make_matrix(order, [0 if rng.random() < zeros else draw(rng)
                                    for _ in range(entry_count(order))])
            want = det_prefixes(m)
            got = closed_form_prefixes(m)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            # the determinant is the walk's last prefix, type included
            det = det_closed_form(m)
            assert det == got[-1] and type(det) is type(got[-1])


def test_only_the_float_closed_form_builds_signed_rows(monkeypatch):
    # the exact walk and chi form c = -h where they multiply, from the
    # stored rows; the float kernel gathers from one signed copy per call
    calls = []

    def float_only(matrix):
        if not matrix.is_float_backed:
            raise AssertionError("a signed copy of exact rows")
        calls.append(matrix)
        return signed_rows(matrix)

    monkeypatch.setattr(closed_form, "signed_rows", float_only)
    rng = random.Random(59)
    m = random_exact_matrix(6, rng)
    assert det_closed_form(m) == det_recurrence(m)
    assert closed_form_prefixes(m) == det_prefixes(m)
    terms = [chi(m, idx) for idx in range(sep_count(6))]
    assert sum(terms) == det_closed_form(m)
    f = random_float_matrix(6, rng)
    chi(f, 5)
    assert calls == []
    det_closed_form(f)
    assert calls == [f]
    closed_form_prefixes(f)
    assert calls == [f, f]


def test_chi_is_the_left_to_right_product_of_signed_factors():
    # every term at orders 1-10: chi, which reads one stored entry per
    # row and negates the superdiagonal itself, gives the bits of the
    # product over the stored scalars of signed_rows, on zero and -0.0
    # parts and on products that overflow
    rng = random.Random(61)
    matrices = [_overflow_matrix()]
    for order in range(1, 11):
        matrices += [_float_matrix_with_zeros(order, rng),
                     _float_matrix_with_signed_zeros(order, rng),
                     random_exact_matrix(order, rng),
                     make_matrix(order, [
                         0 if rng.random() < 0.3
                         else random_rational_scalar(rng)
                         for _ in range(entry_count(order))])]
    for m in matrices:
        rows = signed_rows(m)
        for idx, factors in enumerate_seps(m.order):
            value = 1
            for row, col in zip(rows, factors.columns):
                value = value * row[col - 1]
            assert repr(chi(m, idx)) == repr(value)


def _overflow_matrix():
    # a zero factor meets products that overflow to inf and nan
    return make_matrix(3, [complex(v) for v in (
        2, 1e300, 1e-300, 3, 1e300, 0, 1e-300 + 1e-301j, 5)])


def _per_term_sum(m):
    # the float closed form with every term decoded on its own: each
    # term's columns from enumerate_seps, one out-of-place product per
    # row over the whole block, the terms with a zero factor zeroed,
    # the block sums combined in ascending order by _kahan_sum
    rows = [np.array(row, np.complex128) for row in signed_rows(m)]
    columns = np.array([f.columns for _, f in enumerate_seps(m.order)]) - 1
    sums = []
    for start in range(0, len(columns), closed_form._BLOCK):
        cols = columns[start:start + closed_form._BLOCK]
        prod = np.ones(len(cols), dtype=np.complex128)
        dead = np.zeros(len(cols), dtype=bool)
        with np.errstate(all="ignore"):
            for i, row in enumerate(rows):
                picked = row[cols[:, i]]
                prod = np.multiply(prod, picked)
                dead |= picked == 0
            prod[dead] = 0
        sums.append(prod.sum().item())
    return closed_form._kahan_sum(sums)


@pytest.mark.parametrize("block", [1, 4, 64])
def test_float_kernel_bits_equal_per_term_decode(monkeypatch, block):
    # the prefix doubling and its reused buffers give every term the
    # bits of its own left-to-right product, whatever the block size
    monkeypatch.setattr(closed_form, "_BLOCK", block)
    rng = random.Random(block + 2)
    matrices = [_overflow_matrix()] + [
        matrix for order in range(1, 13)
        for matrix in (random_float_matrix(order, rng),
                       _float_matrix_with_zeros(order, rng))]
    for m in matrices:
        assert repr(det_closed_form(m)) == repr(_per_term_sum(m))


@pytest.mark.parametrize("block, sub", [(64, 64), (128, 64), (256, 64)])
def test_sub_block_sums_equal_per_term_decode(monkeypatch, block, sub):
    # the terms are formed in sub-blocks and each block is still summed
    # as numpy sums it whole: the sums of its 64-term leaves meet in its
    # halving tree (at 256, four of them); order 12 spans 32 blocks of
    # 64 terms
    monkeypatch.setattr(closed_form, "_BLOCK", block)
    monkeypatch.setattr(closed_form, "_SUB_BLOCK", sub)
    rng = random.Random(block + sub)
    matrices = [_overflow_matrix()] + [
        matrix for order in range(1, 13)
        for matrix in (random_float_matrix(order, rng),
                       _float_matrix_with_zeros(order, rng),
                       _float_matrix_with_signed_zeros(order, rng))]
    for m in matrices:
        assert repr(det_closed_form(m)) == repr(_per_term_sum(m))
    m = _float_matrix_with_zeros(12, rng)
    assert [repr(v) for v in closed_form_prefixes(m)[1:]] == [
        repr(_per_term_sum(leading_submatrix(m, k))) for k in range(1, 13)]


def _bits(values):
    # the bytes of complex128 values with every nan made one nan: a
    # nan's sign bit is not kept across layouts, and no repr shows it
    parts = np.array(values, np.complex128).view(np.float64).copy()
    parts[np.isnan(parts)] = np.nan
    return parts.tobytes()


def _awkward_values(rng, size, scale=300, special=(np.inf, -np.inf, np.nan)):
    # values of magnitude 10^-scale to 10^scale, with signed zeros,
    # subnormals and `special` in about a third of the parts
    special = np.array([*special, 0.0, -0.0, 5e-324, -2.5e-310])
    parts = (rng.standard_normal(2 * size)
             * 10.0 ** rng.integers(-scale, scale + 1, 2 * size))
    pick = rng.random(2 * size) < 0.3
    parts[pick] = rng.choice(special, pick.sum())
    return parts.view(np.complex128)


def test_numpy_keeps_the_bits_the_float_kernel_relies_on():
    # _sub_block_terms writes each product into a strided slot of its
    # output, with the superdiagonal factor as a stride-0 operand, and
    # _sum_block adds the sums of a block's halves as numpy's pairwise
    # sum does; each must give the bits of the contiguous operation,
    # or the closed form's values change with its block sizes
    rng = np.random.default_rng(34)
    with np.errstate(all="ignore"):
        for size in (1, 2, 3, 7, 8, 64, 1000, 4097):
            a = _awkward_values(rng, size)
            b = _awkward_values(rng, size)
            out = np.empty(2 * size, np.complex128)
            for slots in (out[0::2], out[1::2]):
                np.multiply(a, b, out=slots)
                assert _bits(slots) == _bits(np.multiply(a, b)), (
                    "numpy's complex product into a strided out= view "
                    "differs from its contiguous product; _sum_block's "
                    "sub-blocks (_sub_block_terms) rely on them being equal")
                np.multiply(a, b[3 % size:3 % size + 1], out=slots)
                assert _bits(slots) == _bits(
                    np.multiply(a, np.full(size, b[3 % size]))), (
                    "numpy's complex product by a stride-0 factor differs "
                    "from its contiguous product; _sum_block's sub-blocks "
                    "(_sub_block_terms) rely on them being equal")
        for size in (128, 256, 1 << 12, 1 << 16):
            # finite, so that each sum rounds many times
            for _ in range(5):
                a = _awkward_values(rng, size, scale=3, special=())
                half = size // 2
                whole = a.sum().item()
                halves = 0j + (a[:half].sum().item() + a[half:].sum().item())
                assert repr(whole) == repr(halves), (
                    "numpy's sum of a power-of-two length is not the sum "
                    "of its halves' sums; _sum_block relies on it")


def test_reused_buffers_carry_nothing_between_orders_or_blocks():
    # at the default block size, order 18 spans two full blocks and
    # every smaller order a slice of the same buffers; zeros only in the
    # late rows leave dead terms behind for no earlier order to see, and
    # h(18,1) = 0 kills the first term of the first order-18 block, so a
    # block that kept its predecessor's dead flags would lose every term
    rng = random.Random(61)
    m = make_matrix(18, [
        0j if (i, j) == (18, 1) or i > 14 and rng.random() < 0.3 else
        complex(rng.random(), rng.random())
        for i in range(1, 19) for j in range(1, row_length(18, i) + 1)])
    assert 2 * closed_form._BLOCK == sep_count(18)
    got = closed_form_prefixes(m)
    assert [repr(v) for v in got[1:]] == [
        repr(det_closed_form(leading_submatrix(m, k))) for k in range(1, 19)]
    assert repr(got[-1]) == repr(_per_term_sum(m))


def test_order_22_value_at_the_default_block_is_pinned():
    # 32 blocks of 2^16 terms that share 5 rows each: the repr pins
    # every bit of the float kernel at the default block size
    assert closed_form._BLOCK == 1 << 16
    m = random_float_matrix(22, random.Random(22))
    assert repr(det_closed_form(m)) == (
        "(0.22970767247159418+0.5570882478942893j)")


def test_order_19_prefixes_at_the_default_block_are_pinned():
    # orders 18 and 19 span 2 and 4 blocks; h(2,2) = 0 sits in a row
    # that order 19's blocks share and kills its last block, and about
    # one entry in seven of rows 5-19 is a zero that the free rows and
    # the last row meet; sha256 of every prefix's repr, one a line
    rng = random.Random(19)
    m = make_matrix(19, [
        0j if (i, j) == (2, 2) or i > 4 and rng.random() < 0.15 else
        complex(rng.random(), rng.random())
        for i in range(1, 20) for j in range(1, row_length(19, i) + 1)])
    text = "\n".join(map(repr, closed_form_prefixes(m)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "115371f91c50db7fe4d8a2853c0b8349364e03fac06c4ad39922a1b31bf9230b")


def test_order_24_value_at_the_default_sizes_is_pinned():
    # 128 blocks of 2^16 terms, each formed in two sub-blocks of 2^15;
    # the repr is the value of the kernel that formed every block whole
    assert closed_form._BLOCK == 1 << 16
    assert closed_form._SUB_BLOCK == 1 << 15
    m = random_float_matrix(24, random.Random(24))
    assert repr(det_closed_form(m)) == (
        "(0.007405291516356143-0.006075400737754349j)")


@pytest.mark.parametrize("block, sub", [(4, None), (64, None), (128, 64)],
                         ids=["4", "64", "128-sub64"])
def test_dead_blocks_add_zero_without_a_product(monkeypatch, block, sub):
    # a block whose shared rows hold a zero factor sums to exactly
    # +0+0j: it gathers nothing and multiplies nothing, and the value
    # keeps the bits of the per-term decode.  So does a sub-block whose
    # shared rows hold a zero inside a live block; with the default
    # sub-block size every block is one sub-block
    monkeypatch.setattr(closed_form, "_BLOCK", block)
    if sub is not None:
        monkeypatch.setattr(closed_form, "_SUB_BLOCK", sub)
    sub = min(block, closed_form._SUB_BLOCK)
    rng = random.Random(block + 3)
    matrices = [_float_matrix_with_zeros(order, rng)
                for order in range(8, 13) for _ in range(2)]
    wants = [repr(_per_term_sum(m)) for m in matrices]
    calls = []

    def spy(real):
        def counted(*args, **kwargs):
            calls.append(real)
            return real(*args, **kwargs)
        return counted

    def counted(record, real):
        def call(rows, zeros, n, start, *rest):
            before = len(calls)
            value = real(rows, zeros, n, start, *rest)
            record.append((start, len(calls) - before, value))
            return value
        return call

    blocks = []
    subs = []
    monkeypatch.setattr(np, "multiply", spy(np.multiply))
    monkeypatch.setattr(np, "take", spy(np.take))
    monkeypatch.setattr(closed_form, "_sum_block",
                        counted(blocks, closed_form._sum_block))
    monkeypatch.setattr(closed_form, "_sub_block_terms",
                        counted(subs, closed_form._sub_block_terms))

    def dead_starts(m, size):
        # the first m of each run of `size` terms, and whether the rows
        # the run shares hold a zero factor
        n = m.order
        shared = n - 1 - (size.bit_length() - 1)
        rows = signed_rows(m)
        return {start: any(row[col - 1] == 0 for row, col
                           in zip(rows, factors.columns[:shared]))
                for start, factors in enumerate_seps(n)
                if start % size == 0}

    dead_blocks = live_blocks = dead_subs_in_live = 0
    for m, want in zip(matrices, wants):
        blocks.clear()
        subs.clear()
        assert repr(det_closed_form(m)) == want
        block_dead = dead_starts(m, block)
        sub_dead = dead_starts(m, sub)
        assert [start for start, _, _ in blocks] == sorted(block_dead)
        for start, count, value in blocks:
            if block_dead[start]:
                dead_blocks += 1
                assert count == 0 and repr(value) == "0j"
            else:  # multiplies unless each of its sub-blocks is dead
                live_blocks += 1
                assert (count > 0) == any(not sub_dead[at] for at in
                                          range(start, start + block, sub))
        assert [start for start, _, _ in subs] == sorted(sub_dead)
        for start, count, terms in subs:
            if sub_dead[start]:
                assert count == 0 and terms is None
                dead_subs_in_live += not block_dead[start - start % block]
            else:
                assert count > 0 and terms is not None
    assert dead_blocks and live_blocks
    assert dead_subs_in_live or sub == block


@pytest.mark.parametrize("block", [4, 64])
def test_float_prefixes_have_each_leading_submatrix_bits(monkeypatch, block):
    # every prefix is summed from the whole matrix's signed rows, with
    # the bits of the closed form on its own leading submatrix; the
    # zero-factor-meets-overflow matrix must stay finite at every order
    monkeypatch.setattr(closed_form, "_BLOCK", block)
    rng = random.Random(block + 1)
    overflow = _overflow_matrix()
    matrices = [overflow] + [_float_matrix_with_zeros(order, rng)
                             for order in range(1, 11) for _ in range(3)]
    for m in matrices:
        got = closed_form_prefixes(m)
        assert got[0] == 1 and len(got) == m.order + 1
        assert [repr(v) for v in got[1:]] == [
            repr(det_closed_form(leading_submatrix(m, k)))
            for k in range(1, m.order + 1)]
    assert all(map(cmath.isfinite, closed_form_prefixes(overflow)))


def test_prefixes_refuse_above_the_cap_before_summing(monkeypatch):
    def no_sum(*args):
        raise AssertionError("a term was summed")

    monkeypatch.setattr(closed_form, "_gaussian_sums", no_sum)
    monkeypatch.setattr(closed_form, "_sum_block", no_sum)
    rng = random.Random(59)
    for m in (random_exact_matrix(5, rng), random_float_matrix(5, rng)):
        with pytest.raises(OrderTooLargeForClosedForm,
                           match="closed_form_cap=4"):
            closed_form_prefixes(m, closed_form_cap=4)
    with pytest.raises(OrderTooLargeForClosedForm):
        closed_form_prefixes(random_float_matrix(29, rng))


def test_exact_walk_skips_zero_subtrees_at_any_depth(capsys, tmp_path):
    # a zero superdiagonal leaves one nonzero term of 2^1099, the
    # diagonal product; the walk must neither recurse nor enter the
    # zero subtrees
    rng = random.Random(1100)
    rows = [[rng.choice((-2, -1, 1, 2)) if j == i else
             0 if j > i else rng.randint(-9, 9)
             for j in range(1, row_length(1100, i) + 1)]
            for i in range(1, 1101)]
    want = math.prod(row[i] for i, row in enumerate(rows))
    m = HessenbergMatrix(1100, rows)
    assert det_closed_form(m, closed_form_cap=2000) == want
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"order": 1100, "rows": rows}))
    assert main(["det", str(path), "--method", "closed",
                 "--closed-form-cap", "2000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"backend": "exact",
                                        "value": [want, 1, 0, 1]}


def test_float_closed_form_budget_at_order_22():
    m = random_float_matrix(22, random.Random(22))
    start = time.perf_counter()
    det_closed_form(m)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.4, f"order-22 float closed form took {elapsed:.2f}s"
