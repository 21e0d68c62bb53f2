import ast
import inspect
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from haarint import tableaux
from haarint.tableaux import Tableau

from helpers import (
    admissible_words_by_recursion, brute_gl_dimension, brute_row_stabilizer,
    brute_standard_count, class_size, count_distinct_entry_fillings, gelfand_counts,
    row_repetition_factor, weyl_gl_dimension, weyl_o_dimension, weyl_sp_dimension,
    young_constant_mu,
)


@st.composite
def partition_strategy(draw, max_weight=6):
    total = draw(st.integers(min_value=1, max_value=max_weight))
    parts = []
    while total > 0:
        p = draw(st.integers(min_value=1, max_value=total))
        if parts and p > parts[-1]:
            p = parts[-1]
        parts.append(p)
        total -= p
    return tuple(parts)


def test_conjugate():
    assert tableaux.conjugate((3, 1)) == (2, 1, 1)
    assert tableaux.conjugate((2, 2)) == (2, 2)
    assert tableaux.conjugate((1, 1, 1)) == (3,)


def test_shape_parts_must_be_integers():
    # a float part was once truncated: [2.7, 1] read as (2, 1)
    for bad in ([2.7, 1], [2, 1.0], ["2"], [True]):
        with pytest.raises(ValueError, match="shape part must be an integer"):
            tableaux.check_shape(bad)
    shape = tableaux.check_shape([np.int64(2), np.int32(1)])
    assert shape == (2, 1) and all(type(p) is int for p in shape)


def test_alphabets():
    assert tableaux.gl_alphabet(3) == [1, 2, 3]
    assert tableaux.o_alphabet(4) == [-1, 1, -2, 2]
    assert tableaux.o_alphabet(3) == [-1, 1, 0]
    assert tableaux.sp_alphabet(2) == [-1, 1, -2, 2]


def test_gl_enumeration_small():
    ts = tableaux.enumerate_gl_tableaux((2,), 2)
    assert [t.rows for t in ts] == [[[1, 1]], [[1, 2]], [[2, 2]]]
    assert len(tableaux.enumerate_gl_tableaux((1, 1), 2)) == 1
    assert tableaux.enumerate_gl_tableaux((1, 1, 1), 2) == []


def test_gl_count_matches_weyl_product():
    for shape in [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (2, 1, 1)]:
        for n in range(1, 5):
            assert brute_gl_dimension(shape, n) == tableaux.gl_dimension(shape, n)


def test_o_enumeration_known():
    ts = tableaux.enumerate_o_tableaux((1,), 3)
    assert sorted(t.rows[0][0] for t in ts) == [-1, 0, 1]
    ts = tableaux.enumerate_o_tableaux((2,), 2)
    assert [t.rows for t in ts] == [[[-1, -1]], [[1, 1]]]
    # dimension of the two-row-cell module of O(3) is 5
    assert len(tableaux.enumerate_o_tableaux((2,), 3)) == 5
    # single-column shapes give exterior powers
    assert len(tableaux.enumerate_o_tableaux((1, 1), 3)) == 3
    assert len(tableaux.enumerate_o_tableaux((1, 1, 1), 3)) == 1


def test_o_shape_precondition():
    with pytest.raises(ValueError):
        tableaux.enumerate_o_tableaux((1, 1, 1), 2)


def test_sp_enumeration_known():
    ts = tableaux.enumerate_sp_tableaux((1,), 1)
    assert [t.rows[0][0] for t in ts] == [-1, 1]
    assert len(tableaux.enumerate_sp_tableaux((1,), 2)) == 4
    # Sp(4): traceless two-form has dimension 5, symmetric square 10
    assert len(tableaux.enumerate_sp_tableaux((1, 1), 2)) == 5
    assert len(tableaux.enumerate_sp_tableaux((2,), 2)) == 10
    with pytest.raises(ValueError):
        tableaux.enumerate_sp_tableaux((1, 1), 1)


def test_standard_count_known():
    table = {
        (1,): 1,
        (2,): 1,
        (1, 1): 1,
        (2, 1): 2,
        (2, 2): 2,
        (3, 1): 3,
        (2, 1, 1): 3,
        (3, 2): 5,
        (2, 2, 1): 5,
    }
    for shape, expected in table.items():
        assert tableaux.count_standard_tableaux(shape) == expected


@settings(max_examples=40, deadline=None)
@given(partition_strategy())
def test_standard_count_matches_bruteforce(shape):
    assert tableaux.count_standard_tableaux(shape) == brute_standard_count(shape)


def all_partitions(total, cap=None):
    """The partitions of total with parts at most cap, descending."""
    if total == 0:
        yield ()
        return
    for p in range(min(total, total if cap is None else cap), 0, -1):
        for rest in all_partitions(total - p, p):
            yield (p,) + rest


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=5))
def test_standard_count_square_sum(m):
    # sum of squared counts over all weight-m shapes is m!
    total = sum(tableaux.count_standard_tableaux(s) ** 2
                for s in all_partitions(m))
    assert total == math.factorial(m)


@pytest.mark.parametrize("m", range(1, 9))
def test_character_at_the_identity_counts_standard_tableaux(m):
    for shape in all_partitions(m):
        assert tableaux.character(shape, (1,) * m) == tableaux.count_standard_tableaux(shape)


@pytest.mark.parametrize("m", range(1, 9))
def test_character_rows_are_orthonormal(m):
    # Σ_μ χ^λ(μ) χ^ν(μ) / z_μ = δ_λν, as Σ_μ |class μ| χ^λ(μ) χ^ν(μ) = m! δ_λν;
    # m = 8 holds the S_8 characters of the O/Sp class weights at q = 4
    shapes = list(all_partitions(m))
    sizes = [class_size(mu) for mu in shapes]
    table = [[tableaux.character(lam, mu) for mu in shapes] for lam in shapes]
    for i, row in enumerate(table):
        for j, other in enumerate(table):
            assert sum(z * a * b for z, a, b in zip(sizes, row, other)) == \
                (math.factorial(m) if i == j else 0)


def test_character_values():
    # S_3: the trivial, sign and standard characters at (1^3), (2, 1), (3)
    assert [tableaux.character((3,), mu) for mu in [(1, 1, 1), (2, 1), (3,)]] == [1, 1, 1]
    assert [tableaux.character((1, 1, 1), mu) for mu in [(1, 1, 1), (2, 1), (3,)]] == [1, -1, 1]
    assert [tableaux.character((2, 1), mu) for mu in [(1, 1, 1), (2, 1), (3,)]] == [2, 0, -1]
    # a cycle type read in any order
    assert tableaux.character((2, 2), (1, 2, 1)) == tableaux.character((2, 2), (2, 1, 1)) == 0
    with pytest.raises(ValueError):
        tableaux.character((2, 1), (2, 2))


def test_distinct_entry_count_exposed():
    assert count_distinct_entry_fillings((2, 1), 3) == 2
    assert count_distinct_entry_fillings((2, 1), 4) == 0


def test_young_constant():
    assert young_constant_mu((2, 1)) == 3
    assert young_constant_mu((2,)) == 2
    assert young_constant_mu((1, 1)) == 2
    assert young_constant_mu((2, 2)) == 12


def test_gelfand_counts():
    t = Tableau([[1, 1]])
    assert gelfand_counts(t, 2) == {(1, 1): 2, (1, 2): 2, (2, 2): 0}
    t = Tableau([[1, 2]])
    assert gelfand_counts(t, 2) == {(1, 1): 1, (1, 2): 2, (2, 2): 0}


def test_row_repetition_factor_known():
    assert row_repetition_factor(Tableau([[1, 1]]), 2) == 2
    assert row_repetition_factor(Tableau([[1, 2]]), 2) == 1
    assert row_repetition_factor(Tableau([[1, 1, 2], [2, 2]]), 3) == 4


def test_row_repetition_factor_is_stabilizer_count():
    for shape in [(2,), (2, 1), (3, 2)]:
        for n in (2, 3):
            for t in tableaux.enumerate_gl_tableaux(shape, n):
                assert row_repetition_factor(t, n) == brute_row_stabilizer(t)


def test_enumeration_is_lexicographic():
    for ts in (tableaux.enumerate_gl_tableaux((2, 1), 3),
               tableaux.enumerate_o_tableaux((2,), 3),
               tableaux.enumerate_sp_tableaux((2,), 2)):
        keys = [t.row_major() for t in ts]
        assert keys == sorted(keys, key=lambda k: [abs(x) * 2 - (x < 0) if x else 10 ** 9 for x in k])


ENUMERATION_GRID = (
    [(tableaux.enumerate_gl_tableaux, shape, n)
     for shape in [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (2, 1, 1)] for n in range(1, 5)]
    + [(tableaux.enumerate_o_tableaux, shape, n)
       for shape, n in [((1,), 3), ((2,), 2), ((2,), 3), ((1, 1), 3), ((1, 1, 1), 3)]]
    + [(tableaux.enumerate_sp_tableaux, shape, n)
       for shape, n in [((1,), 1), ((1,), 2), ((1, 1), 2), ((2,), 2)]])


@pytest.mark.parametrize("enumerate_,shape,n", ENUMERATION_GRID)
def test_enumerated_tableaux_are_the_checked_ones(enumerate_, shape, n):
    # the enumerators build tableaux without re-checking the shape; each
    # equals Tableau(rows) built the checked way, and owns its rows
    ts = enumerate_(shape, n)
    for t in ts:
        checked = Tableau(t.rows)
        assert t == checked
        assert (t.rows, t.shape) == (checked.rows, checked.shape) and t.shape == shape
    rows = [row for t in ts for row in t.rows]
    assert len({id(row) for row in rows}) == len(rows)


def test_gl_dimension_weyl_values():
    assert tableaux.gl_dimension((1,), 3) == 3
    assert tableaux.gl_dimension((2, 1), 3) == 8
    assert tableaux.gl_dimension((3,), 2) == 4
    assert tableaux.gl_dimension((1, 1, 1), 3) == 1
    assert tableaux.gl_dimension((2, 1), 1) == 0


def test_o_and_sp_dimension_known_values():
    # the values bench/test_bench.py fixes for the oracle's Weyl formulas
    assert [tableaux.o_dimension((k,), 3) for k in range(1, 5)] == [3, 5, 7, 9]
    assert tableaux.o_dimension((1, 1), 3) == 3 and tableaux.o_dimension((1, 1, 1), 3) == 1
    assert tableaux.o_dimension((2, 1), 3) == 5  # (2) twisted by the determinant
    assert tableaux.o_dimension((1,), 2) == 2 and tableaux.o_dimension((3,), 2) == 2
    assert tableaux.o_dimension((1, 1), 2) == 1
    assert tableaux.o_dimension((1, 1), 4) == 6 and tableaux.o_dimension((2, 1), 4) == 16
    assert tableaux.sp_dimension((1,), 2) == 4 and tableaux.sp_dimension((1, 1), 2) == 5
    assert tableaux.sp_dimension((2,), 2) == 10 and tableaux.sp_dimension((3,), 1) == 4
    assert tableaux.sp_dimension((2, 1), 2) == 16
    assert tableaux.o_dimension((), 5) == tableaux.sp_dimension((), 3) == 1
    with pytest.raises(ValueError):
        tableaux.o_dimension((2, 2), 3)
    with pytest.raises(ValueError):
        tableaux.sp_dimension((1, 1, 1), 2)


@settings(max_examples=150, deadline=None)
@given(partition_strategy(max_weight=8), st.integers(min_value=1, max_value=40))
def test_o_and_sp_dimensions_are_the_weyl_products(shape, n):
    # the El Samra-King cell products equal Weyl's formulas over the rows,
    # with O's associate, parity and counted-twice cases, and refuse the
    # same shapes
    for fast, weyl in ((tableaux.o_dimension, weyl_o_dimension),
                       (tableaux.sp_dimension, weyl_sp_dimension)):
        try:
            expected = weyl(shape, n)
        except ValueError:
            with pytest.raises(ValueError):
                fast(shape, n)
            continue
        assert fast(shape, n) == expected, (fast.__name__, shape, n)


def test_o_and_sp_dimensions_huge_n():
    # |shape| factors at any n: Weyl's formula over n rows would not end
    n = 10 ** 12
    assert tableaux.sp_dimension((1,), n) == 2 * n
    assert tableaux.o_dimension((2,), n) == n * (n + 1) // 2 - 1
    assert tableaux.sp_dimension((1, 1), n) == n * (2 * n - 1) - 1


@settings(max_examples=60, deadline=None)
@given(partition_strategy(max_weight=8), st.integers(min_value=1, max_value=40))
def test_gl_dimension_is_the_weyl_product(shape, n):
    # the hook-content product equals Weyl's formula, and stays cheap at
    # any n
    assert tableaux.gl_dimension(shape, n) == weyl_gl_dimension(shape, n)


def test_gl_dimension_huge_n():
    n = 10 ** 12
    assert tableaux.gl_dimension((2, 1), n) == n * (n * n - 1) // 3


@pytest.mark.parametrize("group", ["U", "O", "Sp"])
def test_admissible_words_are_the_recursive_walk(group):
    # the one loop gives the words of the recursive walk, in its order, on
    # every shape of weight <= 5 with N <= 5, and refuses the same shapes
    for m in range(6):
        for shape in all_partitions(m):
            for n in range(1, 6):
                try:
                    expected = admissible_words_by_recursion(group, shape, n)
                except ValueError:
                    with pytest.raises(ValueError):
                        tableaux.admissible_words(group, shape, n)
                    continue
                assert tableaux.admissible_words(group, shape, n) == expected, (shape, n)


def test_walker_is_one_loop():
    # no call of itself and no yield from: the depth of the walk is not
    # bounded by the interpreter's recursion limit
    tree = ast.parse(inspect.getsource(tableaux._semistandard_fillings))
    assert not any(isinstance(node, ast.YieldFrom) for node in ast.walk(tree))
    assert not any(isinstance(node, ast.Name) and node.id == "_semistandard_fillings"
                   for node in ast.walk(tree))
    assert not hasattr(tableaux, "_sp_words")
    column = (1,) * 1500
    assert tableaux.admissible_words("U", column, 1500) == [tuple(range(1, 1501))]
    assert tableaux.admissible_words("U", (3000,), 1) == [(1,) * 3000]


def test_walker_enters_no_dead_branch():
    # a cell leaves room below it in its column: a column of 200 boxes over
    # 200 letters has one filling, found without trying the 2^200 prefixes
    # of strictly increasing letters that a walk with no look-ahead tries
    words = list(tableaux._semistandard_fillings((1,) * 200, list(range(200))))
    assert words == [tuple(range(200))]
    assert list(tableaux._semistandard_fillings((1,) * 201, list(range(200)))) == []


def test_o_family_builds_no_rejected_tableau(monkeypatch):
    # the O test reads the word: a tableau is built only for a filling
    # that is kept, and admissible_words builds none
    built = []
    of_shape = Tableau._of_shape.__func__

    def counting(cls, rows, shape):
        built.append(rows)
        return of_shape(cls, rows, shape)

    monkeypatch.setattr(Tableau, "_of_shape", classmethod(counting))
    kept = tableaux.enumerate_o_tableaux((2, 1), 4)
    assert len(built) == len(kept) == tableaux.o_dimension((2, 1), 4)
    assert tableaux.gl_dimension((2, 1), 4) > len(kept)  # fillings were rejected
    built.clear()
    tableaux.admissible_words("O", (2, 1), 4)
    assert built == []


@pytest.mark.parametrize("m", range(1, 9))
def test_conjugate_counts_the_longer_rows(m):
    assert tableaux.conjugate(()) == ()
    for shape in all_partitions(m):
        assert tableaux.conjugate(shape) == tuple(
            sum(1 for p in shape if p > j) for j in range(shape[0]))


def test_o_shape_check_reads_two_columns():
    # the first two column lengths, without building the whole conjugate
    with pytest.raises(ValueError):
        tableaux.check_group_shape("O", (10 ** 20,), 1)
    assert tableaux.check_group_shape("O", (10 ** 20,), 2) == (10 ** 20,)
    with pytest.raises(ValueError):
        tableaux.check_group_shape("O", (5, 2, 1), 4)
    assert tableaux.check_group_shape("O", (5, 2, 1), 5) == (5, 2, 1)


def test_gl_dimension_of_long_rows_is_cheap():
    # full columns drop out, and Weyl's formula over the rows takes over
    # where n^2 is below the weight: these took seconds as hook-content
    # products over every cell
    start = time.perf_counter()
    assert tableaux.gl_dimension((50000, 50000), 2) == 1
    assert tableaux.gl_dimension((300000,), 1) == 1
    assert tableaux.gl_dimension((1,) * 1500, 1500) == 1
    assert tableaux.gl_dimension((100000,), 2) == 100001
    assert tableaux.gl_dimension((100000, 99998), 2) == 3
    assert tableaux.gl_dimension((10 ** 20,), 3) == math.comb(10 ** 20 + 2, 2)
    assert tableaux.gl_dimension_bits((50000, 50000), 2) == 0
    assert time.perf_counter() - start < 1


@settings(max_examples=80, deadline=None)
@given(partition_strategy(max_weight=30), st.integers(min_value=1, max_value=7))
def test_gl_dimension_branches_are_the_weyl_product(shape, n):
    # both branches, with full columns dropped or not, against the Weyl
    # product on the whole shape; the dimension fits the bits bound
    dim = tableaux.gl_dimension(shape, n)
    assert dim == weyl_gl_dimension(shape, n)
    if len(shape) <= n:
        assert dim.bit_length() <= max(1, tableaux.gl_dimension_bits(shape, n))
