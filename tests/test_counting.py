from collections import Counter

import pytest
from hypothesis import given, strategies as st

import bruteforce as bf
from klazar.counting import (
    CountTable,
    bad_vertex_distribution,
    binomial,
    eq4_terms,
    no_upline_count,
    no_upline_refined,
    no_upline_refined2,
    odd_double_factorial,
    refined_tree_counts,
    refined_tree_counts4,
    stirling2,
    w12_sequence,
)
from klazar.matching_core import enumerate_matchings, uplines
from klazar.tree_core import enumerate_increasing_trees, klazar_violators, tree_stats


# ---------------------------------------------------------------------------
# scalar helpers


def test_odd_double_factorial_values():
    assert odd_double_factorial(-1) == 1
    assert odd_double_factorial(1) == 1
    assert odd_double_factorial(7) == 105
    assert odd_double_factorial(15) == 2027025
    for m in range(-1, 26, 2):
        assert odd_double_factorial(m) == bf.bf_odd_double_factorial(m)


def test_odd_double_factorial_rejects_bad_arguments():
    for m in (0, 2, 10, -3):
        with pytest.raises(ValueError):
            odd_double_factorial(m)


@given(st.integers(-5, 40), st.integers(-5, 40))
def test_binomial_matches_stdlib(n, k):
    assert binomial(n, k) == bf.bf_binomial(n, k)


def test_stirling_triangle():
    assert [stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    for n in range(7):
        for k in range(n + 2):
            assert stirling2(n, k) == bf.bf_stirling2(n, k)
    assert stirling2(10, 11) == 0
    assert stirling2(0, 0) == 1


# ---------------------------------------------------------------------------
# the violator-free tree sequence and the no-upline formulas


def test_w12_prefix():
    assert w12_sequence(7) == [1, 1, 2, 7, 35, 226, 1787, 16717]


def test_w12_counts_violator_free_trees():
    seq = w12_sequence(5)
    for n in range(6):
        got = sum(1 for t in enumerate_increasing_trees(n) if not klazar_violators(t))
        assert got == seq[n]


def test_no_upline_formula_equals_w12():
    seq = w12_sequence(10)
    for n in range(11):
        assert no_upline_count(n) == seq[n]


def test_no_upline_formula_counts_matchings():
    for n in range(6):
        got = sum(1 for m in enumerate_matchings(n) if not uplines(m))
        assert got == no_upline_count(n)


def test_refined_no_upline_splits():
    # n=3: the single all-vertical diagram plus six with one even-even pair
    assert no_upline_refined(3, 0) == 1
    assert no_upline_refined(3, 1) == 6
    assert no_upline_refined2(8, 2, 6) == 14625
    for n in range(9):
        for k in range(n // 2 + 1):
            total = sum(no_upline_refined2(n, k, j) for j in range(n + 1))
            assert total == no_upline_refined(n, k)


def test_eq4_term_vectors():
    assert eq4_terms(1) == (1, 0, 0)
    assert eq4_terms(2) == (1, 1, 0)
    assert eq4_terms(3) == (2, 4, 1)
    assert eq4_terms(4) == (7, 21, 7)
    seq = w12_sequence(8)
    for n in range(1, 9):
        assert sum(eq4_terms(n)) == seq[n]


# ---------------------------------------------------------------------------
# count tables


def test_count_table_get_and_ranges():
    tab = CountTable(2, {(0, 1): 5, (2, 3): 7})
    assert tab.ranges() == ((0, 2), (1, 3))


def test_count_table_json_roundtrip():
    tab = refined_tree_counts(4)
    back = CountTable.from_json(tab.to_json())
    assert back.entries == tab.entries
    assert back.dim == 3


def test_trivariate_table_against_tally():
    tab = refined_tree_counts(5)
    for n in range(6):
        tally = Counter()
        for t in enumerate_increasing_trees(n):
            s = tree_stats(t)
            tally[(n, len(s.klazar_violators), s.non_dt_leaves)] += 1
        level = {k: v for k, v in tab.entries.items() if k[0] == n}
        assert level == dict(tally)


def test_quadrivariate_marginal_is_trivariate():
    t3 = refined_tree_counts(5)
    t4 = refined_tree_counts4(5)
    margin = Counter()
    for (n, i, j, k), v in t4.entries.items():
        margin[(n, i, j)] += v
    assert dict(margin) == t3.entries


def test_quadrivariate_against_tally():
    tab = refined_tree_counts4(5)
    for n in range(6):
        tally = Counter()
        for t in enumerate_increasing_trees(n):
            s = tree_stats(t)
            tally[(n, len(s.klazar_violators), s.non_dt_leaves, s.leaves)] += 1
        level = {k: v for k, v in tab.entries.items() if k[0] == n}
        assert level == dict(tally)


def test_bad_vertex_rows():
    assert bad_vertex_distribution(1) == {1: 1}
    assert bad_vertex_distribution(2) == {1: 2, 2: 1}
    assert bad_vertex_distribution(3) == {1: 4, 2: 10, 3: 1}
    assert bad_vertex_distribution(4) == {1: 8, 2: 60, 3: 36, 4: 1}
    assert bad_vertex_distribution(5) == {1: 16, 2: 296, 3: 516, 4: 116, 5: 1}


def test_bad_vertex_rows_sum_to_double_factorial():
    for n in range(1, 6):
        assert sum(bad_vertex_distribution(n).values()) == bf.bf_odd_double_factorial(2 * n - 1)
