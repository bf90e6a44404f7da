import math
import random

import pytest
from hypothesis import given, strategies as st

import bruteforce as bf
from klazar import tree_core
from klazar.tree_core import (
    INFINITY,
    MarkedTree,
    Tree,
    associate,
    bad_vertices,
    big_cohort,
    check_increasing_tree,
    check_marked_tree,
    cohort,
    descent_terminators,
    enumerate_increasing_trees,
    enumerate_shapes,
    H_map,
    involution_F,
    klazar_violators,
    klazar_weighted_sum,
    pi_inverse,
    pi_leaf_map,
    prune_tree,
    reverse_bad_vertices,
    shape_edges,
    shape_leaves,
    shape_of,
    tables_of,
    tree_from_json,
    tree_from_text,
    tree_stats,
    tree_to_json,
    tree_to_text,
    violator_partners,
    w12_of_shape,
)


@st.composite
def words(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return tuple(draw(st.integers(1, 2 * k - 1)) for k in range(1, n + 1))


def tree_from_word(w):
    # the natural build: letter 2i appends left of child i, 2i+1 appends a child of i
    from klazar.codes import code_to_tree, trapezoidal_to_code

    return code_to_tree(trapezoidal_to_code(w))


# ---------------------------------------------------------------------------
# construction, validation, serialization


def test_text_roundtrip_examples():
    for s in ["0", "0(1)", "0(2,1)", "0(1(3),2)", "0(4,2(8,7,6(9)),5,1(3))"]:
        t = tree_from_text(s)
        assert tree_to_text(t) == s
        assert tree_from_json(tree_to_json(t)) == t


def test_text_rejects_garbage():
    for s in ["", "1", "0(", "0)", "0(1", "0(,1)", "0(1))", "x", "0(1)z"]:
        with pytest.raises(ValueError):
            check_increasing_tree(tree_from_text(s))


def test_validation_catches_bad_labelings():
    dup = Tree(((1, 1), ()))
    with pytest.raises(ValueError):
        check_increasing_tree(dup)
    gap = Tree(((2,), (), ()))
    with pytest.raises(ValueError):
        check_increasing_tree(gap)
    decreasing = Tree(((2,), (), (1,)))
    with pytest.raises(ValueError):
        check_increasing_tree(decreasing)
    # True reads as 1 and 1.0 compares equal to it, but neither can be a label
    for label in (True, 1.0):
        with pytest.raises(ValueError, match="is not an integer"):
            check_increasing_tree(Tree(((label,), ())))


def test_rows_that_are_not_tuples_are_refused_by_every_map():
    # a list row makes an unhashable tree unequal to its tuple twin; an int row is no row
    from klazar.bijections import Phi_recursive, phi_inverse, sigma

    for bad in (Tree([[1, 2], [], []]), Tree([(1,), [2], ()]), Tree([1, ()])):
        for f in (check_increasing_tree, sigma, Phi_recursive, phi_inverse, involution_F, prune_tree):
            with pytest.raises(ValueError, match="of the child table is not a tuple"):
                f(bad)


def test_an_order_fault_names_the_smallest_child_of_its_row():
    with pytest.raises(ValueError, match="child 1 does not exceed parent 3"):
        check_increasing_tree(tree_from_text("0(3(2,1))"))
    with pytest.raises(ValueError):  # two faults in one row: never a TypeError from comparing them
        check_increasing_tree(Tree(((1,), (0, "a"))))


@given(words())
def test_tables_roundtrip(w):
    t = tree_from_word(w)
    parent, children = tables_of(t)
    assert Tree(children) == t
    assert len(parent) == len(w) + 1 and parent[0] is None
    for v in range(1, len(parent)):
        assert parent[v] < v, "child labels must exceed the parent"


@given(words())
def test_text_json_roundtrip(w):
    t = tree_from_word(w)
    assert tree_from_text(tree_to_text(t)) == t
    assert tree_from_json(tree_to_json(t)) == t


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_match_double_factorial():
    for n in range(6):
        got = sum(1 for _ in enumerate_increasing_trees(n))
        assert got == bf.bf_odd_double_factorial(2 * n - 1)


def test_enumeration_matches_bruteforce_at_n4():
    lib = {tree_to_text(t) for t in enumerate_increasing_trees(4)}
    ora = set()
    for j in bf.bf_trees(4):
        ora.add(tree_to_text(tree_from_json(j)))
    assert lib == ora


def test_every_enumerated_tree_validates():
    for n in range(5):
        for t in enumerate_increasing_trees(n):
            assert check_increasing_tree(t) == n


def test_shapes_are_catalan_counted():
    # 1, 1, 2, 5, 14, 42
    for n, want in enumerate([1, 1, 2, 5, 14, 42]):
        assert sum(1 for _ in enumerate_shapes(n)) == want


def test_shape_of_projects_enumeration_onto_shapes():
    for n in range(5):
        shapes = set(enumerate_shapes(n))
        seen = {shape_of(t) for t in enumerate_increasing_trees(n)}
        assert seen == shapes
        for s in shapes:
            assert shape_edges(s) == n


# ---------------------------------------------------------------------------
# cohorts, violators, bad vertices


def test_cohort_and_associate_by_hand():
    t = tree_from_text("0(4,2(8,7,6(9)),5,1(3))")
    assert cohort(t, 2) == (4,)
    assert big_cohort(t, 2) == (4,)
    assert associate(t, 2) == 4
    assert cohort(t, 1) == (4, 2, 5)
    assert big_cohort(t, 1) == (4, 2, 5)
    assert associate(t, 1) == 2
    assert cohort(t, 4) == ()
    assert associate(t, 4) == INFINITY
    assert big_cohort(t, 6) == (8, 7)
    assert associate(t, 6) == 7


def test_violator_partner_table_by_hand():
    t = tree_from_text("0(4,2(8,7,6(9)),5,1(3))")
    assert set(klazar_violators(t)) == {1, 2, 6, 7}
    assert violator_partners(t) == {1: 5, 2: 6, 6: 9, 7: 8}


def test_vertex_statistics_against_bruteforce():
    for n in range(6):
        for t in enumerate_increasing_trees(n):
            j = tree_to_json(t)
            assert set(klazar_violators(t)) == bf.bf_violators(j)
            assert set(bad_vertices(t)) == bf.bf_bad(j)
            assert set(reverse_bad_vertices(t)) == bf.bf_reverse_bad(j)


@given(words(max_n=8))
def test_vertex_statistics_against_bruteforce_random(w):
    t = tree_from_word(w)
    j = tree_to_json(t)
    assert set(klazar_violators(t)) == bf.bf_violators(j)
    assert set(bad_vertices(t)) == bf.bf_bad(j)


def test_tree_stats_is_selfconsistent():
    for n in range(1, 6):
        for t in enumerate_increasing_trees(n):
            s = tree_stats(t)
            assert s.leaves + s.nodes == n, "every nonroot vertex is a leaf or a node"
            assert s.non_dt_leaves <= s.leaves
            assert set(s.klazar_violators) <= set(range(1, n + 1))
            dts = descent_terminators(t)
            assert s.descent_terminators == dts
            parent, children = tables_of(t)
            leaf_set = {v for v in range(1, len(parent)) if not children[v]}
            assert s.non_dt_leaves == len(leaf_set - dts)


def test_tree_stats_matches_the_standalone_functions():
    rng = random.Random(100)
    large = [tree_from_word([rng.randint(1, 2 * k - 1) for k in range(1, 101)]) for _ in range(20)]
    small = (t for n in range(7) for t in enumerate_increasing_trees(n))
    for t in [*small, *large]:
        s = tree_stats(t)
        dts = descent_terminators(t)
        _, children = tables_of(t)  # the root is a leaf only when n = 0
        assert s.leaves == shape_leaves(shape_of(t))
        assert s.nodes == sum(1 for v in range(len(children)) if v and children[v])
        assert s.klazar_violators == klazar_violators(t)
        assert s.bad == bad_vertices(t)
        assert s.reverse_bad == reverse_bad_vertices(t)
        assert s.descent_terminators == dts
        assert s.non_dt_leaves == sum(1 for v in range(len(children)) if not children[v] and v not in dts)


def test_root_only_tree_counts_one_leaf():
    s = tree_stats(tree_from_text("0"))
    assert s.leaves == 1 and s.nodes == 0


def test_descent_terminators_have_nonempty_big_cohort():
    for t in enumerate_increasing_trees(4):
        dts = descent_terminators(t)
        parent, _ = tables_of(t)
        for v in range(1, len(parent)):
            assert (v in dts) == (len(big_cohort(t, v)) > 0)


# ---------------------------------------------------------------------------
# the involution F and the leaf maps


def test_F_is_an_involution():
    for n in range(1, 6):
        for t in enumerate_increasing_trees(n):
            assert involution_F(involution_F(t)) == t
    with pytest.raises(ValueError):
        involution_F(tree_from_text("0"))


@given(words(max_n=8).filter(bool))
def test_F_is_an_involution_random(w):
    t = tree_from_word(w)
    assert involution_F(involution_F(t)) == t


def test_F_flips_status_of_right_neighbour_of_max():
    for n in range(2, 6):
        for t in enumerate_increasing_trees(n):
            parent, children = tables_of(t)
            sibs = children[parent[n]]
            pos = sibs.index(n)
            if pos == len(sibs) - 1:
                assert involution_F(t) == t
                continue
            j = sibs[pos + 1]
            before = j in klazar_violators(t)
            ft = involution_F(t)
            degenerate = before and associate(t, j) == n
            after = j in klazar_violators(ft)
            if degenerate:
                assert ft == t
            else:
                assert after != before


def test_H_by_hand():
    t = tree_from_text("0(4,2(8,7,6(9)),5,1(3))")
    assert H_map(t, 3) == 3
    assert H_map(t, 4) == 4
    assert H_map(t, 5) == 1
    assert H_map(t, 8) == 7
    assert H_map(t, 9) == 2


def test_H_bijects_compliers_onto_nonpartners():
    for n in range(1, 6):
        for t in enumerate_increasing_trees(n):
            partners = set(violator_partners(t).values())
            violators = set(klazar_violators(t))
            compliers = [v for v in range(1, n + 1) if v not in violators]
            images = [H_map(t, v) for v in compliers]
            assert len(set(images)) == len(images)
            assert set(images) == set(range(1, n + 1)) - partners
            # the chain walked through the whole partner-to-violator table
            back = {w: u for u, w in violator_partners(t).items()}
            for v, h in zip(compliers, images):
                while v in back:
                    v = back[v]
                assert h == v
            for v in violators:
                with pytest.raises(ValueError):
                    H_map(t, v)


def test_prune_removes_the_top_label():
    for t in enumerate_increasing_trees(4):
        p = prune_tree(t)
        assert check_increasing_tree(p) == 3
    with pytest.raises(ValueError):
        prune_tree(tree_from_text("0"))


def test_pi_maps_are_inverse_on_reverse_bad_vertices():
    for n in range(1, 6):
        for t in enumerate_increasing_trees(n):
            for v in reverse_bad_vertices(t):
                leaf = pi_inverse(t, v)
                assert pi_leaf_map(t, leaf) == v


# ---------------------------------------------------------------------------
# weighted sums over shapes


def test_w12_of_shape_agrees_with_filtered_enumeration():
    for n in range(8):
        tally = {}
        for t in enumerate_increasing_trees(n):
            if not klazar_violators(t):
                s = shape_of(t)
                tally[s] = tally.get(s, 0) + 1
        for s in enumerate_shapes(n):
            assert w12_of_shape(s) == tally.get(s, 0)


def test_labelings_are_every_increasing_labeling_once():
    # hook-length count: a shape with n edges has n! / prod(non-root subtree
    # sizes) increasing labelings, violators or not
    def hooks(s):
        return math.prod(shape_edges(c) + 1 for c in s) * math.prod(map(hooks, s))

    for n in range(7):
        for s in enumerate_shapes(n):
            tables = [tuple(t) for t in tree_core._labelings(s, n)]
            assert len(set(tables)) == len(tables) == math.factorial(n) // hooks(s)
            for t in tables:
                assert check_increasing_tree(Tree(t)) == n
                assert shape_of(Tree(t)) == s


def test_weighted_sum_hits_the_double_factorial():
    for n in range(1, 6):
        assert klazar_weighted_sum(n) == bf.bf_odd_double_factorial(2 * n - 1)
    with pytest.raises(ValueError):
        klazar_weighted_sum(0)


def test_shape_leaves_matches_stats():
    for t in enumerate_increasing_trees(4):
        assert shape_leaves(shape_of(t)) == tree_stats(t).leaves


# ---------------------------------------------------------------------------
# marked trees


def test_marked_tree_validation():
    t = tree_from_text("0(1(2))")
    assert check_marked_tree(MarkedTree(t, frozenset({1}))) == 2
    with pytest.raises(ValueError):
        check_marked_tree(MarkedTree(t, frozenset({2})))  # leaf
    with pytest.raises(ValueError):
        check_marked_tree(MarkedTree(t, frozenset({0})))  # root
    with pytest.raises(ValueError):
        check_marked_tree(MarkedTree(t, frozenset({9})))  # absent
    violating = tree_from_text("0(2,1)")
    with pytest.raises(ValueError):
        check_marked_tree(MarkedTree(violating, frozenset()))


def test_true_is_not_a_vertex_label():
    # bool subclasses int and True == 1, so a label is checked by its type;
    # each call below succeeds with 1 in place of True
    for f, text in ((cohort, "0(1(2))"), (big_cohort, "0(2,1)"), (associate, "0(2,1)"),
                    (H_map, "0(1(2))"), (pi_leaf_map, "0(2,1)"), (pi_inverse, "0(2,1(3))")):
        t = tree_from_text(text)
        f(t, 1)
        with pytest.raises(ValueError):
            f(t, True)
    t = tree_from_text("0(1(2))")
    with pytest.raises(ValueError):
        check_marked_tree(MarkedTree(t, frozenset({True})))


def test_marked_universe_size_is_double_factorial():
    for n in range(5):
        got = sum(1 for _ in bf.bf_marked_klazar(n))
        assert got == bf.bf_odd_double_factorial(2 * n - 1)
