"""The counts and kernels the verification checks run on agree with the
routes they replace: every object with n <= 6, then seeded large ones."""

import random
from itertools import chain

import bruteforce as bf
from klazar import bijections, checks, codes, matching_core, tree_core
from klazar.codes import enumerate_words
from klazar.matching_core import enumerate_matchings, uplines
from klazar.tree_core import bad_vertices, enumerate_increasing_trees, tree_to_json


def seeded_words_at_n200():
    rng = random.Random(200)
    return [tuple(rng.randint(1, 2 * k - 1) for k in range(1, 201)) for _ in range(20)]


def all_trees_then_seeded_trees_at_n200():
    large = (codes.code_to_tree(codes.trapezoidal_to_code(w)) for w in seeded_words_at_n200())
    return chain((t for n in range(7) for t in enumerate_increasing_trees(n)), large)


def seeded_no_upline_matchings_at_n500():
    """20 seeded upline-free matchings at n = 500: tau of a code in which
    every (T, i) has even multiplicity has no upline."""
    rng = random.Random(501)
    out = []
    for _ in range(20):
        code = [("B", rng.randint(1, k)) for k in range(1, 501)]
        steps = rng.sample(range(2, 501), 300)
        for k1, k2 in zip(steps[::2], steps[1::2]):
            code[k1 - 1] = code[k2 - 1] = ("T", rng.randint(1, min(k1, k2) - 1))
        out.append(bijections.tau(code))
    return out


def test_word_parity_kernel_agrees_with_the_oracle():
    for w in chain((w for n in range(7) for w in enumerate_words(n)), seeded_words_at_n200()):
        assert codes._word_parity_stats(w) == bf.bf_word_parity(w)


def test_bad_and_violator_kernels_agree_with_the_oracles():
    for t in all_trees_then_seeded_trees_at_n200():
        bad = tree_core._bad(t.kids, False)
        assert len(bad) == len(bad_vertices(t)) == len(bf.bf_bad(tree_to_json(t)))
        assert set(bad) == bf.bf_bad(tree_to_json(t))
        assert set(tree_core._bad(t.kids, True)) == bf.bf_reverse_bad(tree_to_json(t))
        assert tree_core._klazar_violators(t.kids) == tuple(sorted(bf.bf_violators(tree_to_json(t))))


def test_compose_kernel_inverts_the_decompose_kernel():
    small = [m for n in range(7) for m in enumerate_matchings(n) if not uplines(m)]
    large = seeded_no_upline_matchings_at_n500()
    for m in [*small, *large]:
        parts = matching_core._decompose(m)
        assert parts == matching_core.decompose_no_upline(m)
        assert matching_core._compose(*parts) == matching_core.compose_no_upline(*parts) == m
    large_parts = [matching_core._decompose(m) for m in large]
    assert all(even.n and stirling.edges for even, _, stirling, _ in large_parts)
    assert any(power.edges for *_, power in large_parts)


def test_class_split_runs_on_kernels_only(monkeypatch):
    for name in ("recurrence_class", "class2_reduce", "class2_expand", "class3_reduce",
                 "class3_expand", "enlarge", "prune_matching"):
        monkeypatch.setattr(matching_core, name, None)  # a call to any of them raises
    assert checks.check_class_split(6) == (True, None, [])


# Planted faults: each one changes a few outputs at a size the checks
# reach, and the check that guards the route fails with a counterexample.


def test_a_relabelled_class3_reduction_fails_class_split(monkeypatch):
    dots = matching_core._class3_dots

    def swapped(n, j, i, mids):  # each kept (top, bottom) pair swapped, in reduce and expand alike
        old = dots(n, j, i, mids)
        return [0, *(x for pair in zip(old[2::2], old[1::2]) for x in pair)]

    monkeypatch.setattr(matching_core, "_class3_dots", swapped)
    passed, counterexample, _ = checks.check_class_split(6)
    assert not passed and counterexample["class"] == 3
    # the round trip alone cannot see it: the images leave the upline-free diagrams
    p = matching_core.Matching.from_json(counterexample["matching"]).partner
    small, X = matching_core._class3_reduce(p)
    assert matching_core._class3_expand(small, sorted(X)) == p
    assert matching_core._parity_pairs(small)[0]


def test_a_dropped_bad_vertex_fails_theorem2(monkeypatch):
    bad = tree_core._bad

    def drop_one(children, reverse):  # the one tree with 4 edges and 3 bad vertices loses one
        out = bad(children, reverse)
        return out[1:] if len(children) == 5 and len(out) == 3 else out

    monkeypatch.setattr(tree_core, "_bad", drop_one)
    passed, counterexample, _ = checks.check_theorem2(6)
    assert not passed and counterexample["n"] == 4


def test_a_skipped_complier_move_in_the_delete_step_fails_sigma_and_Phi(monkeypatch):
    step = tree_core._delete_step

    def no_complier_move(parent, children, k):  # k's complier right neighbour keeps its children
        sibs = children[parent[k]]
        pos = sibs.index(k)
        if pos + 1 < len(sibs) and not tree_core._is_violator(parent, children, sibs[pos + 1]):
            return tree_core._remove_largest(parent, children, k), False
        return step(parent, children, k)

    monkeypatch.setattr(bijections, "_delete_step", no_complier_move)
    passed, counterexample, _ = checks.check_sigma(5)
    assert not passed and counterexample["n"] == 3  # 0(3,1(2)) is the first complier case
    passed, counterexample, _ = checks.check_Phi_equality(5)  # Phi_recursive reads a wrong partner
    assert not passed and counterexample["tree"] == tree_to_json(tree_core.tree_from_text("0(3,1(2))"))


def test_a_skipped_violator_move_in_the_insert_step_fails_sigma(monkeypatch):
    step = tree_core._insert_step

    def no_violator_move(parent, children, k, a):  # a violator keeps its big cohort when k joins it
        p, sibs = tree_core._insert(parent, children, k, a)
        if a % 2 == 0 and not tree_core._is_violator(parent, children, a // 2):
            children[p] = sibs  # a complier: undo, and let the real step move its children
            del parent[k], children[k]
            step(parent, children, k, a)

    monkeypatch.setattr(bijections, "_insert_step", no_violator_move)
    passed, counterexample, _ = checks.check_sigma(5)
    assert not passed and counterexample["n"] == 3
