"""The counts and kernels the verification checks run on agree with the
routes they replace: every object with n <= 6, then seeded large ones."""

import random
from itertools import chain

import bruteforce as bf
from klazar import bijections, codes, matching_core, tree_core
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
