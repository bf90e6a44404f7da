import random
from collections import Counter
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

import bruteforce as bf
from klazar import bijections, checks, codes, tree_core
from klazar.bijections import (
    Phi_explicit,
    Phi_recursive,
    phi,
    phi_inverse,
    sigma,
    sigma_inverse,
    tau,
    tau_inverse,
    tau_variant,
)
from klazar.codes import (
    code_to_matching,
    code_to_trapezoidal,
    code_to_tree,
    enumerate_match_codes,
    enumerate_tree_codes,
    enumerate_words,
    matchcode_to_treecode,
    matching_to_code,
    trapezoidal_to_code,
    tree_to_code,
    treecode_to_matchcode,
    validate_match_code,
    validate_tree_code,
    validate_word,
)
from klazar.matching_core import Matching, enumerate_matchings, matching_from_text, shift_S, uplines
from klazar.tree_core import (
    MarkedTree,
    check_marked_tree,
    enumerate_increasing_trees,
    klazar_violators,
    reverse_bad_vertices,
    tables_of,
    tree_from_text,
    violator_partners,
)


@st.composite
def words(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return tuple(draw(st.integers(1, 2 * k - 1)) for k in range(1, n + 1))


def tree_of(w):
    return code_to_tree(trapezoidal_to_code(w))


def random_match_code(rng, n):
    """The matching code of a uniform trapezoidal word of length n."""
    return treecode_to_matchcode(trapezoidal_to_code([rng.randint(1, 2 * k - 1) for k in range(1, n + 1)]))


def parity_statistics(c, m):
    """((T letters, B letters) of odd multiplicity in c,
    (even-to-odd pairs, odd-to-even pairs) of m)."""
    t_odd = sum(1 for i, k in Counter(i for Y, i in c if Y == "T").items() if k % 2)
    b_odd = sum(1 for i, k in Counter(i for Y, i in c if Y == "B").items() if k % 2)
    e2o = sum(1 for a, b_ in m.pairs() if a % 2 == 0 and b_ % 2 == 1)
    o2e = sum(1 for a, b_ in m.pairs() if a % 2 == 1 and b_ % 2 == 0)
    return (t_odd, b_odd), (e2o, o2e)


def marked_universe(n):
    for t in enumerate_increasing_trees(n):
        if klazar_violators(t):
            continue
        _, children = tables_of(t)
        interior = [v for v in range(len(children)) if v != 0 and children[v]]
        for r in range(len(interior) + 1):
            for marks in combinations(interior, r):
                yield MarkedTree(t, frozenset(marks))


# ---------------------------------------------------------------------------
# phi: marked violator-free trees onto plain trees


def test_phi_fixed_points_are_unmarked_trees():
    for n in range(5):
        for t in enumerate_increasing_trees(n):
            if not klazar_violators(t):
                assert phi(MarkedTree(t, frozenset())) == t


def test_phi_by_hand():
    mt = MarkedTree(tree_from_text("0(1(3),2)"), frozenset({1}))
    assert phi(mt) == tree_from_text("0(3,1,2)")
    assert phi_inverse(tree_from_text("0(3,1,2)")) == mt


def test_phi_is_a_bijection_with_the_right_marks():
    for n in range(5):
        images = set()
        for mt in marked_universe(n):
            img = phi(mt)
            assert set(klazar_violators(img)) == set(mt.marked)
            assert phi_inverse(img) == mt
            images.add(img)
        assert images == set(enumerate_increasing_trees(n))


def test_phi_preserves_reverse_bad_counts():
    for n in range(5):
        for mt in marked_universe(n):
            img = phi(mt)
            assert len(reverse_bad_vertices(img)) == len(reverse_bad_vertices(mt.tree))


def test_phi_rejects_invalid_marks():
    t = tree_from_text("0(1(2))")
    with pytest.raises(ValueError):
        phi(MarkedTree(t, frozenset({2})))
    with pytest.raises(ValueError):
        phi(MarkedTree(tree_from_text("0(2,1)"), frozenset()))


def test_phi_rejects_true_as_a_mark():
    t = tree_from_text("0(1(2))")
    assert phi(MarkedTree(t, frozenset({1}))) == tree_from_text("0(2,1)")
    with pytest.raises(ValueError):
        phi(MarkedTree(t, frozenset({True})))


# ---------------------------------------------------------------------------
# sigma: trees onto build codes


def test_sigma_by_hand():
    assert sigma(tree_from_text("0(2,1)")) == (("R", 0), ("L", 1))
    assert sigma_inverse((("R", 0), ("L", 1))) == tree_from_text("0(2,1)")
    assert sigma(tree_from_text("0")) == ()


def test_sigma_roundtrip_exhaustive():
    for n in range(5):
        codes_seen = set()
        for t in enumerate_increasing_trees(n):
            c = sigma(t)
            assert sigma_inverse(c) == t
            codes_seen.add(c)
        assert codes_seen == set(enumerate_tree_codes(n))


@given(words())
def test_sigma_roundtrip_random(w):
    t = tree_of(w)
    assert sigma_inverse(sigma(t)) == t


def test_violator_reading_of_codes():
    for n in range(5):
        for c in enumerate_tree_codes(n):
            t = sigma_inverse(c)
            assert bijections._odd_pairs(codes._code_to_word(c)) == set(violator_partners(t).items())


def test_odd_pairs_of_a_word_agree_with_both_letter_codes():
    # the new pair is letter 1 (index 0) where (B,k) carried k; the pairs
    # agree because a (T,i) entry comes only after step i
    rng = random.Random(200)
    small = (w for n in range(7) for w in enumerate_words(n))
    seeded = (tuple(rng.randint(1, 2 * k - 1) for k in range(1, 201)) for _ in range(20))
    for w in chain(small, seeded):
        want = bijections._odd_pairs(w)
        assert bf.bf_odd_pairs(codes._word_to_code(w), "L") == want
        assert bf.bf_odd_pairs(codes._word_to_matchcode(w), "T") == want


# ---------------------------------------------------------------------------
# tau: build codes onto matchings


def test_tau_by_hand():
    m = matching_from_text("1 3/2 10/4 7/5 9/6 8")
    assert tau_inverse(m) == (("B", 1), ("B", 1), ("T", 1), ("T", 2), ("T", 1))
    assert tau((("B", 1), ("B", 1), ("T", 1), ("T", 2), ("T", 1))) == m


def test_tau_roundtrip_exhaustive():
    for n in range(5):
        images = set()
        for c in enumerate_match_codes(n):
            m = tau(c)
            assert tau_inverse(m) == c
            images.add(m)
        assert images == set(enumerate_matchings(n))


@given(words())
def test_tau_roundtrip_random(w):
    c = treecode_to_matchcode(trapezoidal_to_code(w))
    assert tau_inverse(tau(c)) == c


def test_upline_reading_of_codes():
    for n in range(5):
        for c in enumerate_match_codes(n):
            assert bijections._odd_pairs(codes._matchcode_to_word(c)) == set(uplines(tau(c)))


def test_tau_and_tau_variant_agree_with_the_oracle():
    # the oracle enlarges plain pairs and recomputes every upline and weak
    # downline at each step: every code up to n = 6, then 20 seeded at n = 80
    rng = random.Random(80)
    small = (c for n in range(7) for c in enumerate_match_codes(n))
    for c in chain(small, (random_match_code(rng, 80) for _ in range(20))):
        want = bf.bf_tau(c)
        assert set(tau(c).pairs()) == want
        assert tau_inverse(Matching.from_pairs(want, n=len(c))) == c
        assert set(tau_variant(c).pairs()) == bf.bf_tau_variant(c)


def test_matching_maps_at_n500():
    rng = random.Random(500)
    for _ in range(20):
        c = random_match_code(rng, 500)
        m = tau(c)
        assert tau_inverse(m) == c
        assert set(uplines(m)) == bijections._odd_pairs(codes._matchcode_to_word(c))
        code_stats, matching_stats = parity_statistics(c, tau_variant(c))
        assert code_stats == matching_stats
        assert matching_to_code(code_to_matching(c)) == c
    pairs = m.pairs()
    assert all(shift_S(m, i) == bf.bf_shift(pairs, i) for i in range(1, 501))


# ---------------------------------------------------------------------------
# the composite map from trees to matchings


def test_Phi_small_cases():
    assert Phi_recursive(tree_from_text("0")) == Matching((0,))
    assert Phi_recursive(tree_from_text("0(1)")) == matching_from_text("1 2")
    assert Phi_recursive(tree_from_text("0(2,1)")) == matching_from_text("1 4/2 3")


def test_Phi_sends_partners_to_uplines():
    t = tree_from_text("0(4,2(8,7,6(9)),5,1(3))")
    m = Phi_recursive(t)
    assert set(uplines(m)) == {(1, 5), (2, 6), (6, 9), (7, 8)}
    assert Phi_explicit(t) == m


def test_Phi_routes_agree_exhaustively():
    for n in range(5):
        images = set()
        for t in enumerate_increasing_trees(n):
            m = Phi_recursive(t)
            assert Phi_explicit(t) == m
            assert set(uplines(m)) == set(violator_partners(t).items())
            images.add(m)
        assert images == set(enumerate_matchings(n))


@given(words())
def test_Phi_routes_agree_random(w):
    t = tree_of(w)
    assert Phi_recursive(t) == Phi_explicit(t)


def test_round_trips_on_large_random_trees():
    # far beyond the exhaustive sizes: 20 seeded uniform words at n = 200
    rng = random.Random(200)
    for _ in range(20):
        t = tree_of([rng.randint(1, 2 * k - 1) for k in range(1, 201)])
        assert code_to_tree(tree_to_code(t)) == t
        assert sigma_inverse(sigma(t)) == t
        assert phi(phi_inverse(t)) == t
        assert Phi_recursive(t) == Phi_explicit(t)
        assert bijections._odd_pairs(codes._code_to_word(sigma(t))) == set(violator_partners(t).items())


def test_maps_that_validate_only_their_input_return_valid_objects():
    # the letter swaps, the word maps, sigma, tree_to_code, phi_inverse,
    # matching_to_code and tau_inverse validate their input and not their
    # output; every word up to n = 6, then 20 seeded words at n = 200
    rng = random.Random(200)
    large = ([rng.randint(1, 2 * k - 1) for k in range(1, 201)] for _ in range(20))
    for w in chain((w for n in range(7) for w in enumerate_words(n)), large):
        tc = trapezoidal_to_code(w)
        mc = treecode_to_matchcode(tc)
        back, word = matchcode_to_treecode(mc), code_to_trapezoidal(tc)
        t = code_to_tree(tc)
        sc, m = sigma(t), Phi_explicit(t)
        tt, mm, tm = tree_to_code(t), matching_to_code(code_to_matching(mc)), tau_inverse(m)
        assert validate_tree_code(tc) == tc and validate_match_code(mc) == mc
        assert validate_tree_code(back) == back == tc
        assert validate_word(word) == word == tuple(w)
        assert validate_tree_code(sc) == sc
        assert Matching.from_json(m.to_json()) == m
        assert validate_tree_code(tt) == tt == tc
        assert validate_match_code(mm) == mm == mc
        assert validate_match_code(tm) == tm
        check_marked_tree(phi_inverse(t))


def test_checks_validate_nothing_and_a_public_map_validates_once(monkeypatch):
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    for module in (tree_core, codes, bijections):
        count(module, "check_increasing_tree")
    count(bijections, "check_marked_tree")
    count(codes, "_validate_code")
    count(codes, "validate_word")
    for name, (check, max_n) in checks.CHECKS.items():
        assert check(max_n)[0], name
        assert calls == Counter(), name
    Phi_explicit(tree_from_text("0(2,1(3))"))
    assert calls == Counter({"check_increasing_tree": 1})


def test_Phi_routes_agree_on_a_wide_shallow_tree():
    # 1,200 children of the root: one Python frame per edge would pass the default recursion limit
    t = tree_from_text("0(%s)" % ",".join(map(str, range(1200, 0, -1))))
    assert Phi_recursive(t) == Phi_explicit(t)


# ---------------------------------------------------------------------------
# the variant second-row map


def test_tau_variant_by_hand():
    got = tau_variant((("B", 1), ("T", 1), ("B", 2), ("T", 1)))
    assert set(map(frozenset, got.pairs())) == {
        frozenset(p) for p in [(1, 4), (3, 6), (5, 7), (2, 8)]
    }
    assert tau_variant((("B", 1),)) == matching_from_text("1 2")
    assert tau_variant((("B", 1), ("B", 1))) == matching_from_text("1 3/2 4")


def test_tau_variant_is_a_bijection():
    for n in range(5):
        images = set()
        for c in enumerate_match_codes(n):
            images.add(tau_variant(c))
        assert images == set(enumerate_matchings(n))


def test_tau_variant_transfers_parity_statistics():
    # T letters with odd multiplicity count the even-to-odd pairs,
    # B letters with odd multiplicity the odd-to-even pairs
    for n in range(5):
        for c in enumerate_match_codes(n):
            code_stats, matching_stats = parity_statistics(c, tau_variant(c))
            assert code_stats == matching_stats
