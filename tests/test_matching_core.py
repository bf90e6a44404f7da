import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

import bruteforce as bf
from klazar import matching_core
from klazar.matching_core import (
    EMPTY_MATCHING,
    DotRef,
    Matching,
    PowerMatching,
    StirlingMatching,
    check_power,
    check_stirling,
    class2_expand,
    class2_reduce,
    class3_expand,
    class3_reduce,
    classify_edges,
    compose_no_upline,
    decompose_no_upline,
    enlarge,
    enumerate_matchings,
    enumerate_power_matchings,
    enumerate_stirling_matchings,
    matching_from_text,
    matching_to_text,
    prune_matching,
    recurrence_class,
    shift_S,
    stirling_to_partition,
    uplines,
    weak_downlines,
)


@st.composite
def match_codes(draw, max_n=7):
    """A uniform-ish random matching, grown one dot pair at a time."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    code = []
    for k in range(1, n + 1):
        if k == 1 or draw(st.booleans()):
            code.append(("B", draw(st.integers(1, k))))
        else:
            code.append(("T", draw(st.integers(1, k - 1))))
    return tuple(code)


def matching_from_code(code):
    m = EMPTY_MATCHING
    for row, i in code:
        m = enlarge(m, DotRef("bot" if row == "B" else "top", i))
    return m


# ---------------------------------------------------------------------------
# representation


def test_dotref_numbering():
    assert DotRef("top", 3).number() == 5
    assert DotRef("bot", 3).number() == 6
    for x in range(1, 11):
        assert DotRef.of_number(x).number() == x


@pytest.mark.parametrize("row", ["mid", "TOP", "", None, 1])
def test_dotref_rejects_a_row_other_than_top_or_bot(row):
    with pytest.raises(ValueError):
        DotRef(row, 1)


def test_text_roundtrip():
    for s in ["1 2", "1 4/2 3", "1 3/2 10/4 7/5 9/6 8"]:
        m = matching_from_text(s)
        assert matching_to_text(m) == s
    assert matching_from_text("") == EMPTY_MATCHING


def test_json_roundtrip():
    m = matching_from_text("1 3/2 10/4 7/5 9/6 8")
    assert Matching.from_json(m.to_json()) == m
    assert m.to_json()["pairs"] == [[1, 3], [2, 10], [4, 7], [5, 9], [6, 8]]


def test_matchings_are_equal_and_hash_equal_by_their_partner_tables():
    ms = [m for n in range(5) for m in enumerate_matchings(n)]
    copies = [Matching(tuple(m.partner)) for m in ms]
    for m, c in zip(ms, copies):
        assert m == c and hash(m) == hash(c) and not m != c
        assert m != m.partner and m.partner != m  # never equal to a bare tuple
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(m, protocol)) == m
    for a, b in zip(ms, ms[1:]):  # distinct partner tables, distinct matchings
        assert a.partner != b.partner and a != b and not a == b
    assert len(set(ms) | set(copies)) == len(ms)
    assert Matching((0,)) == EMPTY_MATCHING and {Matching((0,)), EMPTY_MATCHING} == {EMPTY_MATCHING}


def test_from_pairs_rejects_bad_input():
    with pytest.raises(ValueError):
        Matching.from_pairs([(1, 2), (2, 3)], n=2)  # 2 repeated, 4 missing
    with pytest.raises(ValueError):
        Matching.from_pairs([(1, 5)], n=2)  # out of range
    with pytest.raises(ValueError):
        Matching.from_pairs([(1, 2)], n=2)  # wrong size


# ---------------------------------------------------------------------------
# enumeration and edge classes


def test_enumeration_matches_bruteforce():
    for n in range(5):
        lib = {frozenset(m.pairs()) for m in enumerate_matchings(n)}
        assert lib == set(bf.bf_matchings(n))


def test_edge_classification_against_bruteforce():
    for n in range(5):
        for m in enumerate_matchings(n):
            pairs = m.pairs()
            cls = classify_edges(m)
            assert set(uplines(m)) == bf.bf_uplines(pairs)
            assert set(weak_downlines(m)) == bf.bf_weak_downlines(pairs)
            assert set(cls.verticals) == {t for t, b in bf.bf_weak_downlines(pairs) if t == b}
            total = (len(cls.uplines) + len(cls.verticals) + len(cls.downlines)
                     + len(cls.top_arcs) + len(cls.bottom_arcs))
            assert total == n, "every pair lands in exactly one class"


def seeded_matchings_at_n500():
    """Every matching with n <= 6, then 20 seeded matchings at n = 500."""
    rng = random.Random(500)
    small = [m for n in range(7) for m in enumerate_matchings(n)]
    large = [matching_from_code([("B", 1)] + [
        ("B", rng.randint(1, k)) if rng.random() < 0.5 else ("T", rng.randint(1, k - 1))
        for k in range(2, 501)]) for _ in range(20)]
    return small, large


def test_uplines_read_off_the_partner_table_agree_with_the_oracle():
    small, large = seeded_matchings_at_n500()
    for m in [*small, *large]:
        assert uplines(m) == bf.bf_uplines(m.pairs())
    assert any(uplines(m) for m in large)


def test_weak_downlines_read_off_the_partner_table_agree_with_the_oracle():
    small, large = seeded_matchings_at_n500()
    for m in [*small, *large]:
        assert weak_downlines(m) == bf.bf_weak_downlines(m.pairs())
    assert any(weak_downlines(m) for m in large)


def test_partner_table_counts_agree_with_the_edge_classes():
    small, large = seeded_matchings_at_n500()
    for m in [*small, *large]:
        p = m.partner
        assert matching_core._verticals(p) == len(classify_edges(m).verticals)
        assert matching_core._parity_pairs(p)[0] == len(uplines(m))
        pairs = m.pairs()  # each pair read left to right, smaller first
        assert matching_core._parity_pairs(p) == (
            sum(1 for a, b in pairs if a % 2 == 0 and b % 2 == 1),
            sum(1 for a, b in pairs if a % 2 == 1 and b % 2 == 0),
        )
    assert all(matching_core._parity_pairs(m.partner)[0] for m in large)
    assert any(matching_core._verticals(m.partner) for m in large)


def test_edge_classes_agree_with_the_oracle_classes():
    small, large = seeded_matchings_at_n500()
    for m in [*small, *large]:
        assert tuple(map(set, classify_edges(m))) == bf.bf_classify(m.pairs())
    assert all(map(any, zip(*map(classify_edges, large))))  # each class occurs at n = 500


def test_edge_classes_by_hand():
    m = matching_from_text("1 3/2 10/4 7/5 9/6 8")
    cls = classify_edges(m)
    assert set(cls.uplines) == {(2, 4)}
    assert set(cls.verticals) == set()
    assert set(cls.downlines) == set()
    assert set(cls.top_arcs) == {(1, 2), (3, 5)}
    assert set(cls.bottom_arcs) == {(1, 5), (3, 4)}


# ---------------------------------------------------------------------------
# enlarge / prune


def test_enlarge_prune_inverse():
    for n in range(1, 5):
        for m in enumerate_matchings(n):
            smaller, d = prune_matching(m)
            assert smaller.n == n - 1
            assert enlarge(smaller, d) == m


def test_enlarge_all_dots_reaches_everything():
    built = set()
    for m in enumerate_matchings(2):
        for i in range(1, 4):
            for row in ("top", "bot"):
                if row == "top" and i == 3:
                    continue
                built.add(enlarge(m, DotRef(row, i)))
    assert built == set(enumerate_matchings(3))


def test_enlarge_new_pair_case():
    m = enlarge(EMPTY_MATCHING, DotRef("bot", 1))
    assert m.pairs() == ((1, 2),)
    # the fresh bottom dot names the new-pair case
    assert enlarge(m, DotRef("bot", 2)).pairs() == ((1, 2), (3, 4))
    # joining an occupied dot reroutes its old partner to the new bottom
    assert enlarge(m, DotRef("bot", 1)).pairs() == ((1, 4), (2, 3))
    assert enlarge(m, DotRef("top", 1)).pairs() == ((1, 3), (2, 4))


def test_enlarge_rejects_out_of_range():
    with pytest.raises(ValueError):
        enlarge(EMPTY_MATCHING, DotRef("top", 1))
    with pytest.raises(ValueError):
        enlarge(EMPTY_MATCHING, DotRef("bot", 2))
    # a position that is not an int: True must not read as 1, nor 1.5 reach
    # the partner table as an index
    m = matching_from_text("1 2/3 4")
    with pytest.raises(ValueError):
        enlarge(EMPTY_MATCHING, DotRef("bot", True))
    with pytest.raises(ValueError):
        enlarge(m, DotRef("top", 1.5))
    with pytest.raises(ValueError):
        class2_expand(m, True)
    with pytest.raises(ValueError):
        shift_S(m, True)
    # size 2: the legal dots are 1..4 and the new pair 6; 5 is the new top dot
    for row, pos in (("top", 0), ("bot", 0), ("top", 3), ("top", 4), ("bot", 4)):
        with pytest.raises(ValueError) as err:
            enlarge(m, DotRef(row, pos))
        assert str(err.value) == f"dot DotRef(row='{row}', pos={pos}) is not in the size-2 diagram"
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"^top position {i} out of range$"):
            class2_expand(m, i)


@given(match_codes())
def test_enlarge_then_prune_roundtrip_random(code):
    m = matching_from_code(code)
    for row, i in reversed(code):
        m, d = prune_matching(m)
        assert d == DotRef("bot" if row == "B" else "top", i)
    assert m == EMPTY_MATCHING


def test_shift_follows_upline_chains():
    for n in range(5):
        for m in enumerate_matchings(n):
            for i in range(1, n + 1):
                assert shift_S(m, i) == bf.bf_shift(m.pairs(), i)


# ---------------------------------------------------------------------------
# Stirling and power matchings


def test_stirling_counts():
    for n in range(7):
        for k in range(n + 1):
            got = sum(1 for _ in enumerate_stirling_matchings(n, k))
            assert got == bf.bf_stirling2(n, k)


def test_stirling_matchings_match_the_oracle():
    for n in range(8):
        for k in range(n + 1):
            sms = list(enumerate_stirling_matchings(n, k))
            assert all(sm.cols == n for sm in sms)
            edges = [sm.edges for sm in sms]
            assert len(set(edges)) == len(edges), (n, k)
            assert set(edges) == bf.bf_stirling_matchings(n, k), (n, k)


def test_stirling_counts_at_ten():
    # S(n, k) by inclusion-exclusion over the empty blocks
    def s2(n, k):
        return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)

    for k in range(11):
        assert sum(1 for _ in enumerate_stirling_matchings(10, k)) == s2(10, k), k


def test_stirling_and_power_edge_cases():
    assert list(enumerate_stirling_matchings(0, 0)) == [StirlingMatching(0, frozenset())]
    assert list(enumerate_stirling_matchings(3, 0)) == []
    assert list(enumerate_stirling_matchings(3, 4)) == []
    assert list(enumerate_stirling_matchings(3, -1)) == []
    assert list(enumerate_power_matchings(0, 0)) == [PowerMatching(0, 0, frozenset())]
    for n in range(1, 5):
        assert list(enumerate_power_matchings(0, n)) == []
    assert list(enumerate_power_matchings(-1, 2)) == []
    assert list(enumerate_power_matchings(2, -1)) == []


def test_stirling_partition_bijection_small():
    for n in range(6):
        for k in range(n + 1):
            parts = [stirling_to_partition(sm) for sm in enumerate_stirling_matchings(n, k)]
            assert len(set(parts)) == len(parts)
            want = {p for p in bf.bf_set_partitions(n) if len(p) == k}
            assert set(parts) == want


def test_stirling_partition_worked_example():
    sm = StirlingMatching(7, frozenset({(1, 5), (3, 4), (4, 6)}))
    assert check_stirling(sm) == 4
    part = stirling_to_partition(sm)
    assert sorted(sorted(b) for b in part) == [[1, 5], [2, 6], [3, 4], [7]]


def test_stirling_validation():
    with pytest.raises(ValueError):
        check_stirling(StirlingMatching(3, frozenset({(1, 1), (1, 2)})))  # top reused
    with pytest.raises(ValueError):
        check_stirling(StirlingMatching(3, frozenset({(3, 1)})))  # goes left


def test_power_counts():
    for k in range(1, 5):
        for n in range(5):
            got = sum(1 for _ in enumerate_power_matchings(k, n))
            assert got == k**n


def test_power_matchings_match_the_oracle():
    for k in range(6):
        for n in range(8 - k):
            pms = list(enumerate_power_matchings(k, n))
            assert all((pm.top_count, pm.bottom_count) == (k + n, n) for pm in pms)
            edges = [pm.edges for pm in pms]
            assert len(set(edges)) == len(edges), (k, n)
            assert set(edges) == bf.bf_power_matchings(k, n), (k, n)


def test_power_validation():
    with pytest.raises(ValueError):
        check_power(PowerMatching(3, 1, frozenset({(4, 1)})))  # past the slack
    with pytest.raises(ValueError):
        check_power(PowerMatching(4, 2, frozenset({(1, 1)})))  # bottom 2 unmatched


# ---------------------------------------------------------------------------
# no-upline structure


def no_upline(n):
    return (m for m in enumerate_matchings(n) if not uplines(m))


def test_decompose_compose_identity():
    for n in range(6):
        for m in no_upline(n):
            even_pm, odd_pm, sm, pm = decompose_no_upline(m)
            assert even_pm.n == odd_pm.n
            assert compose_no_upline(even_pm, odd_pm, sm, pm) == m


def test_decompose_rejects_uplines():
    with pytest.raises(ValueError):
        decompose_no_upline(matching_from_text("1 4/2 3"))


def test_decompose_worked_example():
    m = matching_from_text("1 2/3 15/4 8/5 14/6 12/7 10/9 13/11 16")
    assert not uplines(m)
    even_pm, odd_pm, sm, pm = decompose_no_upline(m)
    assert even_pm.n == 2  # two even-even pairs: {4,8} and {6,12}
    assert sm.cols == 6  # largest even-even entry is 12
    assert check_power(pm) == 5


def test_recurrence_classes_partition():
    for n in range(1, 6):
        ms = list(no_upline(n))
        classes = [recurrence_class(m) for m in ms]
        assert set(classes) <= {1, 2, 3}
        for m, c in zip(ms, classes):
            if c == 2:
                small, i = class2_reduce(m)
                assert class2_expand(small, i) == m
            elif c == 3:
                small, X = class3_reduce(m)
                assert class3_expand(small, X) == m


def test_class3_reduce_agrees_with_the_oracle():
    seen = 0
    for n in range(1, 7):
        for m in no_upline(n):
            if recurrence_class(m) == 3:
                small, X = class3_reduce(m)
                assert (set(small.pairs()), X) == bf.bf_class3_reduce(m.pairs(), n)
                seen += 1
    assert seen > 0
