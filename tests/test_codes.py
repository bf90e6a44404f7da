import random
from itertools import chain

import pytest
from hypothesis import given, strategies as st

import bruteforce as bf
from klazar import codes
from klazar.bijections import tau
from klazar.codes import (
    code_from_text,
    code_to_matching,
    code_to_text,
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
    word_from_text,
    word_parity_stats,
    word_to_text,
)
from klazar.matching_core import enumerate_matchings
from klazar.tree_core import check_increasing_tree, enumerate_increasing_trees, tree_from_text


@st.composite
def words(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return tuple(draw(st.integers(1, 2 * k - 1)) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# validation


def test_word_ranges():
    assert validate_word(()) == ()
    assert validate_word([1, 3, 5]) == (1, 3, 5)
    with pytest.raises(ValueError):
        validate_word([2])  # step 1 allows only 1
    with pytest.raises(ValueError):
        validate_word([1, 4])  # step 2 caps at 3
    with pytest.raises(ValueError):
        validate_word([1, 0])


def test_tree_code_ranges():
    validate_tree_code([("R", 0), ("L", 1), ("R", 2)])
    with pytest.raises(ValueError):
        validate_tree_code([("L", 1)])  # must open with (R,0)
    with pytest.raises(ValueError):
        validate_tree_code([("R", 1)])
    with pytest.raises(ValueError):
        validate_tree_code([("R", 0), ("L", 0)])  # L needs a left target
    with pytest.raises(ValueError):
        validate_tree_code([("R", 0), ("R", 2)])
    with pytest.raises(ValueError):
        validate_tree_code([("Q", 0)])


def test_match_code_ranges():
    validate_match_code([("B", 1), ("T", 1), ("B", 3)])
    with pytest.raises(ValueError):
        validate_match_code([("T", 1)])  # must open with (B,1)
    with pytest.raises(ValueError):
        validate_match_code([("B", 2)])
    with pytest.raises(ValueError):
        validate_match_code([("B", 1), ("T", 2)])  # T caps at k-1
    with pytest.raises(ValueError):
        validate_match_code([("B", 1), ("B", 3)])  # B caps at k


@pytest.mark.parametrize("index", [1.9, 1.0, True, "1"])
def test_validators_refuse_an_index_that_is_not_an_int(index):
    # int() would read 1.9 and True as 1, so tau would build a wrong diagram
    with pytest.raises(ValueError):
        validate_match_code([("B", index)])
    with pytest.raises(ValueError):
        validate_match_code([("B", 1), ("T", index)])
    with pytest.raises(ValueError):
        validate_tree_code([("R", 0), ("L", index)])
    with pytest.raises(ValueError):
        validate_word([index])
    with pytest.raises(ValueError):
        tau([("B", 1.9), ("T", 1.2)])
    with pytest.raises(ValueError):
        code_to_matching([("B", True)])


# ---------------------------------------------------------------------------
# the letter correspondence and the word form


def test_letter_swap_is_positionwise():
    code = validate_tree_code([("R", 0), ("L", 1), ("R", 0), ("R", 2)])
    mc = treecode_to_matchcode(code)
    assert mc == (("B", 1), ("T", 1), ("B", 3), ("B", 2))
    assert matchcode_to_treecode(mc) == code


def test_word_encoding_by_hand():
    # letter 2i encodes (L,i), letter 2i+1 encodes (R,i)
    code = validate_tree_code([("R", 0), ("L", 1), ("R", 1), ("R", 0)])
    assert code_to_trapezoidal(code) == (1, 2, 3, 1)
    assert trapezoidal_to_code((1, 2, 3, 1)) == code


@given(words())
def test_word_code_roundtrip(w):
    c = trapezoidal_to_code(w)
    assert code_to_trapezoidal(c) == w
    mc = treecode_to_matchcode(c)
    assert matchcode_to_treecode(mc) == c


def test_word_spellings_follow_the_papers_letter_swap():
    # every word up to n = 6, then 20 seeded words at n = 200
    rng = random.Random(200)
    small = (w for n in range(7) for w in enumerate_words(n))
    seeded = (tuple(rng.randint(1, 2 * k - 1) for k in range(1, 201)) for _ in range(20))
    for w in chain(small, seeded):
        tc, mc = codes._word_to_code(w), codes._word_to_matchcode(w)
        assert bf.bf_swap(tc) == mc and bf.bf_swap(mc) == tc
        assert codes._code_to_word(tc) == w == codes._matchcode_to_word(mc)


@given(words())
def test_codes_build_valid_objects(w):
    t = code_to_tree(trapezoidal_to_code(w))
    assert check_increasing_tree(t) == len(w)
    m = code_to_matching(treecode_to_matchcode(trapezoidal_to_code(w)))
    assert m.n == len(w)


@given(words(max_n=7))
def test_object_code_roundtrips(w):
    tc = trapezoidal_to_code(w)
    assert tree_to_code(code_to_tree(tc)) == tc
    mc = treecode_to_matchcode(tc)
    assert matching_to_code(code_to_matching(mc)) == mc


def test_tree_to_code_rejects_a_child_below_its_parent():
    for text in ("0(2(1))", "0(1,3(2))", "0(3(1),2)"):
        with pytest.raises(ValueError, match="does not exceed parent"):
            tree_to_code(tree_from_text(text))


def test_all_three_families_align_exhaustively():
    for n in range(7):
        ws = list(enumerate_words(n))
        tcs = list(enumerate_tree_codes(n))
        mcs = list(enumerate_match_codes(n))
        assert len(ws) == len(tcs) == len(mcs) == bf.bf_odd_double_factorial(2 * n - 1)
        for w, tc, mc in zip(ws, tcs, mcs):
            assert code_to_trapezoidal(tc) == w
            assert treecode_to_matchcode(tc) == mc
        # the k-th tree and the k-th matching are built from the k-th code
        assert list(enumerate_increasing_trees(n)) == [code_to_tree(tc) for tc in tcs]
        assert list(enumerate_matchings(n)) == [code_to_matching(mc) for mc in mcs]


def test_word_order_is_lexicographic():
    for n in range(5):
        ws = list(enumerate_words(n))
        assert ws == sorted(ws)
        assert len(set(ws)) == len(ws)


# ---------------------------------------------------------------------------
# parity statistics


def test_parity_stats_against_bruteforce():
    for n in range(6):
        for w in enumerate_words(n):
            assert word_parity_stats(w) == bf.bf_word_parity(w)


@given(words())
def test_parity_stats_random(w):
    evens, odds = word_parity_stats(w)
    assert 0 <= evens + odds <= len(w)


# ---------------------------------------------------------------------------
# text forms


def test_code_text_roundtrip():
    c = validate_tree_code([("R", 0), ("L", 1)])
    assert code_to_text(c) == "R0,L1"
    assert code_from_text("R0,L1") == c
    assert code_from_text("B1,T1") == (("B", 1), ("T", 1))
    assert code_to_text(()) == ""
    assert code_from_text("") == code_from_text(" \n") == ()
    with pytest.raises(ValueError):
        code_from_text("Z9")


def test_word_text_roundtrip():
    assert word_to_text((1, 2, 2)) == "1 2 2"
    assert word_from_text("1 2 2") == (1, 2, 2)
    assert word_from_text("") == ()
