"""Trapezoidal words, and the insertion codes that spell them in letters.

A trapezoidal word a_1..a_n has 1 <= a_k <= 2k-1.  It is the one code
the kernels take and return: on trees odd a_k = 2i+1 inserts k as the
rightmost child of i and even a_k = 2i as the left neighbour of i
(tree_core._insert); on matchings a_k enlarges with dot a_k - 1, except
that a_k = 1 is the new pair (_word_to_matching).

The letters live only here, at the public boundary: a build-tree code
spells 2i+1 as (R, i) and 2i as (L, i), a build-matching code spells 1
at step k as (B, k), 2i+1 >= 3 as (B, i) and 2i as (T, i).  So the
paper's swap R<->B, L<->T, with (R, 0) at step k traded for (B, k), is
the identity on words.  Validation is separate and explicit so malformed
input fails at the boundary, not inside a bijection.
"""

from __future__ import annotations

from itertools import product

from .matching_core import Matching, _enlarge, _prune
from .tree_core import Tree, _insert, _remove_largest, check_increasing_tree, tables_of


def _validate_code(code, first, second, lo, kind):
    """(first, lo) opens the code; at step k, first takes lo..lo+k-1 and
    second takes 1..k-1.  Returns the code as a tuple."""
    code = tuple(code)
    for k, (X, i) in enumerate(code, start=1):
        if type(i) is not int:  # int() would read True as 1 and 1.9 as 1
            raise ValueError(f"index {i!r} at step {k} is not an integer")
        if X not in (first, second):
            raise ValueError(f"bad letter {X!r} at step {k}")
        if k == 1 and (X, i) != (first, lo):
            raise ValueError(f"a {kind} code must start with ({first},{lo})")
        if not (lo <= i <= lo + k - 1 if X == first else 1 <= i <= k - 1):
            raise ValueError(f"({X},{i}) out of range at step {k}")
    return code


def validate_tree_code(code):
    """Check (X1,i1) = (R,0) and the step-k ranges; return the code as a tuple."""
    return _validate_code(code, "R", "L", 0, "tree")


def validate_match_code(code):
    """Check (Y1,i1) = (B,1) and the step-k ranges; return the code as a tuple."""
    return _validate_code(code, "B", "T", 1, "matching")


def validate_word(word):
    word = tuple(word)
    for k, a in enumerate(word, start=1):
        if type(a) is not int:
            raise ValueError(f"letter {a!r} at step {k} is not an integer")
        if not 1 <= a <= 2 * k - 1:
            raise ValueError(f"letter {a} out of [1, {2 * k - 1}] at step {k}")
    return word


# ---------------------------------------------------------------------------
# words <-> objects


def code_to_tree(code) -> Tree:
    return _word_to_tree(_code_to_word(validate_tree_code(code)))


def _word_to_tree(word):
    parent, children = [None], [()]
    for k, a in enumerate(word, start=1):
        _insert(parent, children, k, a)
    return Tree(children)


def tree_to_code(t: Tree):
    """Read off the insertion history by deleting n, n-1, ... in turn."""
    return _word_to_code(_tree_to_word(t, check_increasing_tree(t)))


def _tree_to_word(t, n):
    parent, children = tables_of(t)
    return tuple(reversed([_remove_largest(parent, children, k) for k in range(n, 0, -1)]))


def code_to_matching(code) -> Matching:
    return _word_to_matching(_matchcode_to_word(validate_match_code(code)))


def _word_to_matching(word):
    partner = [0]
    for k, a in enumerate(word, start=1):
        _enlarge(partner, a - 1 if a > 1 else 2 * k)
    return Matching(tuple(partner))


def matching_to_code(m: Matching):
    return _word_to_matchcode(_matching_to_word(m))


def _matching_to_word(m):
    """Prune n, n-1, ...: dot x reads letter x + 1, the new pair (x = 2k) 1."""
    partner, word = list(m.partner), []
    while len(partner) > 1:
        x = _prune(partner)
        word.append(x + 1 if x < len(partner) else 1)
    word.reverse()
    return tuple(word)


# ---------------------------------------------------------------------------
# letter codes <-> words (the converters do not validate)


def _code_to_word(code):
    return tuple([2 * i if X == "L" else 2 * i + 1 for X, i in code])


def _word_to_code(word):
    return tuple([("L" if a % 2 == 0 else "R", a // 2) for a in word])


def _matchcode_to_word(code):
    return tuple([2 * i if Y == "T" else 1 if i == k else 2 * i + 1
                  for k, (Y, i) in enumerate(code, start=1)])


def _word_to_matchcode(word):
    return tuple([("T", a // 2) if a % 2 == 0 else ("B", k if a == 1 else a // 2)
                  for k, a in enumerate(word, start=1)])


def treecode_to_matchcode(code):
    return _word_to_matchcode(_code_to_word(validate_tree_code(code)))


def matchcode_to_treecode(code):
    return _word_to_code(_matchcode_to_word(validate_match_code(code)))


def code_to_trapezoidal(code):
    return _code_to_word(validate_tree_code(code))


def trapezoidal_to_code(word):
    return _word_to_code(validate_word(word))


def word_parity_stats(word):
    """(number of even values with odd multiplicity,
    number of odd values with odd multiplicity)."""
    return _word_parity_stats(validate_word(word))


def _word_parity_stats(word):
    # bit v of odd is set iff value v has odd multiplicity
    odd = 0
    for a in word:
        odd ^= 1 << a
    bits = bin(odd)[:1:-1]  # bits[v] is bit v
    return bits[::2].count("1"), bits[1::2].count("1")


# ---------------------------------------------------------------------------
# enumeration (the canonical order everything else aligns to)


def enumerate_words(n: int):
    """All trapezoidal words of length n in ascending lexicographic order."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    yield from product(*(range(1, 2 * k) for k in range(1, n + 1)))


def enumerate_tree_codes(n: int):
    # words are legal by construction, so skip the validating conversions
    yield from map(_word_to_code, enumerate_words(n))


def enumerate_match_codes(n: int):
    yield from map(_word_to_matchcode, enumerate_words(n))


# ---------------------------------------------------------------------------
# text forms (for the command line)


def code_to_text(code) -> str:
    return ",".join(f"{X}{i}" for X, i in code)


def code_from_text(text: str):
    if not text.strip():
        return ()
    out = []
    for chunk in text.strip().split(","):
        chunk = chunk.strip()
        if not chunk or chunk[0] not in "RLBT":
            raise ValueError(f"bad code entry {chunk!r}")
        out.append((chunk[0], int(chunk[1:])))
    return tuple(out)


def code_from_json(obj):
    """A tree or matching code from decoded JSON: [letter, integer] pairs."""
    if not isinstance(obj, list) or not all(
        isinstance(e, list) and len(e) == 2
        and isinstance(e[0], str) and type(e[1]) is int
        for e in obj
    ):
        raise ValueError("a code in JSON must be a list of [letter, integer] pairs")
    return tuple((X, i) for X, i in obj)


def word_to_text(word) -> str:
    return " ".join(str(a) for a in word)


def word_from_text(text: str):
    return validate_word(tuple(int(x) for x in text.split()))


def word_from_json(obj):
    """A trapezoidal word from decoded JSON: a list of integers."""
    if not isinstance(obj, list) or not all(type(a) is int for a in obj):
        raise ValueError("a word in JSON must be a list of integers")
    return validate_word(obj)
