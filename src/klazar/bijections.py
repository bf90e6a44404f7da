"""Structure-preserving maps between trees, matchings, and codes.

phi repairs violator-free trees with marked interior vertices into
arbitrary increasing trees, one cut-and-paste per mark.  sigma and tau
are insertion codings that sandwich an involution (F) or consult the
upline structure before choosing the insertion target, arranged so that
an even letter 2i of odd multiplicity in the trapezoidal word pins down
one violator or one upline.  Phi carries trees to matchings so that
violator/partner pairs become uplines; Phi_explicit is tau after sigma,
the letter swap being the identity on words.  tau_variant trades
uplines for a different pair of matching statistics.

Each public map validates its input once and hands its word to a
_-prefixed kernel that trusts it; kernels take and return words, the
compositions and klazar.checks call them on valid objects.
"""

from __future__ import annotations

from collections import Counter

from .codes import _code_to_word, _matchcode_to_word, _word_to_code, _word_to_matchcode
from .codes import validate_match_code, validate_tree_code
from .matching_core import Matching, _enlarge, _prune, _shift
from .tree_core import (
    MarkedTree,
    Tree,
    _H,
    _children_to_cohort,
    _cohort_to_children,
    _delete_step,
    _insert_step,
    _is_violator,
    _klazar_violators,
    _partner,
    check_increasing_tree,
    check_marked_tree,
    tables_of,
)


# ---------------------------------------------------------------------------
# phi: marked violator-free trees -> all increasing trees


def phi(mt: MarkedTree) -> Tree:
    """Turn each marked interior vertex into a violator.

    Marks are processed in decreasing order.  For a mark u with smallest
    child v, the block C(v)+v (subtrees riding along) leaves u's child
    list and lands immediately left of u's big cohort.  Afterwards the
    violator set of the result is exactly the original mark set.
    """
    check_marked_tree(mt)
    return _phi(mt)


def _phi(mt):
    parent, children = tables_of(mt.tree)
    for u in sorted(mt.marked, reverse=True):
        assert children[u], "marks are interior vertices"
        _children_to_cohort(parent, children, u)
    assert set(_klazar_violators(children)) == set(mt.marked)
    return Tree(children)


def phi_inverse(t: Tree) -> MarkedTree:
    """Undo phi: each violator u gives up its associate v (and the part
    of the big cohort left of v) back to its own child list; the
    violators become the marks.  Processed in increasing order."""
    check_increasing_tree(t)
    return _phi_inverse(t)


def _phi_inverse(t):
    parent, children = tables_of(t)
    marks = _klazar_violators(children)
    for u in marks:
        _cohort_to_children(parent, children, u)
    return MarkedTree(Tree(children), frozenset(marks))


# ---------------------------------------------------------------------------
# sigma: tree coding with F applied before each record/prune step


def sigma(t: Tree):
    """Code t by deleting n, n-1, ..., 1, applying F before each record;
    tree_core._delete_step does both in one edit."""
    return _word_to_code(_sigma(t, check_increasing_tree(t)))


def _sigma(t, n):
    parent, children = tables_of(t)
    return tuple(reversed([_delete_step(parent, children, k)[0] for k in range(n, 0, -1)]))


def sigma_inverse(code) -> Tree:
    """Rebuild from a code, applying F after every insertion
    (tree_core._insert_step)."""
    return _sigma_inverse(_code_to_word(validate_tree_code(code)))


def _sigma_inverse(word):
    parent, children = [None], [()]
    for k, a in enumerate(word, start=1):
        _insert_step(parent, children, k, a)
    return Tree(children)


def _odd_pairs(word):
    """One pair (i, j) per even letter 2i of odd multiplicity, j the last
    (1-based) position whose letter a has a // 2 = i: the (violator,
    partner) pairs of _sigma_inverse(word) and the uplines of _tau(word)."""
    odd = [a // 2 for a, c in Counter(a for a in word if a % 2 == 0).items() if c % 2]
    last = {a // 2: pos for pos, a in enumerate(word, start=1)}
    return {(i, last[i]) for i in odd}


# ---------------------------------------------------------------------------
# tau: matching coding driven by the upline structure


def tau(code) -> Matching:
    """Build a matching where each enlargement consults current uplines,
    read off one growing partner list by _tau_target."""
    return _tau(_matchcode_to_word(validate_match_code(code)))


def _tau(word):
    partner = [0]
    for k, a in enumerate(word, start=1):
        _enlarge(partner, _tau_target(partner, a, k))
    return Matching(tuple(partner))


def _tau_target(partner, a, k):
    """The dot number step k enlarges with.  Letter 1 is the new pair;
    otherwise i = a // 2.  If bottom i starts an upline (partner[2i] odd
    and > 2i), even a takes its top partner[2i] and odd a bottom i
    itself.  Otherwise even a takes bottom i and odd a the first top of
    the upline chain into top i, walked back while partner[2i-1] is even
    and < 2i-1."""
    if a == 1:
        return 2 * k
    i = a // 2
    x = partner[2 * i]
    if x % 2 and x > 2 * i:
        return x if a % 2 == 0 else 2 * i
    if a % 2 == 0:
        return 2 * i
    while partner[2 * i - 1] % 2 == 0 and partner[2 * i - 1] < 2 * i - 1:
        i = partner[2 * i - 1] // 2
    return 2 * i - 1


def tau_inverse(m: Matching):
    return _word_to_matchcode(_tau_inverse(m))


def _tau_inverse(m):
    """Prune n, n-1, ..., 1, reading each letter before its prune off the
    four-case table on the rows and positions of the partners of the two
    last dots, with the shift map S applied in the not-yet-pruned diagram."""
    partner, word = list(m.partner), []
    for k in range(m.n, 0, -1):
        u, w = partner[2 * k - 1], partner[2 * k]
        i, j = (u + 1) // 2, (w + 1) // 2
        if u == 2 * k:
            word.append(1)
        elif u % 2:
            word.append(2 * _shift(partner, i) + 1 if w % 2 or i <= j else 2 * j)
        else:
            word.append(2 * i if w % 2 == 0 or i >= j else 2 * i + 1)
        _prune(partner)
    word.reverse()
    return tuple(word)


# ---------------------------------------------------------------------------
# Phi: trees -> matchings, violator/partner pairs -> uplines


def Phi_recursive(t: Tree) -> Matching:
    """The paper's recursive Phi: remove n, n-1, ..., 1 from one table,
    read one dot per level, then enlarge from level 1 up.

    At level k the dot number depends on where k sits.  If k is the last
    child of p: 2k (the new pair) for p the root, 2p for a violator p,
    and 2H(p) - 1 for a complier p, with H taken after k is removed.
    Otherwise let j be k's right neighbour: 2j for a violator j whose
    associate is k; 2j after applying F for any other violator j; and
    for a complier j, F turns j into a violator and the dot is 2q - 1
    for q the partner of j, read after k is removed.

    The tables are validated once and edited in place by sigma's step
    _delete_step (F, then delete k), and the dot numbers grow one
    partner list.  The dots come from violators, partners and H, never
    from tau or a letter, so agreement with Phi_explicit is independent
    evidence that both are right.
    """
    return _Phi_recursive(t, check_increasing_tree(t))


def _Phi_recursive(t, n):
    parent, children = tables_of(t)
    dots = []
    for k in range(n, 0, -1):
        a, violator = _delete_step(parent, children, k)
        i = a // 2
        if a % 2 == 0:  # i is k's right neighbour j, a violator before F or after it
            dots.append(2 * i if violator else 2 * _partner(parent, children, i) - 1)
        elif i == 0:
            dots.append(2 * k)
        elif _is_violator(parent, children, i):  # removing k leaves p's status as it was
            dots.append(2 * i)
        else:
            dots.append(2 * _H(parent, children, i) - 1)
    partner = [0]
    for x in reversed(dots):
        _enlarge(partner, x)
    return Matching(tuple(partner))


def Phi_explicit(t: Tree) -> Matching:
    """The same map as Phi_recursive, as a composition: code t with
    sigma, then realize the same word as a matching with tau."""
    return _Phi_explicit(t, check_increasing_tree(t))


def _Phi_explicit(t, n):
    return _tau(_sigma(t, n))


# ---------------------------------------------------------------------------
# tau_variant: enlargements driven by weak downlines instead


def tau_variant(code) -> Matching:
    """Like tau, but a (B,i) entry with i < k uses top dot i when a weak
    downline hangs from it, and otherwise the partner of top dot i.  A
    weak downline hangs from top i iff partner[2i-1] is even and greater
    than 2i-1, so each step reads one entry of the growing list."""
    return _tau_variant(_matchcode_to_word(validate_match_code(code)))


def _tau_variant(word):
    partner = [0]
    for k, a in enumerate(word, start=1):
        if a % 2 == 0 or a == 1:
            _enlarge(partner, _tau_target(partner, a, k))
            continue
        x = partner[a - 2]  # top dot a // 2
        _enlarge(partner, a - 2 if x % 2 == 0 and x > a - 2 else x)
    return Matching(tuple(partner))
