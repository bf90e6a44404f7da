"""Structure-preserving maps between trees, matchings, and codes.

phi repairs violator-free trees with marked interior vertices into
arbitrary increasing trees, one cut-and-paste per mark.  sigma and tau
are insertion codings that sandwich an involution (F) or consult the
upline structure before choosing the insertion target, arranged so that
an (L,i) or (T,i) entry of odd multiplicity pins down one violator or
one upline of the final object.  Phi (recursive and explicit forms)
carries trees to matchings so that violator/partner pairs become
uplines.  tau_variant trades uplines for a different pair of matching
statistics.

Each public map validates its input once and hands it to a _-prefixed
kernel that trusts it; the compositions and klazar.checks call the
kernels on objects that are valid by construction.
"""

from __future__ import annotations

from collections import Counter

from .codes import _swap_letters, validate_match_code, validate_tree_code
from .matching_core import Matching, _enlarge, _prune, _shift
from .tree_core import (
    MarkedTree,
    Tree,
    _H,
    _assoc_at,
    _children_to_cohort,
    _cohort_to_children,
    _insert,
    _is_violator,
    _klazar_violators,
    _partner,
    _remove_largest,
    apply_F_tables,
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
    """Code t by deleting n, n-1, ..., 1, applying F before each record."""
    return _sigma(t, check_increasing_tree(t))


def _sigma(t, n):
    parent, children = tables_of(t)
    code = []
    for k in range(n, 0, -1):
        apply_F_tables(parent, children)
        code.append(_remove_largest(parent, children, k))
    return tuple(reversed(code))


def sigma_inverse(code) -> Tree:
    """Rebuild from a code, applying F after every insertion."""
    return _sigma_inverse(validate_tree_code(code))


def _sigma_inverse(code):
    parent, children = [None], [()]
    for k, (X, i) in enumerate(code, start=1):
        _insert(parent, children, k, X, i)
        apply_F_tables(parent, children)
    return Tree(children)


def _odd_pairs(code, letter):
    """One pair (i, j) per index i of odd (letter, i) multiplicity, j the
    last (1-based) position carrying i: with "L" the (violator, partner)
    pairs of sigma_inverse(code), with "T" the uplines of tau(code)."""
    odd = [i for i, c in Counter(i for X, i in code if X == letter).items() if c % 2]
    last = {i: pos for pos, (_, i) in enumerate(code, start=1)}
    return {(i, last[i]) for i in odd}


# ---------------------------------------------------------------------------
# tau: matching coding driven by the upline structure


def tau(code) -> Matching:
    """Build a matching where each enlargement consults current uplines,
    read off one growing partner list by _tau_target."""
    return _tau(validate_match_code(code))


def _tau(code):
    partner = [0]
    for k, (Y, i) in enumerate(code, start=1):
        _enlarge(partner, _tau_target(partner, Y, i, k))
    return Matching(tuple(partner))


def _tau_target(partner, Y, i, k):
    """The dot number step k enlarges with.  (B,k) is the new pair.  If
    bottom i starts an upline (partner[2i] odd and > 2i), (T,i) takes its
    top partner[2i] and (B,i) bottom i itself.  Otherwise (T,i) takes
    bottom i and (B,i) the first top of the upline chain into top i,
    walked back while partner[2i-1] is even and < 2i-1."""
    if i == k:
        return 2 * k
    x = partner[2 * i]
    if x % 2 and x > 2 * i:
        return x if Y == "T" else 2 * i
    if Y == "T":
        return 2 * i
    while partner[2 * i - 1] % 2 == 0 and partner[2 * i - 1] < 2 * i - 1:
        i = partner[2 * i - 1] // 2
    return 2 * i - 1


def tau_inverse(m: Matching):
    partner, code = list(m.partner), []
    while len(partner) > 1:
        code.append(_tau_entry(partner))
        _prune(partner)
    code.reverse()
    return tuple(code)


def _tau_entry(partner):
    """One pruning record: the four-case table on the rows and positions
    of the partners of the two last dots, with the shift map S applied
    in the not-yet-pruned diagram."""
    k = len(partner) // 2
    u, w = partner[2 * k - 1], partner[2 * k]
    if u == 2 * k:
        return ("B", k)
    i, j = (u + 1) // 2, (w + 1) // 2
    if u % 2:
        if w % 2 or i <= j:
            return ("B", _shift(partner, i))
        return ("T", j)
    if w % 2 == 0 or i >= j:
        return ("T", i)
    return ("B", i)


# ---------------------------------------------------------------------------
# Phi: trees -> matchings, violator/partner pairs -> uplines


def Phi_recursive(t: Tree) -> Matching:
    """The paper's recursive Phi: remove n, n-1, ..., 1 from one table,
    read one dot per level, then enlarge from level 1 up.

    At level k the dot depends on where k sits.  If k is the last child
    of p: (BOT, k) for p the root, (BOT, p) for a violator p, and
    (TOP, H(p)) for a complier p, with H taken after k is removed.
    Otherwise let j be k's right neighbour: (BOT, j) for a violator j
    whose associate is k; (BOT, j) after applying F for any other
    violator j; and for a complier j, F turns j into a violator and the
    dot is (TOP, partner of j), read after k is removed.

    The tables are validated once and edited in place, with no Tree
    built in between, and the dot numbers grow one partner list.  The
    route uses only F, H, partners and enlarge, never sigma, tau or a
    code, so its agreement with Phi_explicit is independent evidence
    that both are right.
    """
    return _Phi_recursive(t, check_increasing_tree(t))


def _Phi_recursive(t, n):
    parent, children = tables_of(t)
    dots = []
    for k in range(n, 0, -1):
        p = parent[k]
        sibs = children[p]
        pos = sibs.index(k) + 1
        if pos == len(sibs):
            complier = p != 0 and not _is_violator(parent, children, p)
            _remove_largest(parent, children, k)
            if p == 0:
                dots.append(2 * k)
            elif complier:
                dots.append(2 * _H(parent, children, p) - 1)
            else:
                dots.append(2 * p)
            continue
        j = sibs[pos]
        if _is_violator(parent, children, j):
            if _assoc_at(sibs, pos) != k:
                apply_F_tables(parent, children)
            _remove_largest(parent, children, k)
            dots.append(2 * j)
            continue
        apply_F_tables(parent, children)
        _remove_largest(parent, children, k)
        if not _is_violator(parent, children, j):
            raise ValueError(f"{j} is not a Klazar violator")
        dots.append(2 * _partner(parent, children, j) - 1)
    partner = [0]
    for x in reversed(dots):
        _enlarge(partner, x)
    return Matching(tuple(partner))


def Phi_explicit(t: Tree) -> Matching:
    """The same map as Phi_recursive, as a composition: code t with
    sigma, swap letters, then realize the matching code with tau."""
    return _Phi_explicit(t, check_increasing_tree(t))


def _Phi_explicit(t, n):
    return _tau(_swap_letters(_sigma(t, n)))


# ---------------------------------------------------------------------------
# tau_variant: enlargements driven by weak downlines instead


def tau_variant(code) -> Matching:
    """Like tau, but a (B,i) entry with i < k uses top dot i when a weak
    downline hangs from it, and otherwise the partner of top dot i.  A
    weak downline hangs from top i iff partner[2i-1] is even and greater
    than 2i-1, so each step reads one entry of the growing list."""
    return _tau_variant(validate_match_code(code))


def _tau_variant(code):
    partner = [0]
    for k, (Y, i) in enumerate(code, start=1):
        if Y == "T" or i == k:
            _enlarge(partner, _tau_target(partner, Y, i, k))
            continue
        x = partner[2 * i - 1]
        _enlarge(partner, 2 * i - 1 if x % 2 == 0 and x > 2 * i - 1 else x)
    return Matching(tuple(partner))
