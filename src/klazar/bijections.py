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
"""

from __future__ import annotations

from collections import Counter

from .codes import treecode_to_matchcode, validate_match_code, validate_tree_code
from .matching_core import (
    BOT,
    EMPTY_MATCHING,
    TOP,
    DotRef,
    Matching,
    classify_edges,
    enlarge,
    prune_matching,
    shift_S,
    weak_downlines,
)
from .tree_core import (
    MarkedTree,
    Tree,
    _assoc_in,
    _children_to_cohort,
    _cohort_to_children,
    _insert,
    _is_violator,
    _remove_largest,
    apply_F_tables,
    check_increasing_tree,
    check_marked_tree,
    H_map,
    involution_F,
    klazar_violators,
    prune_tree,
    tables_of,
    tree_from_tables,
    violator_partner,
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
    parent, children = tables_of(mt.tree)
    for u in sorted(mt.marked, reverse=True):
        assert children[u], "marks are interior vertices"
        _children_to_cohort(parent, children, u)
    out = tree_from_tables(children)
    assert set(klazar_violators(out)) == set(mt.marked)
    return out


def phi_inverse(t: Tree) -> MarkedTree:
    """Undo phi: each violator u gives up its associate v (and the part
    of the big cohort left of v) back to its own child list; the
    violators become the marks.  Processed in increasing order."""
    check_increasing_tree(t)
    parent, children = tables_of(t)
    marks = klazar_violators(t)
    for u in marks:
        _cohort_to_children(parent, children, u)
    mt = MarkedTree(tree_from_tables(children), frozenset(marks))
    check_marked_tree(mt)
    return mt


# ---------------------------------------------------------------------------
# sigma: tree coding with F applied before each record/prune step


def sigma(t: Tree):
    """Code t by deleting n, n-1, ..., 1, applying F before each record."""
    n = check_increasing_tree(t)
    parent, children = tables_of(t)
    code = []
    for k in range(n, 0, -1):
        apply_F_tables(parent, children)
        code.append(_remove_largest(parent, children, k))
    code.reverse()
    return validate_tree_code(code)


def sigma_inverse(code) -> Tree:
    """Rebuild from a code, applying F after every insertion."""
    code = validate_tree_code(code)
    parent = {}
    children = {0: []}
    for k, (X, i) in enumerate(code, start=1):
        _insert(parent, children, k, X, i)
        apply_F_tables(parent, children)
    return tree_from_tables(children)


def violators_from_treecode(code):
    """(violator, partner) pairs of sigma_inverse(code), read off the code:
    one pair (i, j) per index i whose (L,i) multiplicity is odd, with j
    the last (1-based) position carrying index i under either letter."""
    return _odd_pairs(validate_tree_code(code), "L")


def _odd_pairs(code, letter):
    odd = [i for i, c in Counter(i for X, i in code if X == letter).items() if c % 2]
    last = {i: pos for pos, (_, i) in enumerate(code, start=1)}
    return {(i, last[i]) for i in odd}


# ---------------------------------------------------------------------------
# tau: matching coding driven by the upline structure


def tau(code) -> Matching:
    """Build a matching where each enlargement consults current uplines."""
    code = validate_match_code(code)
    m = EMPTY_MATCHING
    for k, (Y, i) in enumerate(code, start=1):
        m = enlarge(m, _tau_target(m, Y, i, k))
    return m


def _tau_target(m, Y, i, k):
    ups = classify_edges(m).uplines
    if Y == "T":
        starts = dict(ups)
        return DotRef(TOP, starts[i]) if i in starts else DotRef(BOT, i)
    if i == k:
        return DotRef(BOT, k)
    if any(b == i for b, _ in ups):
        return DotRef(BOT, i)
    # walk the upline chain ending at top i back to its first dot
    ends = {t: b for b, t in ups}
    j = i
    while j in ends:
        j = ends[j]
    return DotRef(TOP, j)


def tau_inverse(m: Matching):
    code = []
    while m.n:
        code.append(_tau_entry(m))
        m, _ = prune_matching(m)
    code.reverse()
    return validate_match_code(code)


def _tau_entry(m):
    """One pruning record: the four-case table on the rows and positions
    of the partners of the two last dots, with the shift map S applied
    in the not-yet-pruned diagram."""
    k = m.n
    u = m.partner[2 * k - 1]
    if u == 2 * k:
        return ("B", k)
    du = DotRef.of_number(u)
    dw = DotRef.of_number(m.partner[2 * k])
    i, j = du.pos, dw.pos
    if du.row == TOP:
        if dw.row == TOP or i <= j:
            return ("B", shift_S(m, i))
        return ("T", j)
    if dw.row == BOT or i >= j:
        return ("T", i)
    return ("B", i)


def uplines_from_matchcode(code):
    """Uplines of tau(code), read off the code: one upline (i, j) per
    index i with odd (T,i) multiplicity, j the last position carrying i."""
    return _odd_pairs(validate_match_code(code), "T")


# ---------------------------------------------------------------------------
# Phi: trees -> matchings, violator/partner pairs -> uplines


def Phi_recursive(t: Tree) -> Matching:
    n = check_increasing_tree(t)
    return _Phi(t, n)


def _Phi(t, n):
    """Six-way case split on where n sits, one enlargement per level."""
    if n == 0:
        return EMPTY_MATCHING
    parent, children = tables_of(t)
    sibs = children[parent[n]]
    pos = sibs.index(n)
    if pos == len(sibs) - 1:
        p = parent[n]
        if p == 0:
            return enlarge(_Phi(prune_tree(t), n - 1), DotRef(BOT, n))
        if _is_violator(parent, children, p):
            return enlarge(_Phi(prune_tree(t), n - 1), DotRef(BOT, p))
        pruned = prune_tree(t)
        return enlarge(_Phi(pruned, n - 1), DotRef(TOP, H_map(pruned, p)))
    j = sibs[pos + 1]
    if _is_violator(parent, children, j):
        if _assoc_in(children, sibs, j) == n:
            return enlarge(_Phi(prune_tree(t), n - 1), DotRef(BOT, j))
        return enlarge(_Phi(prune_tree(involution_F(t)), n - 1), DotRef(BOT, j))
    pruned = prune_tree(involution_F(t))
    return enlarge(_Phi(pruned, n - 1), DotRef(TOP, violator_partner(pruned, j)))


def Phi_explicit(t: Tree) -> Matching:
    """The same map as Phi_recursive, as a composition: code t with
    sigma, swap letters, then realize the matching code with tau."""
    return tau(treecode_to_matchcode(sigma(t)))


# ---------------------------------------------------------------------------
# tau_variant: enlargements driven by weak downlines instead


def tau_variant(code) -> Matching:
    """Like tau, but a (B,i) entry with i < k uses top dot i when a weak
    downline hangs from it, and otherwise the partner of top dot i."""
    code = validate_match_code(code)
    m = EMPTY_MATCHING
    for k, (Y, i) in enumerate(code, start=1):
        if Y == "T":
            d = _tau_target(m, Y, i, k)
        elif i == k:
            d = DotRef(BOT, k)
        elif any(top == i for top, _ in weak_downlines(m)):
            d = DotRef(TOP, i)
        else:
            d = DotRef.of_number(m.partner[2 * i - 1])
        m = enlarge(m, d)
    return m
