"""Increasing ordered trees and their vertex statistics.

An increasing ordered tree on n edges has vertex labels 0..n (root 0),
every child labelled higher than its parent, and significant sibling
order.  There are (2n-1)!! of them.  This module holds the tree type,
the canonical enumeration, the sibling-based vertex statistics (cohort,
big cohort, associate, violators, bad vertices), and the tree-side
auxiliary maps F, H, pi and prune.

Text notation used throughout: root label followed by a parenthesised
child list, e.g. 0(1(3,6(11),9,4(10,5),2(8)),7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

# Sentinel for "associate of a vertex with empty big cohort".  It must
# compare above every label and satisfy INFINITY >= INFINITY; a float
# infinity does both and can never collide with an integer label.
INFINITY = math.inf


@dataclass(frozen=True)
class Tree:
    """A rooted ordered tree; children is a tuple of subtrees."""

    label: int
    children: tuple["Tree", ...] = ()

    def __repr__(self):
        return f"Tree.parse({tree_to_text(self)!r})"

    @staticmethod
    def parse(text: str) -> "Tree":
        return tree_from_text(text)


@dataclass(frozen=True)
class MarkedTree:
    """A violator-free tree together with a set of marked nodes.

    Every marked vertex must be a node, i.e. neither the root nor a
    leaf.  Validation happens in check_marked_tree, not here.
    """

    tree: Tree
    marked: frozenset[int]


# ---------------------------------------------------------------------------
# text / JSON forms


def tree_to_text(t: Tree) -> str:
    if not t.children:
        return str(t.label)
    return f"{t.label}({','.join(tree_to_text(c) for c in t.children)})"


def tree_from_text(text: str) -> Tree:
    """Parse the parenthesised notation, e.g. '0(2(5),3,1(4,7,6))'."""
    pos = 0

    def parse_node():
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ValueError(f"expected a label at offset {pos} in {text!r}")
        label = int(text[start:pos])
        kids = []
        if pos < len(text) and text[pos] == "(":
            pos += 1
            while True:
                kids.append(parse_node())
                if pos >= len(text):
                    raise ValueError(f"unclosed '(' in {text!r}")
                if text[pos] == ",":
                    pos += 1
                    continue
                if text[pos] == ")":
                    pos += 1
                    break
                raise ValueError(f"unexpected {text[pos]!r} at offset {pos}")
        return Tree(label, tuple(kids))

    t = parse_node()
    if pos != len(text.strip()):
        raise ValueError(f"trailing input at offset {pos} in {text!r}")
    return t


def tree_to_json(t: Tree) -> dict:
    return {"label": t.label, "children": [tree_to_json(c) for c in t.children]}


def tree_from_json(obj) -> Tree:
    if not isinstance(obj, dict) or "label" not in obj:
        raise ValueError("tree JSON must be an object with 'label'")
    label, kids = obj["label"], obj.get("children", [])
    if type(label) is not int:
        raise ValueError(f"tree JSON 'label' must be an integer, got {label!r}")
    if not isinstance(kids, list):
        raise ValueError(f"tree JSON 'children' must be a list, got {kids!r}")
    return Tree(label, tuple(tree_from_json(c) for c in kids))


def check_increasing_tree(t: Tree) -> int:
    """Validate labels {0..n} each once, root 0, child > parent; return n."""
    labels = []

    def walk(node, parent_label):
        if parent_label is not None and node.label <= parent_label:
            raise ValueError(
                f"child {node.label} does not exceed parent {parent_label}"
            )
        labels.append(node.label)
        for c in node.children:
            walk(c, node.label)

    walk(t, None)
    if t.label != 0:
        raise ValueError(f"root label must be 0, got {t.label}")
    n = len(labels) - 1
    if sorted(labels) != list(range(n + 1)):
        raise ValueError(f"labels are not exactly 0..{n}: {sorted(labels)}")
    return n


def check_marked_tree(mt: MarkedTree) -> int:
    n = check_increasing_tree(mt.tree)
    parent, children = tables_of(mt.tree)
    if _klazar_violators(parent, children):
        raise ValueError("marked tree must be violator-free")
    for u in mt.marked:
        if u not in children:
            raise ValueError(f"marked label {u} not in tree")
        if u == 0 or not children[u]:
            raise ValueError(f"marked vertex {u} is not a node")
    return n


# ---------------------------------------------------------------------------
# label-indexed tables: the workhorse form for everything sibling-based


def tables_of(t: Tree):
    """Return (parent, children) dicts; children values are fresh lists."""
    parent = {}
    children = {}

    def walk(node):
        children[node.label] = [c.label for c in node.children]
        for c in node.children:
            parent[c.label] = node.label
            walk(c)

    walk(t)
    return parent, children


def tree_from_tables(children, root=0) -> Tree:
    def freeze(v):
        return Tree(v, tuple(freeze(c) for c in children[v]))

    return freeze(root)


def _require_vertex(children, v, allow_root=False):
    if v not in children:
        raise ValueError(f"no vertex labelled {v}")
    if v == 0 and not allow_root:
        raise ValueError("the root has no siblings")


# The tree-editing steps shared by enumeration, codes, sigma, phi and F.


def _insert(parent, children, k, X, i):
    """Insert leaf k by build-code entry (X, i) and return (sibs, pos);
    deleting sibs[pos], children[k] and parent[k] undoes it."""
    p = i if X == "R" else parent[i]
    sibs = children[p]
    pos = len(sibs) if X == "R" else sibs.index(i)
    sibs.insert(pos, k)
    parent[k] = p
    children[k] = []
    return sibs, pos


def _remove_largest(parent, children, k):
    """Delete leaf k; return the build-code entry that reinserts it."""
    p = parent.pop(k)
    del children[k]
    sibs = children[p]
    pos = sibs.index(k)
    del sibs[pos]
    return ("L", sibs[pos]) if pos < len(sibs) else ("R", p)


def _big_cohort_start(sibs, pos):
    """Index in sibs where the big cohort of sibs[pos] begins (pos if empty)."""
    v = sibs[pos]
    while pos > 0 and sibs[pos - 1] > v:
        pos -= 1
    return pos


def _cohort_to_children(parent, children, u):
    """Move u's big cohort, up to and including its smallest entry, to
    the front of u's child list: F on a violator, one step of phi^-1."""
    sibs = children[parent[u]]
    upos = sibs.index(u)
    start = _big_cohort_start(sibs, upos)
    assert start < upos, "violators have a nonempty big cohort"
    end = sibs.index(min(sibs[start:upos]), start) + 1
    moved = sibs[start:end]
    del sibs[start:end]
    children[u][:0] = moved
    for w in moved:
        parent[w] = u


def _children_to_cohort(parent, children, u):
    """Move u's smallest child and that child's cohort to sit immediately
    left of u's big cohort: F on a complier, one step of phi."""
    kids = children[u]
    end = kids.index(min(kids)) + 1
    moved = kids[:end]
    del kids[:end]
    p = parent[u]
    sibs = children[p]
    start = _big_cohort_start(sibs, sibs.index(u))
    sibs[start:start] = moved
    for w in moved:
        parent[w] = p


# ---------------------------------------------------------------------------
# enumeration


def enumerate_increasing_trees(n: int):
    """Yield every n-edge increasing ordered tree exactly once.

    The order is ascending lexicographic order of the corresponding
    trapezoidal word: at step k the letter a_k in [1, 2k-1] means
    "insert k as rightmost child of (a_k-1)/2" when odd and "insert k
    as immediate left neighbour of a_k/2" when even.  This keeps trees,
    matchings, codes and words aligned position by position.
    """
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    parent = {}
    children = {0: []}

    def rec(k):
        if k > n:
            yield tree_from_tables(children)
            return
        for a in range(1, 2 * k):
            sibs, pos = _insert(parent, children, k, "R" if a % 2 else "L", a // 2)
            yield from rec(k + 1)
            del sibs[pos], children[k], parent[k]

    yield from rec(1)


def enumerate_shapes(n: int):
    """Yield all n-edge ordered shapes (nested tuples), Catalan(n) many."""
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for left in enumerate_shapes(k - 1):
            for rest in enumerate_shapes(n - k):
                yield (left,) + rest


def shape_of(t: Tree) -> tuple:
    return tuple(shape_of(c) for c in t.children)


def shape_edges(s) -> int:
    return sum(1 + shape_edges(c) for c in s)


def shape_leaves(s) -> int:
    if not s:
        return 1
    return sum(shape_leaves(c) for c in s)


# ---------------------------------------------------------------------------
# sibling statistics


def cohort(t: Tree, v: int) -> tuple:
    """Left siblings of v, in sibling order."""
    parent, children = tables_of(t)
    _require_vertex(children, v)
    sibs = children[parent[v]]
    return tuple(sibs[: sibs.index(v)])


def big_cohort(t: Tree, v: int) -> tuple:
    """Maximal suffix of cohort(t, v) whose entries all exceed v.

    Nonempty exactly when v is a descent terminator (its immediate
    left sibling exceeds it).
    """
    co = cohort(t, v) + (v,)
    return co[_big_cohort_start(co, len(co) - 1) : -1]


def associate(t: Tree, v: int):
    """Smallest entry of the big cohort, or INFINITY when it is empty."""
    bc = big_cohort(t, v)
    return min(bc) if bc else INFINITY


def _assoc_in(children, sibs, v):
    # associate computed from a sibling list, for table-level callers
    pos = sibs.index(v)
    best = INFINITY
    i = pos - 1
    while i >= 0 and sibs[i] > v:
        if sibs[i] < best:
            best = sibs[i]
        i -= 1
    return best


def klazar_violators(t: Tree) -> tuple:
    """Vertices whose associate is smaller than every child, ascending.

    min over no children is INFINITY, and INFINITY < INFINITY is false,
    so a leaf is a violator exactly when its big cohort is nonempty and
    a vertex with empty big cohort never qualifies.
    """
    return _klazar_violators(*tables_of(t))


def _klazar_violators(parent, children):
    return tuple(sorted(v for v in parent if _is_violator(parent, children, v)))


def _is_violator(parent, children, v):
    a = _assoc_in(children, children[parent[v]], v)
    m = min(children[v]) if children[v] else INFINITY
    return a < m


def violator_partner(t: Tree, v: int) -> int:
    """Rightmost child or closest left sibling of a violator, whichever
    is larger."""
    parent, children = tables_of(t)
    _require_vertex(children, v)
    if not _is_violator(parent, children, v):
        raise ValueError(f"{v} is not a Klazar violator")
    return _partner(parent, children, v)


def violator_partners(t: Tree) -> dict:
    """All (violator, partner) pairs of t as a dict."""
    parent, children = tables_of(t)
    return {v: _partner(parent, children, v) for v in parent if _is_violator(parent, children, v)}


def _partner(parent, children, v):
    sibs = children[parent[v]]
    left = sibs[sibs.index(v) - 1]
    return max(left, children[v][-1]) if children[v] else left


def bad_vertices(t: Tree) -> frozenset:
    """Vertices with a right neighbour that they either exceed or that
    they sit next to while having a child of their own."""
    return _bad_scan(tables_of(t)[1], reverse=False)


def reverse_bad_vertices(t: Tree) -> frozenset:
    """Mirror image of bad_vertices: left neighbour instead of right."""
    return _bad_scan(tables_of(t)[1], reverse=True)


def _bad_scan(children, reverse):
    # the reverse case is the same scan over mirrored sibling lists
    out = set()
    for sibs in children.values():
        sibs = sibs[::-1] if reverse else sibs
        for i, v in enumerate(sibs[:-1]):
            if v > sibs[i + 1] or children[v]:
                out.add(v)
    return frozenset(out)


def pi_leaf_map(t: Tree, leaf: int) -> int:
    """First vertex on the leaf-to-root path that has a left sibling.

    Undefined (raises) for the leaf terminating the leftmost root path.
    """
    parent, children = tables_of(t)
    _require_vertex(children, leaf)
    if children[leaf]:
        raise ValueError(f"{leaf} is not a leaf")
    v = leaf
    while v != 0:
        sibs = children[parent[v]]
        if sibs.index(v) > 0:
            return v
        v = parent[v]
    raise ValueError(f"leaf {leaf} terminates the leftmost path")


def pi_inverse(t: Tree, v: int) -> int:
    """Leaf at the end of the leftmost downward path from v."""
    parent, children = tables_of(t)
    _require_vertex(children, v)
    if v not in _bad_scan(children, reverse=True):
        raise ValueError(f"{v} is not reverse-bad")
    while children[v]:
        v = children[v][0]
    return v


# ---------------------------------------------------------------------------
# the involution F


def apply_F_tables(parent, children) -> None:
    """In-place F on tables.  See involution_F for the contract."""
    n = len(parent)  # labels are 1..n plus root 0
    sibs = children[parent[n]]
    pos = sibs.index(n)
    if pos == len(sibs) - 1:
        return
    j = sibs[pos + 1]
    if _is_violator(parent, children, j):
        # big cohort of j is P a Q n; P a become j's leftmost children
        if _assoc_in(children, sibs, j) != n:
            _cohort_to_children(parent, children, j)
    else:
        assert children[j], "a complier with n as left neighbour has children"
        _children_to_cohort(parent, children, j)


def involution_F(t: Tree) -> Tree:
    """Flip the violator/complier status of the right neighbour of n.

    Identity when n (the largest label) has no right neighbour, and in
    the degenerate case where the right neighbour j is a violator whose
    associate is n itself.  Otherwise, for a violator j with big cohort
    P a Q n (a the associate), P a become j's leftmost children; for a
    complier j, its smallest child and that child's cohort move to sit
    immediately left of j's big cohort.  Self-inverse; no violator other
    than j changes status, and no partner changes.
    """
    n = check_increasing_tree(t)
    if n < 1:
        raise ValueError("F needs at least one edge")
    parent, children = tables_of(t)
    apply_F_tables(parent, children)
    return tree_from_tables(children)


# ---------------------------------------------------------------------------
# H, prune, stats


def H_map(t: Tree, v: int) -> int:
    """Follow the partner-of-violator chain down from v.

    v must be a non-root complier.  While the current vertex is the
    partner of some violator w, step to w (labels strictly decrease);
    the first non-partner reached is H(v).  Restricted to compliant
    non-root vertices this is a bijection onto non-partner non-root
    vertices.
    """
    parent, children = tables_of(t)
    _require_vertex(children, v)
    return _H(parent, children, v)


def _H(parent, children, v):
    """H on tables.  A partner is the left neighbour or the rightmost
    child of its violator, so the one violator v can be partner of is
    its right neighbour, or its parent when v is a last child."""
    if _is_violator(parent, children, v):
        raise ValueError(f"{v} is a violator, H is not defined there")
    while True:
        p = parent[v]
        sibs = children[p]
        pos = sibs.index(v) + 1
        nxt = sibs[pos] if pos < len(sibs) else p
        if (
            nxt == 0
            or not _is_violator(parent, children, nxt)
            or _partner(parent, children, nxt) != v
        ):
            return v
        assert nxt < v
        v = nxt


def prune_tree(t: Tree) -> Tree:
    """Delete the largest label (always a leaf)."""
    n = check_increasing_tree(t)
    if n == 0:
        raise ValueError("cannot prune the root-only tree")
    parent, children = tables_of(t)
    _remove_largest(parent, children, n)
    return tree_from_tables(children)


@dataclass(frozen=True)
class VertexStats:
    leaves: int
    nodes: int
    klazar_violators: tuple
    bad: frozenset
    reverse_bad: frozenset
    non_dt_leaves: int
    descent_terminators: frozenset


def descent_terminators(t: Tree) -> frozenset:
    return _descent_terminators(*tables_of(t))


def _descent_terminators(parent, children):
    out = set()
    for v in parent:
        sibs = children[parent[v]]
        i = sibs.index(v)
        if i > 0 and sibs[i - 1] > v:
            out.add(v)
    return frozenset(out)


def tree_stats(t: Tree) -> VertexStats:
    """All the vertex statistics in one pass.

    Convention: the root-only tree reports one leaf, so that the
    zero-edge row of the refined count tables is consistent.  For
    n >= 1 leaves + nodes + 1 equals the vertex count.
    """
    parent, children = tables_of(t)
    dts = _descent_terminators(parent, children)
    leaves = [v for v in parent if not children[v]]
    if not parent:
        leaves = [0]
    nodes = [v for v in parent if children[v]]
    return VertexStats(
        leaves=len(leaves),
        nodes=len(nodes),
        klazar_violators=_klazar_violators(parent, children),
        bad=_bad_scan(children, reverse=False),
        reverse_bad=_bad_scan(children, reverse=True),
        non_dt_leaves=sum(1 for v in leaves if v not in dts),
        descent_terminators=dts,
    )


# ---------------------------------------------------------------------------
# shape-level weight


def w12_of_shape(s) -> int:
    """Number of violator-free increasing labelings of the shape s."""
    n = shape_edges(s)
    count = 0
    for children in _labelings(s, n):
        parent = {}
        for v, kids in children.items():
            for c in kids:
                parent[c] = v
        if not any(_is_violator(parent, children, v) for v in parent):
            count += 1
    return count


def _labelings(s, n):
    """Yield children tables for every increasing labeling of shape s.

    The root of a subtree is forced to take the smallest label handed
    to that subtree, so it is enough to split the available labels
    among the child subtrees in every way.
    """
    table = {}

    def fill(shape, root_label, avail):
        # avail: labels for the proper descendants of root_label
        sizes = [shape_edges(c) + 1 for c in shape]
        assert sum(sizes) == len(avail)
        table[root_label] = []

        def assign(idx, remaining):
            if idx == len(shape):
                yield
                return
            for chosen in combinations(remaining, sizes[idx]):
                rest = tuple(x for x in remaining if x not in chosen)
                r = min(chosen)
                table[root_label].append(r)
                sub = tuple(x for x in chosen if x != r)
                for _ in fill(shape[idx], r, sub):
                    yield from assign(idx + 1, rest)
                table[root_label].pop()

        yield from assign(0, tuple(avail))

    for _ in fill(s, 0, tuple(range(1, n + 1))):
        yield {v: list(k) for v, k in table.items()}


def klazar_weighted_sum(n: int) -> int:
    """Sum over n-edge shapes of w12(shape) * 2^(n - leaves(shape)).

    Computed exactly in rationals and asserted integral; the result
    equals (2n-1)!!.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    total = Fraction(0)
    for s in enumerate_shapes(n):
        total += Fraction(w12_of_shape(s)) * Fraction(2) ** (n - shape_leaves(s))
    assert total.denominator == 1
    return int(total)
