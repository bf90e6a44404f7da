"""Increasing ordered trees and their vertex statistics.

An increasing ordered tree on n edges has vertex labels 0..n (root 0),
every child labelled higher than its parent, and significant sibling
order.  There are (2n-1)!! of them.  This module holds the tree type,
the canonical enumeration, the sibling-based vertex statistics (cohort,
big cohort, associate, violators, bad vertices), and the tree-side
auxiliary maps F, H, pi and prune.  F runs inside sigma's two steps,
_delete_step (F, then delete) and _insert_step (insert, then F).

A tree is its label-indexed child table, Tree(kids).  The statistics
read it directly, the maps edit the lists of tables_of(t), and every
walk is a loop, so no tree size is limited by Python's recursion depth.

The Klazar (violator-free) trees are walked, not filtered.  Inserting
the largest label k raises no associate and adds no child below one, so
it cures no violator; it makes one only of its new right neighbour r,
whose big cohort gains k, exactly when r is a leaf.  So the family is closed
under deleting the largest label, and the walks drop k left of a leaf.

Text notation used throughout: root label followed by a parenthesised
child list, e.g. 0(1(3,6(11),9,4(10,5),2(8)),7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Sentinel for "associate of a vertex with empty big cohort".  It must
# compare above every label and satisfy INFINITY >= INFINITY; a float
# infinity does both and can never collide with an integer label.
INFINITY = math.inf


class Tree:
    """A rooted ordered tree: kids[v] is the tuple of v's children in
    sibling order, for v = 0..n, and the root is 0.  Treat it as
    immutable; it is hashable and compared by its table.

    Tree(kids) takes the child table, a sequence of tuples, e.g.
    Tree(((2, 1), (), ())) for 0(2,1).  It validates nothing:
    check_increasing_tree reports rows that are not tuples and repeated,
    missing or decreasing labels.
    """

    __slots__ = ("kids",)

    def __init__(self, kids):
        self.kids = tuple(kids)

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self.kids == other.kids

    def __hash__(self):
        return hash(self.kids)

    def __repr__(self):
        return f"tree_from_text({tree_to_text(self)!r})"


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


def _preorder(t: Tree):
    """Yield (label, depth) for every vertex of t in preorder."""
    kids, budget = t.kids, len(t.kids)
    stack = [(0, 0)]
    while stack:
        v, d = stack.pop()
        budget -= 1
        if budget < 0:  # only a malformed Tree(kids) can get here
            raise ValueError("the child table does not describe a tree")
        yield v, d
        stack.extend((c, d + 1) for c in reversed(kids[v]))


def tree_to_text(t: Tree) -> str:
    out, prev = [], 0
    for v, d in _preorder(t):
        if out:
            out.append("(" if d > prev else ")" * (prev - d) + ",")
        out.append(str(v))
        prev = d
    out.append(")" * prev)
    return "".join(out)


def tree_from_text(text: str) -> Tree:
    """Parse the parenthesised notation, e.g. '0(2(5),3,1(4,7,6))'."""
    pos, end = 0, len(text)
    root, edges, open_ = None, [], []  # open_: labels whose child list is being read
    while True:
        start = pos
        while pos < end and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ValueError(f"expected a label at offset {pos} in {text!r}")
        label = int(text[start:pos])
        if open_:
            edges.append((open_[-1], label))
        else:
            root = label
        if pos < end and text[pos] == "(":
            pos += 1
            open_.append(label)
            continue
        while open_:  # after a node: a comma opens its next sibling, ')' closes a list
            if pos >= end:
                raise ValueError(f"unclosed '(' in {text!r}")
            if text[pos] == ",":
                pos += 1
                break
            if text[pos] != ")":
                raise ValueError(f"unexpected {text[pos]!r} at offset {pos}")
            pos += 1
            open_.pop()
        else:
            break
    if pos != len(text.strip()):
        raise ValueError(f"trailing input at offset {pos} in {text!r}")
    return _tree_from_edges(root, edges)


def tree_to_json(t: Tree) -> dict:
    path = []  # the open node at each depth
    for v, d in _preorder(t):
        node = {"label": v, "children": []}
        del path[d:]
        if path:
            path[-1]["children"].append(node)
        path.append(node)
    return path[0]


def tree_from_json(obj) -> Tree:
    root, edges = None, []
    stack = [(None, obj)]
    while stack:
        p, node = stack.pop()
        if not isinstance(node, dict) or "label" not in node:
            raise ValueError("tree JSON must be an object with 'label'")
        label, kids = node["label"], node.get("children", [])
        if type(label) is not int:
            raise ValueError(f"tree JSON 'label' must be an integer, got {label!r}")
        if not isinstance(kids, list):
            raise ValueError(f"tree JSON 'children' must be a list, got {kids!r}")
        if p is None:
            root = label
        else:
            edges.append((p, label))
        stack.extend((label, c) for c in reversed(kids))
    return _tree_from_edges(root, edges)


def _tree_from_edges(root, edges) -> Tree:
    """The Tree with this root and these (parent, child) edges, listed in
    preorder.  The labels must be 0..n, each once, with root 0, since the
    child table has room for nothing else; increasing is not checked."""
    n = len(edges)
    if root != 0:
        raise ValueError(f"root label must be 0, got {root}")
    children = [[] for _ in range(n + 1)]
    placed = [True] + [False] * n
    for p, c in edges:
        if not 0 < c <= n or placed[c]:
            labels = sorted([root, *(c for _, c in edges)])
            raise ValueError(f"labels are not exactly 0..{n}: {labels}")
        placed[c] = True
        children[p].append(c)
    return Tree(map(tuple, children))


def check_increasing_tree(t: Tree) -> int:
    """Validate labels {0..n} each once, root 0, child > parent; return n.
    One pass checks each edge; then the n children must be 1..n."""
    kids = t.kids
    n = len(kids) - 1
    seen = [False] * (n + 1)
    for v, ks in enumerate(kids):
        if type(ks) is not tuple:  # a list row would make the tree unhashable
            raise ValueError(f"row {v} of the child table is not a tuple: {ks!r}")
        for c in ks:
            if type(c) is not int:  # True would read as 1, and 1.0 cannot index a table
                raise ValueError(f"label {c!r} is not an integer")
            if c <= v:
                raise ValueError(f"child {min(x for x in ks if type(x) is int)} does not exceed parent {v}")
            if c > n or seen[c]:
                raise ValueError(f"labels are not exactly 0..{n}")
            seen[c] = True
    if sum(map(len, kids)) != n:
        raise ValueError(f"labels are not exactly 0..{n}")
    return n


def check_marked_tree(mt: MarkedTree) -> int:
    n = check_increasing_tree(mt.tree)
    kids = mt.tree.kids
    if _klazar_violators(kids):
        raise ValueError("marked tree must be violator-free")
    for u in mt.marked:
        if not (type(u) is int and 0 <= u <= n):
            raise ValueError(f"marked label {u} not in tree")
        if u == 0 or not kids[u]:
            raise ValueError(f"marked vertex {u} is not a node")
    return n


# ---------------------------------------------------------------------------
# tables: the maps edit a list of child tuples (a thawed kids) and a parent list


def _parents(kids):
    """parent[v] for every label v of a child table; parent[0] is None."""
    parent = [None] * len(kids)
    for v, ks in enumerate(kids):
        for c in ks:
            parent[c] = v
    return parent


def tables_of(t: Tree):
    """The editable tables of t: (parent, children), lists indexed by
    label, with parent[0] None and children a list copy of t.kids."""
    return _parents(t.kids), list(t.kids)


def _require_vertex(children, v):
    if not (type(v) is int and 0 <= v < len(children)):
        raise ValueError(f"no vertex labelled {v}")
    if v == 0:
        raise ValueError("the root has no siblings")


# The tree-editing steps shared by enumeration, codes, phi and F.
# They rebind the sibling tuples they change.


def _insert(parent, children, k, a):
    """Insert leaf k = len(children) by word letter a: rightmost child of
    a // 2 if a is odd, else immediate left neighbour of a // 2; return
    (p, sibs) so that children[p] = sibs and popping both undoes it."""
    p = a // 2 if a % 2 else parent[a // 2]
    sibs = children[p]
    pos = len(sibs) if a % 2 else sibs.index(a // 2)
    children[p] = sibs[:pos] + (k,) + sibs[pos:]
    parent.append(p)
    children.append(())
    return p, sibs


def _remove_largest(parent, children, k):
    """Delete leaf k; return the word letter that reinserts it."""
    p = parent.pop(k)
    del children[k]
    sibs = children[p]
    pos = sibs.index(k)
    children[p] = sibs[:pos] + sibs[pos + 1:]
    return 2 * sibs[pos + 1] if pos + 1 < len(sibs) else 2 * p + 1


def _big_cohort_start(sibs, pos):
    """Index in sibs where the big cohort of sibs[pos] begins (pos if empty)."""
    v = sibs[pos]
    while pos > 0 and sibs[pos - 1] > v:
        pos -= 1
    return pos


def _cohort_to_children(parent, children, u):
    """Move u's big cohort, up to and including its smallest entry, to
    the front of u's child list: F on a violator, one step of phi^-1."""
    p = parent[u]
    sibs = children[p]
    upos = sibs.index(u)
    start = _big_cohort_start(sibs, upos)
    assert start < upos, "violators have a nonempty big cohort"
    end = sibs.index(min(sibs[start:upos]), start) + 1
    children[p] = sibs[:start] + sibs[end:]
    children[u] = sibs[start:end] + children[u]
    for w in sibs[start:end]:
        parent[w] = u


def _children_to_cohort(parent, children, u):
    """Move u's smallest child and that child's cohort to sit immediately
    left of u's big cohort: F on a complier, one step of phi."""
    kids = children[u]
    end = kids.index(min(kids)) + 1
    children[u] = kids[end:]
    p = parent[u]
    sibs = children[p]
    start = _big_cohort_start(sibs, sibs.index(u))
    children[p] = sibs[:start] + kids[:end] + sibs[start:]
    for w in kids[:end]:
        parent[w] = p


# ---------------------------------------------------------------------------
# enumeration


def enumerate_increasing_trees(n: int):
    """Yield every n-edge increasing ordered tree exactly once.

    The order is ascending lexicographic order of the corresponding
    trapezoidal word: at step k the letter a_k in [1, 2k-1] inserts k
    by _insert.  This keeps trees, matchings, codes and words aligned
    position by position.
    """
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    if n == 0:
        yield Tree(((),))
        return
    parent, children = [None], [()]
    stack = []  # (a_k, p, sibs) for each inner level k < n: its undo
    a, k = 1, 1
    while True:
        if a < 2 * k:
            p, sibs = _insert(parent, children, k, a)
            if k < n:
                stack.append((a, p, sibs))
                a, k = 1, k + 1
                continue
            yield Tree(children)
        elif k == 1:
            return
        else:
            a, p, sibs = stack.pop()
            k -= 1
        children[p] = sibs
        children.pop()
        parent.pop()
        a += 1


def enumerate_klazar_trees(n: int):
    """The violator-free trees of enumerate_increasing_trees(n), in its
    order: its walk, skipping a letter 2j that puts k left of a leaf j."""
    if n < 1:
        yield from enumerate_increasing_trees(n)
        return
    parent, children = [None], [()]
    stack = []  # (a_k, p, sibs) for each inner level k < n: its undo
    a, k = 1, 1
    while True:
        while a < 2 * k and a % 2 == 0 and not children[a // 2]:  # k would make the leaf a // 2 a violator
            a += 1
        if a < 2 * k:
            p, sibs = _insert(parent, children, k, a)
            if k < n:
                stack.append((a, p, sibs))
                a, k = 1, k + 1
                continue
            yield Tree(children)
        elif k == 1:
            return
        else:
            a, p, sibs = stack.pop()
            k -= 1
        children[p] = sibs
        children.pop()
        parent.pop()
        a += 1


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
    shapes = {}
    for v, _ in reversed(list(_preorder(t))):  # children before parents
        shapes[v] = tuple(shapes[c] for c in t.kids[v])
    return shapes[0]


def _subshapes(s) -> list:
    """The subshape at every vertex of s, breadth first: siblings are consecutive."""
    out = [s]
    for shape in out:
        out.extend(shape)
    return out


def shape_edges(s) -> int:
    return len(_subshapes(s)) - 1


def shape_leaves(s) -> int:
    return _subshapes(s).count(())


# ---------------------------------------------------------------------------
# sibling statistics


def cohort(t: Tree, v: int) -> tuple:
    """Left siblings of v, in sibling order."""
    kids = t.kids
    _require_vertex(kids, v)
    sibs = kids[_parents(kids)[v]]
    return sibs[: sibs.index(v)]


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


def _assoc_at(sibs, pos):
    # associate of sibs[pos], for table-level callers
    v, best = sibs[pos], INFINITY
    pos -= 1
    while pos >= 0 and sibs[pos] > v:
        if sibs[pos] < best:
            best = sibs[pos]
        pos -= 1
    return best


def klazar_violators(t: Tree) -> tuple:
    """Vertices whose associate is smaller than every child, ascending.

    min over no children is INFINITY, and INFINITY < INFINITY is false,
    so a leaf is a violator exactly when its big cohort is nonempty and
    a vertex with empty big cohort never qualifies.
    """
    return _klazar_violators(t.kids)


def _klazar_violators(children):
    # only a descent terminator (left neighbour larger) can be a violator
    out = []
    for sibs in children:
        if len(sibs) > 1:
            for pos in range(1, len(sibs)):
                if sibs[pos - 1] > sibs[pos] and _violates(children, sibs, pos):
                    out.append(sibs[pos])
    out.sort()
    return tuple(out)


def _violates(children, sibs, pos):
    # a descent terminator violates if it is a leaf or its associate is below every child
    kids = children[sibs[pos]]
    return not kids or _assoc_at(sibs, pos) < min(kids)


def _is_violator(parent, children, v):
    sibs = children[parent[v]]
    pos = sibs.index(v)
    return pos > 0 and sibs[pos - 1] > v and _violates(children, sibs, pos)


def violator_partners(t: Tree) -> dict:
    """All (violator, partner) pairs of t as a dict, violators ascending."""
    kids = t.kids
    parent = _parents(kids)
    return {v: _partner(parent, kids, v) for v in _klazar_violators(kids)}


def _partner(parent, children, v):
    sibs = children[parent[v]]
    left = sibs[sibs.index(v) - 1]
    return max(left, children[v][-1]) if children[v] else left


def bad_vertices(t: Tree) -> frozenset:
    """Vertices with a right neighbour that they either exceed or that
    they sit next to while having a child of their own."""
    return frozenset(_bad(t.kids, False))


def reverse_bad_vertices(t: Tree) -> frozenset:
    """Mirror image of bad_vertices: left neighbour instead of right."""
    return frozenset(_bad(t.kids, True))


def _bad(children, reverse):
    # the bad vertices, each once; the reverse case mirrors each sibling list
    rows = (sibs[::-1] for sibs in children) if reverse else children
    return [v for sibs in rows if len(sibs) > 1 for v, w in zip(sibs, sibs[1:]) if v > w or children[v]]


def pi_leaf_map(t: Tree, leaf: int) -> int:
    """First vertex on the leaf-to-root path that has a left sibling.

    Undefined (raises) for the leaf terminating the leftmost root path.
    """
    kids = t.kids
    _require_vertex(kids, leaf)
    if kids[leaf]:
        raise ValueError(f"{leaf} is not a leaf")
    parent = _parents(kids)
    v = leaf
    while v != 0:
        if kids[parent[v]].index(v) > 0:
            return v
        v = parent[v]
    raise ValueError(f"leaf {leaf} terminates the leftmost path")


def pi_inverse(t: Tree, v: int) -> int:
    """Leaf at the end of the leftmost downward path from v."""
    kids = t.kids
    _require_vertex(kids, v)
    if v not in _bad(kids, True):
        raise ValueError(f"{v} is not reverse-bad")
    while kids[v]:
        v = kids[v][0]
    return v


# ---------------------------------------------------------------------------
# the involution F


def _delete_step(parent, children, k):
    """Apply F, then delete leaf k = len(children) - 1: a step of sigma.
    Return the letter that reinserts k and whether k's right neighbour j
    was a violator.  F moves nothing across k or out of k's parent p, so
    the letter, 2j or 2p + 1, is read before F, and p's list is written once."""
    p = parent.pop()
    children.pop()
    sibs = children[p]
    pos = sibs.index(k)
    if pos + 1 == len(sibs):  # k is a last child, where F is the identity
        children[p] = sibs[:pos]
        return 2 * p + 1, False
    j = sibs[pos + 1]
    start = _big_cohort_start(sibs, pos + 1)
    cohort, kids = sibs[start:pos], children[j]  # j's big cohort is cohort + (k,)
    if not kids or cohort and min(cohort) < min(kids):  # a violator: P a become its first children
        end = start + cohort.index(min(cohort)) + 1 if cohort else start
        moved, children[j], to = sibs[start:end], sibs[start:end] + kids, j
        children[p] = sibs[:start] + sibs[end:pos] + sibs[pos + 1:]
    else:  # a complier: its smallest child and that child's cohort move left of its big cohort
        end = kids.index(min(kids)) + 1
        moved, children[j], to = kids[:end], kids[end:], p
        children[p] = sibs[:start] + moved + cohort + sibs[pos + 1:]
    for w in moved:
        parent[w] = to
    return 2 * j, to == j


def _insert_step(parent, children, k, a):
    """Insert leaf k = len(children) by word letter a, then apply F: a
    step of sigma^-1, undone by _delete_step.  F is the identity after an
    odd letter; after 2j, k is j's left neighbour and F flips j."""
    j = a // 2
    p = j if a % 2 else parent[j]
    parent.append(p)
    children.append(())
    if a % 2:
        children[p] += (k,)
        return
    sibs = children[p]
    pos = sibs.index(j)
    start = _big_cohort_start(sibs, pos)
    cohort, kids = sibs[start:pos], children[j]  # j's big cohort becomes cohort + (k,)
    if not kids or cohort and min(cohort) < min(kids):  # a violator: P a become its first children
        end = start + cohort.index(min(cohort)) + 1 if cohort else start
        moved, children[j], to = sibs[start:end], sibs[start:end] + kids, j
        children[p] = sibs[:start] + sibs[end:pos] + (k,) + sibs[pos:]
    else:  # a complier: its smallest child and that child's cohort move left of its big cohort
        end = kids.index(min(kids)) + 1
        moved, children[j], to = kids[:end], kids[end:], p
        children[p] = sibs[:start] + moved + cohort + (k,) + sibs[pos:]
    for w in moved:
        parent[w] = to


def apply_F_tables(parent, children) -> None:
    """In-place F on the tables of tables_of; see involution_F.  F moves
    nothing across n, so it is _delete_step with n put back by _insert."""
    n = len(children) - 1  # labels are 0..n
    _insert(parent, children, n, _delete_step(parent, children, n)[0])


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
    return Tree(children)


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
    kids = t.kids
    _require_vertex(kids, v)
    parent = _parents(kids)
    if _is_violator(parent, kids, v):
        raise ValueError(f"{v} is a violator, H is not defined there")
    return _H(parent, kids, v)


def _H(parent, children, v):
    """H on tables, from a complier v.  A partner is the left neighbour
    or the rightmost child of its violator, so the one violator v can be
    partner of is its right neighbour, or its parent when v is a last
    child."""
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
    return Tree(children)


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
    return frozenset(
        sibs[i] for sibs in t.kids for i in range(1, len(sibs)) if sibs[i - 1] > sibs[i]
    )


def tree_stats(t: Tree) -> VertexStats:
    """All the vertex statistics in one pass.

    Convention: the root-only tree reports one leaf, so that the
    zero-edge row of the refined count tables is consistent.  For
    n >= 1 leaves + nodes + 1 equals the vertex count.
    """
    kids = t.kids
    dts = descent_terminators(t)
    leaves = [v for v in range(1, len(kids)) if not kids[v]] or [0]
    return VertexStats(
        leaves=len(leaves),
        nodes=sum(1 for ks in kids[1:] if ks),
        klazar_violators=_klazar_violators(kids),
        bad=frozenset(_bad(kids, False)),
        reverse_bad=frozenset(_bad(kids, True)),
        non_dt_leaves=sum(1 for v in leaves if v not in dts),
        descent_terminators=dts,
    )


# ---------------------------------------------------------------------------
# shape-level weight


def w12_of_shape(s) -> int:
    """Number of violator-free increasing labelings of the shape s: labels
    1, 2, ... go in turn to a vertex with a labelled parent, never left of a
    labelled leaf, and as that cut and the count of completions depend only
    on the labelled set (a bit mask of breadth-first numbers), prefixes merge."""
    kids, right = [], [0]  # bit masks of each vertex's children and right siblings
    for shape in _subshapes(s):
        first, end = len(right), len(right) + len(shape)
        kids.append((1 << end) - (1 << first))
        right += [(1 << end) - (2 << c) for c in range(first, end)]
    layer = {1: (1, kids[0])}  # labelled set -> (labelings, vertices ready for the next label)
    for _ in kids[1:]:
        grown = {}
        for done, (count, ready) in layer.items():
            todo = ready
            while todo:
                i = (todo & -todo).bit_length() - 1
                todo &= todo - 1
                near = done & right[i]  # the nearest labelled right sibling is the lowest bit
                if not near or done & kids[(near & -near).bit_length() - 1]:
                    grown[done | 1 << i] = (grown.get(done | 1 << i, (0,))[0] + count, ready ^ 1 << i | kids[i])
        layer = grown
    return sum(count for count, _ in layer.values())


def klazar_weighted_sum(n: int) -> int:
    """Sum over n-edge shapes of w12(shape) * 2^(n - leaves(shape)).

    A shape has at most n leaves, so every term is an integer; the
    result equals (2n-1)!!.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return sum(w12_of_shape(s) << (n - shape_leaves(s)) for s in enumerate_shapes(n))
