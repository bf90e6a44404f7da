"""Independent brute-force oracles for the test suite.

Nothing here imports the package under test.  Trees are plain dicts
{"label": int, "children": [...]}; matchings are collections of
(a, b) pairs with a < b.  Everything is written straight from the
definitions, favouring obviousness over speed.
"""

import math
from collections import Counter
from itertools import combinations, permutations

INF = math.inf


def bf_odd_double_factorial(m):
    # product of the odd numbers down from m; empty product for m in {-1, 1}
    out = 1
    while m >= 3:
        out *= m
        m -= 2
    return out


def bf_binomial(n, k):
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def bf_set_partitions(n):
    """All partitions of {1..n} as sorted tuples of sorted tuples,
    via restricted growth strings."""
    if n == 0:
        yield ()
        return

    def grow(rgs, mx):
        if len(rgs) == n:
            blocks = {}
            for i, b in enumerate(rgs, start=1):
                blocks.setdefault(b, []).append(i)
            yield tuple(tuple(blocks[b]) for b in sorted(blocks))
            return
        for b in range(mx + 2):
            yield from grow(rgs + [b], max(mx, b))

    yield from grow([0], 0)


def bf_stirling2(n, k):
    return sum(1 for p in bf_set_partitions(n) if len(p) == k)


def bf_stirling2_by_surjections(n, k):
    """Surjections of an n-set onto k labelled blocks, counted by
    inclusion-exclusion over the blocks missed, divided by k!."""
    if k < 0 or n < 0:
        return 0
    onto = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return onto // math.factorial(k)


def bf_stirling_matchings(n, k):
    """Every set of n - k disjoint edges (a, b), 1 <= a < b <= n, as a
    frozenset, grown top by top: each top is left out or joined to an
    unused bottom on its right."""

    def rec(a, used):
        if a > n:
            yield frozenset()
            return
        yield from rec(a + 1, used)
        for b in range(a + 1, n + 1):
            if b not in used:
                for more in rec(a + 1, used | {b}):
                    yield more | {(a, b)}

    return {edges for edges in rec(1, frozenset()) if len(edges) == n - k}


def bf_power_matchings(k, n):
    """Every choice of distinct tops t_1..t_n out of k + n with
    t_b <= k + b - 1, as the frozenset of edges (t_b, b)."""
    return {
        frozenset(zip(tops, range(1, n + 1)))
        for tops in permutations(range(1, k + n + 1), n)
        if all(t <= k + b - 1 for b, t in enumerate(tops, start=1))
    }


# ---------------------------------------------------------------------------
# matchings


def bf_matchings(n):
    """All perfect matchings of [2n] as frozensets of (a, b) pairs,
    by always pairing off the smallest unmatched element."""

    def rec(rest):
        if not rest:
            yield frozenset()
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            for more in rec(rest[1:i] + rest[i + 1:]):
                yield more | {(a, b)}

    yield from rec(list(range(1, 2 * n + 1)))


def bf_uplines(pairs):
    """(bottom pos, top pos) for each even number matched to a larger odd."""
    out = set()
    for a, b in pairs:
        e, o = (a, b) if a % 2 == 0 else (b, a)
        if e % 2 == 0 and o % 2 == 1 and o > e:
            out.add((e // 2, (o + 1) // 2))
    return out


def bf_weak_downlines(pairs):
    """(top pos, bottom pos) for each odd matched to a larger even;
    the verticals {2i-1, 2i} are included."""
    out = set()
    for a, b in pairs:
        o, e = (a, b) if a % 2 == 1 else (b, a)
        if o % 2 == 1 and e % 2 == 0 and e > o:
            out.add(((o + 1) // 2, e // 2))
    return out


def bf_classify(pairs):
    """The five classes of a matching's pairs (a, b), a < b, in row
    positions: uplines (bottom, top), verticals, strict downlines
    (top, bottom), top arcs and bottom arcs (left, right)."""
    up, vert, down, tarc, barc = set(), set(), set(), set(), set()
    for a, b in pairs:
        if a % 2 == 1 and b % 2 == 1:
            tarc.add(((a + 1) // 2, (b + 1) // 2))
        elif a % 2 == 0 and b % 2 == 0:
            barc.add((a // 2, b // 2))
        elif a % 2 == 0:  # the even end is the smaller one
            up.add((a // 2, (b + 1) // 2))
        elif (a + 1) // 2 == b // 2:
            vert.add(b // 2)
        else:
            down.add(((a + 1) // 2, b // 2))
    return up, vert, down, tarc, barc


def bf_shift(pairs, i):
    """Follow uplines from bottom dot i while one starts there."""
    starts = dict(bf_uplines(pairs))
    while i in starts:
        i = starts[i]
    return i


def bf_enlarge(pairs, n, x):
    """Grow size n - 1 pairs to size n with dot number x: x = 2n joins
    the two new dots 2n - 1 and 2n; otherwise 2n - 1 joins x and the
    former partner of x joins 2n."""
    if x == 2 * n:
        return set(pairs) | {(2 * n - 1, 2 * n)}
    (y,) = [b if a == x else a for a, b in pairs if x in (a, b)]
    return (set(pairs) - {(min(x, y), max(x, y))}) | {(x, 2 * n - 1), (y, 2 * n)}


def _bf_tau_dot(pairs, Y, i, k):
    """tau's dot for entry (Y, i) at step k, from the whole upline set:
    (B,k) is the new pair; (T,i) the top where an upline from bottom i
    ends, else bottom i; (B,i) bottom i when an upline starts there,
    else the first top of the upline chain that ends at top i."""
    starts = dict(bf_uplines(pairs))
    ends = {t: b for b, t in starts.items()}
    if Y == "T":
        return 2 * starts[i] - 1 if i in starts else 2 * i
    if i == k or i in starts:
        return 2 * i
    while i in ends:
        i = ends[i]
    return 2 * i - 1


def bf_tau(code):
    """tau on plain pairs, consulting every upline afresh at each step."""
    pairs = set()
    for k, (Y, i) in enumerate(code, start=1):
        pairs = bf_enlarge(pairs, k, _bf_tau_dot(pairs, Y, i, k))
    return pairs


def bf_tau_variant(code):
    """tau, except that (B,i) with i < k uses top dot i when a weak
    downline hangs from it and otherwise the partner of top dot i."""
    pairs = set()
    for k, (Y, i) in enumerate(code, start=1):
        if Y == "B" and i < k:
            if any(t == i for t, _ in bf_weak_downlines(pairs)):
                x = 2 * i - 1
            else:
                (x,) = [b if a == 2 * i - 1 else a for a, b in pairs if 2 * i - 1 in (a, b)]
        else:
            x = _bf_tau_dot(pairs, Y, i, k)
        pairs = bf_enlarge(pairs, k, x)
    return pairs


def bf_class3_reduce(pairs, n):
    """The class-3 reduction on plain pairs of a size-n diagram: i is the
    top of the partner of 2n - 1, j the bottom of the partner of 2n, and
    X holds j, i and every vertical column strictly between them.  The
    dots of those columns' rows (top for i, bottom for j, both for the
    verticals), the two last dots and their partners go; the survivors
    of each row are renumbered by rank.  Returns (pairs, X)."""
    pairs = {tuple(sorted(p)) for p in pairs}
    partner = {a: b for a, b in pairs} | {b: a for a, b in pairs}
    i, j = (partner[2 * n - 1] + 1) // 2, partner[2 * n] // 2
    mids = {v for v in range(j + 1, i) if (2 * v - 1, 2 * v) in pairs}
    dead = {2 * n - 1, 2 * n, partner[2 * n - 1], partner[2 * n]}
    dead |= {2 * v - 1 for v in mids} | {2 * v for v in mids}
    tops = [x for x in range(1, 2 * n + 1, 2) if x not in dead]
    bots = [x for x in range(2, 2 * n + 1, 2) if x not in dead]
    rank = {x: 2 * r - 1 for r, x in enumerate(tops, 1)}
    rank.update({x: 2 * r for r, x in enumerate(bots, 1)})
    small = {
        tuple(sorted((rank[a], rank[b])))
        for a, b in pairs if a not in dead and b not in dead
    }
    return small, {j, i} | mids


# ---------------------------------------------------------------------------
# trees (JSON form)


def bf_trees(n):
    """All increasing ordered trees with labels 0..n, grown by inserting
    each label in turn as a new child at every possible position."""
    base = {"label": 0, "children": []}
    pool = [base]
    for k in range(1, n + 1):
        nxt = []
        for t in pool:
            nxt.extend(_insert_everywhere(t, k))
        pool = nxt
    return pool


def _insert_everywhere(t, k):
    out = []
    for slot in range(len(t["children"]) + 1):
        kids = list(t["children"])
        kids.insert(slot, {"label": k, "children": []})
        out.append({"label": t["label"], "children": kids})
    for i, c in enumerate(t["children"]):
        for sub in _insert_everywhere(c, k):
            kids = list(t["children"])
            kids[i] = sub
            out.append({"label": t["label"], "children": kids})
    return out


def _tables(t, parent=None, table=None):
    if table is None:
        parent, table = {}, {}
    table[t["label"]] = [c["label"] for c in t["children"]]
    for c in t["children"]:
        parent[c["label"]] = t["label"]
        _tables(c, parent, table)
    return parent, table


def bf_violators(t):
    """v is a violator when the smallest left sibling among the maximal
    run of left siblings exceeding v is smaller than all of v's children."""
    parent, children = _tables(t)
    out = set()
    for v in parent:
        sibs = children[parent[v]]
        pos = sibs.index(v)
        run = []
        while pos > 0 and sibs[pos - 1] > v:
            pos -= 1
            run.append(sibs[pos])
        a = min(run) if run else INF
        first_child = min(children[v]) if children[v] else INF
        if a < first_child:
            out.add(v)
    return out


def bf_bad(t):
    """v is bad when it has a right neighbour that it exceeds, or a right
    neighbour while having a child."""
    _, children = _tables(t)
    out = set()
    for sibs in children.values():
        for i, v in enumerate(sibs[:-1]):
            if v > sibs[i + 1] or children[v]:
                out.add(v)
    return out


def bf_reverse_bad(t):
    _, children = _tables(t)
    out = set()
    for sibs in children.values():
        for i, v in enumerate(sibs):
            if i > 0 and (v > sibs[i - 1] or children[v]):
                out.add(v)
    return out


def bf_leaves(t):
    _, children = _tables(t)
    if len(children) == 1:
        return 1
    return sum(1 for v, kids in children.items() if not kids)


def bf_marked_klazar(n):
    """All (violator-free tree, mark set) pairs at n edges; marks range
    over subsets of the non-root internal vertices."""
    for t in bf_trees(n):
        if bf_violators(t):
            continue
        parent, children = _tables(t)
        interior = [v for v in parent if children[v]]
        for r in range(len(interior) + 1):
            for marks in combinations(interior, r):
                yield t, frozenset(marks)


def bf_swap(code):
    """The paper's letter swap between build-tree and build-matching
    codes, either way: R<->B and L<->T, with (R, 0) at step k traded for
    (B, k)."""
    out = []
    for k, (x, i) in enumerate(code, start=1):
        if x == "R":
            out.append(("B", k if i == 0 else i))
        elif x == "B":
            out.append(("R", 0 if i == k else i))
        else:
            out.append(({"L": "T", "T": "L"}[x], i))
    return tuple(out)


def bf_odd_pairs(code, letter):
    """(i, j) for each index i that an odd number of (letter, i) entries
    carry, j the last (1-based) position whose entry carries index i."""
    counts = Counter(i for x, i in code if x == letter)
    last = {i: pos for pos, (_, i) in enumerate(code, start=1)}
    return {(i, last[i]) for i, c in counts.items() if c % 2}


def bf_word_parity(word):
    counts = Counter(word)
    evens = sum(1 for v, c in counts.items() if v % 2 == 0 and c % 2 == 1)
    odds = sum(1 for v, c in counts.items() if v % 2 == 1 and c % 2 == 1)
    return evens, odds
