"""Perfect matchings of [2n] as two-row dot diagrams.

Odd numbers sit on the top row (position i holds 2i-1), even numbers on
the bottom (position i holds 2i).  A match between an even number and a
larger odd number is an upline; an odd number matched to a weakly larger
even number is a weak downline (vertical when the positions tie); same
parity matches are arcs.  This module holds the diagram type, edge
classification, the enlarge/prune elevator between sizes, the shift map
S, the product decomposition of no-upline diagrams into arc matchings
plus a Stirling and a power part, and the three-class split behind the
size recurrence.  A dot is named only by its number x in [2n].  The
elevator is one in-place kernel on a partner list (_enlarge, _prune)
that enumeration, the codes, tau and the class-2 maps all walk, and
the codings read each upline question off one entry of it: bottom b
starts an upline iff partner[2b] is odd and > 2b; an upline ends at top
i iff partner[2i-1] is even and < 2i-1; a weak downline hangs from top
i iff partner[2i-1] is even and > 2i-1.  Every reader of a diagram's
lines lives here: uplines, weak_downlines and classify_edges return the
lines; the count readers _parity_pairs and _verticals serve the checks,
the CLI and this module wherever only a count or an emptiness test is read.
Each public map validates its input once and calls a _-prefixed kernel
on the partner table; the checks call the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Matching:
    """Perfect matching of [2n], stored as a partner table.

    partner is a tuple: partner[x] is the partner of x for x in 1..2n,
    and partner[0] is 0.  Immutable by convention, like Tree: hashable
    and compared by its table, so exhaustive checks can use sets.
    """

    __slots__ = ("partner",)

    def __init__(self, partner):
        self.partner = partner

    def __eq__(self, other):
        return self.partner == other.partner if isinstance(other, Matching) else NotImplemented

    def __hash__(self):
        return hash(self.partner)

    @property
    def n(self) -> int:
        return (len(self.partner) - 1) // 2

    def pairs(self) -> tuple:
        return tuple((x, y) for x, y in enumerate(self.partner) if x < y)

    def __repr__(self):
        return f"matching_from_text({matching_to_text(self)!r})"

    @staticmethod
    def from_pairs(pairs, n=None) -> "Matching":
        pairs = [tuple(sorted(p)) for p in pairs]
        if n is None:
            n = len(pairs)
        partner = [0] * (2 * n + 1)
        seen = set()
        for a, b in pairs:
            for x in (a, b):
                if not 1 <= x <= 2 * n:
                    raise ValueError(f"entry {x} outside [{2 * n}]")
                if x in seen:
                    raise ValueError(f"entry {x} repeated")
                seen.add(x)
            partner[a], partner[b] = b, a
        if len(seen) != 2 * n:
            raise ValueError("pairs do not cover [2n]")
        return Matching(tuple(partner))

    def to_json(self):
        return {"n": self.n, "pairs": [list(p) for p in self.pairs()]}

    @staticmethod
    def from_json(obj) -> "Matching":
        if not isinstance(obj, dict) or "pairs" not in obj:
            raise ValueError("matching JSON must be an object with 'pairs'")
        pairs, n = obj["pairs"], obj.get("n")
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)
            for p in pairs
        ):
            raise ValueError("matching JSON 'pairs' must be a list of integer pairs")
        if n is not None and type(n) is not int:
            raise ValueError(f"matching JSON 'n' must be an integer, got {n!r}")
        return Matching.from_pairs(pairs, n=n)


EMPTY_MATCHING = Matching((0,))


def matching_to_text(m: Matching) -> str:
    """Slash notation: '1 5/2 8/3 4/6 9/7 10'."""
    return "/".join(f"{a} {b}" for a, b in m.pairs())


def matching_from_text(text: str) -> Matching:
    text = text.strip()
    if not text:
        return EMPTY_MATCHING
    pairs = []
    for chunk in text.split("/"):
        parts = chunk.split()
        if len(parts) != 2:
            raise ValueError(f"bad pair {chunk!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return Matching.from_pairs(pairs)


# ---------------------------------------------------------------------------
# edge classification


class EdgeClasses(NamedTuple):
    """Row positions of each kind of match.

    uplines: (bottom pos, top pos) with top strictly further right;
    verticals: single positions; downlines: (top pos, bottom pos),
    bottom strictly further right; arcs: (pos, pos) within one row,
    smaller first.
    """

    uplines: frozenset
    verticals: frozenset
    downlines: frozenset
    top_arcs: frozenset
    bottom_arcs: frozenset


def classify_edges(m: Matching) -> EdgeClasses:
    """The five classes, read off the partner table: the lines from
    uplines and weak_downlines, the arcs as x < partner[x] of equal parity."""
    p = m.partner
    weak = weak_downlines(m)
    arcs = [(x, y) for x, y in enumerate(p) if x < y and (y - x) % 2 == 0]
    return EdgeClasses(
        uplines(m),
        frozenset(t for t, b in weak if t == b),
        frozenset((t, b) for t, b in weak if t != b),
        frozenset(((x + 1) // 2, (y + 1) // 2) for x, y in arcs if x % 2),
        frozenset((x // 2, y // 2) for x, y in arcs if not x % 2),
    )


def uplines(m: Matching) -> frozenset:
    """(bottom pos, top pos) of every upline: bottom b starts one iff
    partner[2b] is odd and > 2b."""
    p = m.partner
    return frozenset((x // 2, (p[x] + 1) // 2) for x in range(2, len(p), 2) if p[x] % 2 and p[x] > x)


def weak_downlines(m: Matching) -> frozenset:
    """Verticals and strict downlines together, as (top pos, bottom pos):
    top i starts one iff partner[2i-1] is even and > 2i-1."""
    p = m.partner
    return frozenset(((x + 1) // 2, p[x] // 2) for x in range(1, len(p), 2) if p[x] % 2 == 0 and p[x] > x)


def _parity_pairs(p):
    """(#even-to-odd, #odd-to-even) pairs of a partner table, read left to
    right: (#uplines, #weak downlines).  An odd x with an even partner
    ends an upline if the partner is smaller, else starts a weak downline."""
    up = down = 0
    for x in range(1, len(p), 2):
        if not p[x] % 2:
            up += p[x] < x
            down += p[x] > x
    return up, down


def _verticals(p):  # read off a partner table: odd x matched to x + 1
    return sum(1 for x in range(1, len(p), 2) if p[x] == x + 1)


# ---------------------------------------------------------------------------
# enlarge / prune


def enlarge(m: Matching, x: int) -> Matching:
    """Grow a size n-1 diagram to size n using dot number x.

    x = 2n is the 'new pair' move: the two new dots 2n-1 and 2n are
    joined to each other.  Otherwise the new top dot 2n-1 joins x, and
    x's former partner joins the new bottom dot 2n.  Over the 2n-1 legal
    dots 1..2n-2 and 2n this is a bijection onto size-n diagrams.
    """
    b = len(m.partner) + 1
    if type(x) is not int or x != b and not 1 <= x <= b - 2:  # a bool would read as 0 or 1
        raise ValueError(f"dot {x!r} is not in the size-{b // 2 - 1} diagram")
    partner = list(m.partner)
    _enlarge(partner, x)
    return Matching(tuple(partner))


def prune_matching(m: Matching):
    """Inverse of enlarge: returns (smaller diagram, the dot number used)."""
    partner = list(m.partner)
    x = _prune(partner)
    return Matching(tuple(partner)), x


def _enlarge(partner, x):
    """enlarge in place on a partner list, with the dot given by its
    number x; x must be a legal dot, which enlarge checks."""
    b = len(partner) + 1
    if x == b:
        partner += (b, b - 1)
        return
    y = partner[x]
    partner += (x, y)
    partner[x], partner[y] = b - 1, b


def _prune(partner):
    """prune_matching in place on a partner list; returns the dot number used."""
    b = len(partner) - 1
    if b == 0:
        raise ValueError("cannot prune the empty diagram")
    x, y = partner[b - 1], partner[b]
    del partner[b - 1:]
    if x != b:
        partner[x], partner[y] = y, x
    return x


def enumerate_matchings(n: int):
    """Yield every perfect matching of [2n] once, in canonical order.

    Canonical order is ascending lexicographic order of trapezoidal
    words carried through the codes: word letter a_k = 1 means the new
    pair, even a_k = 2i means top dot i, odd a_k = 2i+1 >= 3 means
    bottom dot i.  This aligns the k-th matching with the k-th tree.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n == 0:
        yield EMPTY_MATCHING
        return
    partner = [0]
    letters = []  # a_k for each inner level k < n; _prune undoes the latest
    a, k = 1, 1
    while True:
        if a < 2 * k:
            # letter a names dot a - 1, except a = 1: the new pair, dot 2k
            _enlarge(partner, a - 1 if a > 1 else 2 * k)
            if k < n:
                letters.append(a)
                a, k = 1, k + 1
                continue
            yield Matching(tuple(partner))
        elif k == 1:
            return
        else:
            a = letters.pop()
            k -= 1
        _prune(partner)
        a += 1


# ---------------------------------------------------------------------------
# shift map


def shift_S(m: Matching, i: int) -> int:
    """Follow uplines from bottom position i; stop at the first position
    that starts no upline.  Bottom i starts one iff partner[2i] is odd
    and greater than 2i, and it leads to top (partner[2i] + 1) / 2."""
    if type(i) is not int or not 1 <= i <= m.n:
        raise ValueError(f"position {i!r} out of range")
    return _shift(m.partner, i)


def _shift(partner, i):
    x = partner[2 * i]
    while x % 2 and x > 2 * i:
        i = (x + 1) // 2
        x = partner[2 * i]
    return i


# ---------------------------------------------------------------------------
# Stirling and power matchings


@dataclass(frozen=True)
class StirlingMatching:
    """Two rows of cols dots with disjoint strictly right-down edges.

    An edge (a, b) joins top position a to bottom position b with b > a.
    With k = cols - #edges, the (n, k) instances are counted by the
    Stirling partition number S(n, k).
    """

    cols: int
    edges: frozenset  # of (top, bottom) pairs


@dataclass(frozen=True)
class PowerMatching:
    """n bottom dots against k+n top dots, all bottoms matched left-up.

    Edge (a, b) joins top position a to bottom position b under the
    flush-right picture: legality is a <= k + b - 1, tops distinct.
    The (k, n) instances are counted by k**n.
    """

    top_count: int
    bottom_count: int
    edges: frozenset  # of (top, bottom) pairs


def check_stirling(sm: StirlingMatching) -> int:
    """Validate and return k = cols - #edges."""
    tops = [a for a, _ in sm.edges]
    bots = [b for _, b in sm.edges]
    if len(set(tops)) != len(tops) or len(set(bots)) != len(bots):
        raise ValueError("edges are not disjoint")
    for a, b in sm.edges:
        if not (1 <= a < b <= sm.cols):
            raise ValueError(f"edge ({a},{b}) is not strictly right-down")
    return sm.cols - len(sm.edges)


def check_power(pm: PowerMatching) -> int:
    """Validate and return k = top_count - bottom_count."""
    k = pm.top_count - pm.bottom_count
    if k < 0:
        raise ValueError("top row must be at least as long as the bottom")
    tops = [a for a, _ in pm.edges]
    bots = sorted(b for _, b in pm.edges)
    if bots != list(range(1, pm.bottom_count + 1)):
        raise ValueError("every bottom dot must be matched exactly once")
    if len(set(tops)) != len(tops):
        raise ValueError("top partners must be distinct")
    for a, b in pm.edges:
        if not 1 <= a <= pm.top_count:
            raise ValueError(f"top position {a} out of range")
        if a > k + b - 1:
            raise ValueError(f"edge ({a},{b}) is not strictly left-up")
    return k


def enumerate_stirling_matchings(n: int, k: int):
    """All (n, k) Stirling matchings; there are S(n, k) of them.

    Only legal diagrams are built.  The bottoms b = 1..n are scanned in
    turn: each stays unmatched or takes a top a < b not used yet, and a
    branch is cut as soon as the bottoms left cannot supply the n - k
    edges still missing.  A free top always exists (edges so far use at
    most b - 2 of the b - 1 tops left of b), so every branch not cut
    ends in a distinct diagram.  Each diagram costs at most n steps down
    an undo stack, each scanning fewer than n tops, plus its frozenset.
    The order is deterministic: at each bottom, unmatched first, then
    tops ascending.
    """
    if k < 0 or k > n:
        return
    edges, used = [], [False] * (n + 1)
    stack = []  # the choice at each bottom 1..b-1: 0 for unmatched, else its top
    b, a, need = 1, 0, n - k  # a: the next choice to try at bottom b
    while True:
        if need == 0 or need > n - b + 1 or a == b:  # a diagram, a cut branch, or no choice left
            if need == 0:
                yield StirlingMatching(n, frozenset(edges))
            if not stack:
                return
            a, b = stack.pop(), b - 1
            if a:
                used[a] = False
                edges.pop()
                need += 1
            a += 1
        elif a and used[a]:
            a += 1
        else:
            stack.append(a)
            if a:
                used[a] = True
                edges.append((a, b))
                need -= 1
            b, a = b + 1, 0


def enumerate_power_matchings(k: int, n: int):
    """All (k, n) power matchings; there are k**n of them.

    Only legal diagrams are built: bottom b = 1..n takes a free top in
    [1, k + b - 1].  The b - 1 earlier bottoms hold tops inside that
    range, so each step has exactly k choices and nothing is discarded.
    Each diagram costs n steps down an undo stack, each scanning fewer
    than k + n tops, plus its frozenset.  The order is deterministic:
    ascending lexicographic in the tuple of tops of bottoms 1..n.
    """
    if k < 0 or n < 0:
        return
    tops, used = [], [False] * (k + n + 1)
    b, a = 1, 1  # a: the next top to try at bottom b
    while True:
        if b > n or a == k + b:  # a diagram, or no top left at bottom b
            if b > n:
                yield PowerMatching(k + n, n, frozenset(zip(tops, range(1, n + 1))))
            if not tops:
                return
            a, b = tops.pop(), b - 1
            used[a] = False
            a += 1
        elif used[a]:
            a += 1
        else:
            used[a] = True
            tops.append(a)
            b, a = b + 1, 1


def stirling_to_partition(sm: StirlingMatching) -> tuple:
    """Set partition of [cols] read off a Stirling matching.

    An unmatched bottom dot i opens block 1 + (number of unmatched
    bottom dots to its left); a bottom dot i matched to top c lands in
    block c - (number of edges joining a top left of c to a bottom left
    of i).  Blocks come out in standard order.
    """
    check_stirling(sm)
    return _stirling_to_partition(sm)


def _stirling_to_partition(sm):
    n = sm.cols
    matched_bottom = {b: a for a, b in sm.edges}
    blocks, tops = {}, []  # tops: those of the matched bottoms left of i
    unmatched_seen = 0
    for i in range(1, n + 1):
        c = matched_bottom.get(i)
        if c is None:
            unmatched_seen += 1
            blocks.setdefault(unmatched_seen, []).append(i)
        else:
            blocks.setdefault(c - sum(a < c for a in tops), []).append(i)
            tops.append(c)
    out = [tuple(v) for _, v in sorted(blocks.items())]  # i ascends, so each block is sorted
    assert sorted(x for blk in out for x in blk) == list(range(1, n + 1))
    assert [b[0] for b in out] == sorted(b[0] for b in out)
    return tuple(out)


# ---------------------------------------------------------------------------
# decomposition of no-upline diagrams (arc parts + Stirling part + power part)


def _standardize(partner, support):
    """Rename the support (ascending, closed under partner) to 1..2k by
    rank and re-express the pairs."""
    rank = {x: r for r, x in enumerate(support, 1)}
    return Matching((0, *(rank[partner[x]] for x in support)))


def decompose_no_upline(m: Matching):
    """Split a no-upline diagram into its four independent parts.

    Returns (evenPM, oddPM, stirling, power) where evenPM and oddPM are
    the standardized matchings induced on the even-even and odd-odd
    supports (size k each), and the Stirling/power parts encode the
    mixed lines: with 2j the largest even-even number (j = 0 when there
    are no arcs), lines with bottom position below j shift one column
    right into a (j, 2k) Stirling matching, and the remaining lines,
    read against the top positions not used by the Stirling part, form
    a (2k+1, n-j) power matching whose phantom extra top dot sits at
    the far right.
    """
    if _parity_pairs(m.partner)[0]:
        raise ValueError("diagram has an upline")
    return _decompose(m)


def _decompose(m):
    n, p = m.n, m.partner
    A = [x for x in range(2, 2 * n + 1, 2) if p[x] % 2 == 0]
    B = [x for x in range(1, 2 * n, 2) if p[x] % 2]
    k = len(A) // 2
    assert len(B) == 2 * k
    even_pm = _standardize(p, A)
    odd_pm = _standardize(p, B)
    j = A[-1] // 2 if A else 0

    lines = weak_downlines(m)
    s_edges = frozenset((t, b + 1) for t, b in lines if b < j)
    stirling = StirlingMatching(j, s_edges)
    assert check_stirling(stirling) == 2 * k

    s_tops = {t for t, _ in s_edges}
    rest = [t for t in range(1, n + 1) if t not in s_tops]
    idx = {t: r for r, t in enumerate(rest, 1)}
    assert all(b != j for _, b in lines), "column j is always an arc bottom"
    p_edges = frozenset((idx[t], b - j) for t, b in lines if b > j)
    power = PowerMatching(2 * k + 1 + (n - j), n - j, p_edges)
    assert check_power(power) == 2 * k + 1
    return even_pm, odd_pm, stirling, power


def compose_no_upline(even_pm: Matching, odd_pm: Matching,
                      stirling: StirlingMatching, power: PowerMatching) -> Matching:
    """Inverse of decompose_no_upline."""
    k = even_pm.n
    if odd_pm.n != k:
        raise ValueError("arc matchings must have equal sizes")
    if check_stirling(stirling) != 2 * k:
        raise ValueError("Stirling part size does not match the arc count")
    if check_power(power) != 2 * k + 1:
        raise ValueError("power part size does not match the arc count")
    if any(a == power.top_count for a, _ in power.edges):
        raise ValueError("power edge uses the phantom top dot")
    return _compose(even_pm, odd_pm, stirling, power)


def _compose(even_pm, odd_pm, stirling, power):
    """compose_no_upline on valid parts, filling one partner list."""
    j, n = stirling.cols, stirling.cols + power.bottom_count
    partner = [0] * (2 * n + 1)
    s_tops = {t for t, _ in stirling.edges}
    rest = [t for t in range(1, n + 1) if t not in s_tops]
    lines = [(t, b - 1) for t, b in stirling.edges]
    lines += [(rest[a - 1], j + b) for a, b in power.edges]
    for t, b in lines:
        partner[2 * t - 1], partner[2 * b] = 2 * b, 2 * t - 1
    for pm, first in ((even_pm, 2), (odd_pm, 1)):
        free = [x for x in range(first, 2 * n + 1, 2) if not partner[x]]
        assert len(free) == 2 * even_pm.n, "component sizes are inconsistent"
        for x, y in zip(free, pm.partner[1:]):
            partner[x] = free[y - 1]
    assert not _parity_pairs(partner)[0]
    return Matching(tuple(partner))


# ---------------------------------------------------------------------------
# recurrence classes


def recurrence_class(m: Matching) -> int:
    """Which of the three recurrence classes a no-upline diagram is in.

    Class 1: the two last dots are matched to each other.  Class 2: the
    partner of 2n is odd, or even but larger than the partner of 2n-1.
    Class 3: the rest.  Comparisons are between the matched numbers in
    [2n], not row positions.
    """
    if _parity_pairs(m.partner)[0]:
        raise ValueError("recurrence classes are for no-upline diagrams")
    if m.n < 1:
        raise ValueError("empty diagram has no class")
    return _recurrence_class(m.partner)


def _recurrence_class(p):
    b = len(p) - 1  # the last dot, 2n
    if p[b] == b - 1:
        return 1
    return 2 if p[b] % 2 or p[b - 1] < p[b] else 3


def class2_reduce(m: Matching):
    """Strip the last column of a class-2 diagram.

    Returns (smaller diagram, top position of the former partner of
    2n-1).  In a class-2 no-upline diagram that partner is always odd,
    hence a top dot.
    """
    if recurrence_class(m) != 2:
        raise ValueError("not a class-2 diagram")
    partner = list(m.partner)
    i = _class2_reduce(partner)
    return Matching(tuple(partner)), i


def _class2_reduce(partner):
    """class2_reduce in place on a partner list: prune, then read the
    top position of the dot that pruning used."""
    return (_prune(partner) + 1) // 2


def class2_expand(m: Matching, i: int) -> Matching:
    """Inverse of class2_reduce: enlarge a no-upline diagram using top dot i."""
    if type(i) is not int or not 1 <= i <= m.n:
        raise ValueError(f"top position {i} out of range")
    if _parity_pairs(m.partner)[0]:
        raise ValueError("diagram has an upline")
    partner = list(m.partner)
    _class2_expand(partner, i)
    return Matching(tuple(partner))


def _class2_expand(partner, i):  # class2_expand in place on a partner list
    _enlarge(partner, 2 * i - 1)


def class3_reduce(m: Matching):
    """Strip a class-3 diagram down by its marked columns.

    With i the top position of the partner of 2n-1 and j the bottom
    position of the partner of 2n (so i > j), the set X collects j, i,
    and every vertical column strictly between them.  Those columns'
    dots, the two last dots, and the two partners disappear; surviving
    columns close ranks.  Returns (smaller diagram, X).
    """
    if recurrence_class(m) != 3:
        raise ValueError("not a class-3 diagram")
    p, X = _class3_reduce(m.partner)
    return Matching(p), X


def _class3_reduce(p):
    """class3_reduce on a partner table: (smaller partner table, X)."""
    n = len(p) // 2
    i, j = (p[2 * n - 1] + 1) // 2, p[2 * n] // 2
    mids = [v for v in range(j + 1, i) if p[2 * v - 1] == 2 * v]
    old = _class3_dots(n, j, i, mids)
    new = {x: y for y, x in enumerate(old)}
    return tuple(new[p[x]] for x in old), frozenset({j, i, *mids})


def class3_expand(m: Matching, X) -> Matching:
    """Inverse of class3_reduce: re-insert the columns named by X."""
    X = list(X)
    if any(type(x) is not int for x in X):
        raise ValueError("X must hold integers only")
    X.sort()
    if len(X) < 2:
        raise ValueError("X needs at least the two partner positions")
    n = m.n + len(X)
    if X[-1] > n - 1 or X[0] < 1:
        raise ValueError(f"X out of range for target size {n}")
    if len(set(X)) != len(X):
        raise ValueError(f"X repeats a position: {X}")
    if _parity_pairs(m.partner)[0]:
        raise ValueError("diagram has an upline")
    return Matching(_class3_expand(m.partner, X))


def _class3_expand(p, X):
    """class3_expand on a partner table and X in ascending order."""
    n = len(p) // 2 + len(X)
    j, i, mids = X[0], X[-1], X[1:-1]
    partner = [0] * (2 * n + 1)
    old = _class3_dots(n, j, i, mids)
    for y, x in enumerate(old):
        partner[x] = old[p[y]]
    partner[2 * i - 1], partner[2 * n - 1] = 2 * n - 1, 2 * i - 1
    partner[2 * j], partner[2 * n] = 2 * n, 2 * j
    for v in mids:
        partner[2 * v - 1], partner[2 * v] = 2 * v, 2 * v - 1
    return tuple(partner)


def _class3_dots(n, j, i, mids):
    """Old numbers of the dots class3_reduce keeps, listed by new number
    (entry 0 is 0): tops skip columns n, i, mids; bottoms n, j, mids."""
    tops = [2 * c - 1 for c in range(1, n) if c != i and c not in mids]
    bots = [2 * c for c in range(1, n) if c != j and c not in mids]
    return [0, *(x for pair in zip(tops, bots) for x in pair)]
