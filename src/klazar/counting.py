"""Exact counting: closed formulas, recurrences, and exhaustive tallies.

Everything here is integer-exact (Python ints, Fractions only where a
proof obligation involves division).  Out-of-range Stirling and binomial
lookups return 0 instead of raising, which keeps the recurrences free of
edge-case branches.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .tree_core import _bad, enumerate_increasing_trees


def odd_double_factorial(m: int) -> int:
    """m!! for odd m >= -1, with (-1)!! = 1."""
    if m < -1 or m % 2 == 0:
        raise ValueError(f"need an odd integer >= -1, got {m}")
    out = 1
    for f in range(1, m + 1, 2):
        out *= f
    return out


def binomial(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


_STIRLING_ROWS = [[1]]  # row n holds S(n, 0..n); rows are added, never changed


def stirling2(n: int, k: int) -> int:
    """Partition count of an n-set into k nonempty blocks; 0 out of range.
    Rows are built by a loop, so no n is limited by the recursion depth."""
    if k < 0 or k > n:
        return 0
    rows = _STIRLING_ROWS
    while len(rows) <= n:
        prev = rows[-1]
        rows.append([0, *(prev[j - 1] + j * prev[j] for j in range(1, len(prev))), 1])
    return rows[n][k]


def w12_sequence(max_n: int) -> list:
    """w(0..max_n): w(n) = w(n-1) + sum_{i=1}^{n-1} w(i) C(n-1, i-1).

    Starts 1, 1, 2, 7, 35, 226, 1787, 16717.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    w = [1]
    for n in range(1, max_n + 1):
        w.append(w[n - 1] + sum(w[i] * binomial(n - 1, i - 1) for i in range(1, n)))
    return w


# ---------------------------------------------------------------------------
# matchings without uplines: product formulas


def no_upline_refined(n: int, k: int) -> int:
    """Upline-free matchings of [2n] with k arcs in each row: (2k-1)!!^2 S(n+1, 2k+1)."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    return odd_double_factorial(2 * k - 1) ** 2 * stirling2(n + 1, 2 * k + 1)


def no_upline_refined2(n: int, k: int, j: int) -> int:
    """Same population refined by j = last column touched by a bottom arc
    (j = 0 when k = 0): (2k-1)!!^2 S(j, 2k) (2k+1)^(n-j)."""
    if n < 0 or k < 0 or j < 0 or j > n:
        raise ValueError("need 0 <= j <= n and k >= 0")
    return odd_double_factorial(2 * k - 1) ** 2 * stirling2(j, 2 * k) * (2 * k + 1) ** (n - j)


def no_upline_count(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(no_upline_refined(n, k) for k in range(n // 2 + 1))


def eq4_terms(n: int):
    """The three-way split of no_upline_count(n) by recurrence class.

    Returns (a(n-1), (n-1) a(n-1), sum_k C(n-1, k+2) a(n-2-k)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    a = no_upline_count
    t1 = a(n - 1)
    t2 = (n - 1) * a(n - 1)
    t3 = sum(binomial(n - 1, k + 2) * a(n - 2 - k) for k in range(n - 1))
    assert t1 + t2 + t3 == a(n)
    return t1, t2, t3


# ---------------------------------------------------------------------------
# refined tree tables


@dataclass(frozen=True)
class CountTable:
    """Sparse nonnegative-integer table; absent indices count as zero."""

    dim: int
    entries: dict

    def __post_init__(self):
        for idx, v in self.entries.items():
            if len(idx) != self.dim:
                raise ValueError(f"index {idx} has wrong dimension")
            if v < 0:
                raise ValueError(f"negative entry at {idx}")

    def ranges(self):
        """Inclusive (lo, hi) bounds per axis over the stored support."""
        if not self.entries:
            return tuple((0, -1) for _ in range(self.dim))
        cols = list(zip(*self.entries))
        return tuple((min(c), max(c)) for c in cols)

    def to_json(self):
        ranges = self.ranges()

        def build(axis, prefix):
            lo, hi = ranges[axis]
            if axis == self.dim - 1:
                return [self.entries.get(prefix + (i,), 0) for i in range(lo, hi + 1)]
            return [build(axis + 1, prefix + (i,)) for i in range(lo, hi + 1)]

        return {
            "dim": self.dim,
            "ranges": [list(r) for r in ranges],
            "values": build(0, ()) if self.entries else [],
        }


def refined_tree_counts(max_n: int) -> CountTable:
    """Table over (n, i, j): trees with n edges, i violators, j leaves that
    are not descent terminators.

    Recurrence for n >= 2:
        a[n,i,j] = j a[n-1,i,j] + j a[n-1,i-1,j] + (2n-2j+1) a[n-1,i,j-1].
    Levels 0 and 1 are pinned by hand: the raw step from level 0 would put
    -1 at (1,0,2) and +1 at (1,1,1), both of which must be 0.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    entries = {(0, 0, 1): 1}
    if max_n >= 1:
        entries[(1, 0, 1)] = 1
    for n in range(2, max_n + 1):
        prev = lambda i, j: entries.get((n - 1, i, j), 0)
        for i in range(0, n + 1):
            for j in range(1, n + 1):
                v = j * prev(i, j) + j * prev(i - 1, j) + (2 * n - 2 * j + 1) * prev(i, j - 1)
                assert v >= 0
                if v:
                    entries[(n, i, j)] = v
    return CountTable(3, entries)


def refined_tree_counts4(max_n: int) -> CountTable:
    """Table over (n, i, j, k): i violators, j non-descent-terminator leaves,
    k leaves in total.

    Recurrence for n >= 3:
        a[n,i,j,k] = j a[n-1,i,j,k] + j a[n-1,i-1,j,k-1]
                     + (k-j+1) a[n-1,i,j-1,k] + (2n-k-j+1) a[n-1,i,j-1,k-1].
    Levels n <= 2 are the listed initial values.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    seed = [
        {(0, 0, 1, 1): 1},
        {(1, 0, 1, 1): 1},
        {(2, 0, 2, 2): 1, (2, 0, 1, 1): 1, (2, 1, 1, 2): 1},
    ]
    entries = {}
    for level in seed[: max_n + 1]:
        entries.update(level)
    for n in range(3, max_n + 1):
        prev = lambda i, j, k: entries.get((n - 1, i, j, k), 0)
        for i in range(0, n + 1):
            for j in range(1, n + 1):
                for k in range(j, n + 1):
                    v = (
                        j * prev(i, j, k)
                        + j * prev(i - 1, j, k - 1)
                        + (k - j + 1) * prev(i, j - 1, k)
                        + (2 * n - k - j + 1) * prev(i, j - 1, k - 1)
                    )
                    assert v >= 0
                    if v:
                        entries[(n, i, j, k)] = v
    return CountTable(4, entries)


def bad_vertex_distribution(n: int) -> dict:
    """Exhaustive tally over all n-edge trees of 1 + #bad vertices.

    The shift by one makes the keys line up with the marker exponent of
    the corresponding generating function (series.gf_Fstarstar).
    """
    if n < 1:
        raise ValueError("n must be positive")
    counts = Counter(1 + len(_bad(t.kids, False)) for t in enumerate_increasing_trees(n))
    return dict(sorted(counts.items()))
