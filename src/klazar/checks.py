"""The paper's claims, checked exhaustively at small n.

Each check_* takes max_n and returns (passed, first counterexample or
None, NOTE lines); CHECKS lists them with their default max_n in the
order `klazar verify --check all` runs them.  The library is called
through module attributes, so a rebound module function reaches the
checks too.  The objects come from the enumerators and are valid by
construction: no check validates them, each calls the _-prefixed
kernels and reads its counts off the child or partner tables.  The
partner-table count readers, matching_core._parity_pairs and
_verticals, live beside the line readers they count.  The one
exception is check_class_split: it calls the public recurrence_class
and class-2/3 maps, and those validate each diagram again.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from . import bijections, codes, counting, matching_core, series, tree_core

REFERENCE_ROWS = {
    1: [1],
    2: [2, 1],
    3: [4, 10, 1],
    4: [8, 60, 36, 1],
    5: [16, 296, 516, 116, 1],
    7: [64, 5664, 42960, 64240, 21120, 1086, 1],
}
ROW6_DERIVED = [32, 1328, 5168, 3508, 358, 1]


def _kv_list(d):
    return [[list(k) if isinstance(k, tuple) else k, v] for k, v in sorted(d.items())]


def _tree_stat_tally(n, width):
    """Tally n-edge trees by (#violators, #non-DT leaves, #leaves)[:width],
    read off the child table; the root-only tree has one leaf, as in tree_stats."""
    tally = Counter()
    for t in tree_core.enumerate_increasing_trees(n):
        dts = tree_core.descent_terminators(t)
        leaves = [v for v, ks in enumerate(t.kids) if not ks]
        violators = tree_core._klazar_violators(t.kids)
        tally[(len(violators), sum(v not in dts for v in leaves), len(leaves))[:width]] += 1
    return dict(tally)


def check_eq1(max_n):
    for n in range(max_n + 1):
        want = counting.odd_double_factorial(2 * n - 1)
        got = {
            "trees": sum(1 for _ in tree_core.enumerate_increasing_trees(n)),
            "matchings": sum(1 for _ in matching_core.enumerate_matchings(n)),
            "tree-codes": sum(1 for _ in codes.enumerate_tree_codes(n)),
            "words": sum(1 for _ in codes.enumerate_words(n)),
        }
        for kind, c in got.items():
            if c != want:
                return False, {"n": n, "kind": kind, "count": c, "expected": want}, []
    return True, None, []


def check_eq3(max_n):
    for n in range(max_n + 1):
        want = counting.odd_double_factorial(2 * n - 1)
        total = sum(
            1 << (n - t.kids[1:].count(()))  # 2 ** #interior vertices
            for t in tree_core.enumerate_increasing_trees(n)
            if not tree_core._klazar_violators(t.kids)
        )
        if total != want:
            return False, {"n": n, "sum": total, "expected": want}, []
        if n >= 1:
            ws = tree_core.klazar_weighted_sum(n)
            if ws != want:
                return False, {"n": n, "weighted_sum": ws, "expected": want}, []
    return True, None, []


def check_eq2_vs_enum(max_n):
    notes = ["NOTE: the radicand denominator is 2-e^x; the sometimes-quoted "
             "variant 2-x does not reproduce the sequence"]
    w = counting.w12_sequence(max_n)
    gf = series.gf_w12(max_n)
    for n in range(max_n + 1):
        klazar = sum(
            1 for t in tree_core.enumerate_increasing_trees(n) if not tree_core._klazar_violators(t.kids)
        )
        values = {
            "recurrence": w[n],
            "enumeration": klazar,
            "formula": counting.no_upline_count(n),
            "series": gf.scalar(n),
        }
        if len(set(values.values())) != 1:
            return False, {"n": n, **{k: int(v) for k, v in values.items()}}, notes
    return True, None, notes


def check_theorem2(max_n):
    notes = []
    gf = series.gf_Fstarstar(max_n)
    for n in range(1, max_n + 1):
        dist = counting.bad_vertex_distribution(n)
        coeff = {l: int(c) for (l,), c in gf.coefficient(n).items()}
        if dist != coeff:
            return False, {"n": n, "tally": dist, "series": coeff}, notes
        row = [dist.get(l, 0) for l in range(1, n + 1)]
        expected = ROW6_DERIVED if n == 6 else REFERENCE_ROWS.get(n)
        if expected is not None and row != expected:
            return False, {"n": n, "row": row, "expected": expected}, notes
        if n == 6:
            notes.append(
                "NOTE: enumeration and the closed form agree on a(6,2)=1328 and "
                "a(6,3)=5168; a sometimes-quoted row has 128 (a dropped digit) "
                "and 5158 there. Repairing 128 to 1338 alone also restores the "
                "row sum 10395 = 11!! but contradicts both routes."
            )
    return True, None, notes


def check_theorem3(max_n):
    table = counting.refined_tree_counts(max_n)
    gf = series.gf_trivariate(max_n)
    for n in range(1, max_n + 1):
        tally = _tree_stat_tally(n, 2)
        from_table = {(i, j): v for (nn, i, j), v in table.entries.items() if nn == n}
        if tally != from_table:
            return False, {"n": n, "tally": _kv_list(tally), "recurrence": _kv_list(from_table)}, []
        coeff = {k: int(c) for k, c in gf.coefficient(n).items()}
        if tally != coeff:
            return False, {"n": n, "tally": _kv_list(tally), "series": _kv_list(coeff)}, []
    return True, None, []


def check_quadrivariate(max_n):
    table = counting.refined_tree_counts4(max_n)
    for n in range(max_n + 1):
        tally = _tree_stat_tally(n, 3)
        from_table = {k[1:]: v for k, v in table.entries.items() if k[0] == n}
        if tally != from_table:
            return False, {"n": n, "tally": _kv_list(tally), "recurrence": _kv_list(from_table)}, []
    return True, None, []


def check_pm_formula(max_n):
    for n in range(max_n + 1):
        tally = Counter()  # no-upline diagrams by (#even-even pairs, largest such end / 2)
        for p in (m.partner for m in matching_core.enumerate_matchings(n)):
            if not matching_core._parity_pairs(p)[0]:
                ends = [x for x in range(2, len(p), 2) if p[x] < x and not p[x] % 2]
                tally[(len(ends), ends[-1] // 2 if ends else 0)] += 1
        for k in range(n // 2 + 1):
            want = counting.no_upline_refined(n, k)
            got = sum(v for (kk, _), v in tally.items() if kk == k)
            if got != want:
                return False, {"n": n, "k": k, "count": got, "formula": want}, []
            for j in range(n + 1):
                want2 = counting.no_upline_refined2(n, k, j)
                got2 = tally.get((k, j), 0)
                if got2 != want2:
                    return False, {"n": n, "k": k, "j": j, "count": got2, "formula": want2}, []
    return True, None, []


def check_theorem8(max_n):
    for n in range(max_n + 1):
        for m in matching_core.enumerate_matchings(n):
            if matching_core._parity_pairs(m.partner)[0]:
                continue
            back = matching_core._compose(*matching_core._decompose(m))
            if back != m:
                return False, {"n": n, "matching": m.to_json(), "recomposed": back.to_json()}, []
    return True, None, []


def check_class_split(max_n):
    for n in range(1, max_n + 1):
        by_class = {1: [], 2: [], 3: []}
        for m in matching_core.enumerate_matchings(n):
            if not matching_core._parity_pairs(m.partner)[0]:
                by_class[matching_core.recurrence_class(m)].append(m)
        t1, t2, t3 = counting.eq4_terms(n)
        sizes = (len(by_class[1]), len(by_class[2]), len(by_class[3]))
        if sizes != (t1, t2, t3):
            return False, {"n": n, "sizes": list(sizes), "terms": [t1, t2, t3]}, []
        for m in by_class[2]:
            small, i = matching_core.class2_reduce(m)
            if matching_core.class2_expand(small, i) != m:
                return False, {"n": n, "matching": m.to_json(), "class": 2}, []
        for m in by_class[3]:
            small, X = matching_core.class3_reduce(m)
            if matching_core.class3_expand(small, X) != m:
                return False, {"n": n, "matching": m.to_json(), "class": 3}, []
    return True, None, []


def check_phi(max_n):
    for n in range(max_n + 1):
        seen = set()
        trees = 0
        for t in tree_core.enumerate_increasing_trees(n):
            trees += 1
            if tree_core._klazar_violators(t.kids):
                continue
            rb = len(tree_core._bad(t.kids, True))
            interior = [v for v in range(1, n + 1) if t.kids[v]]
            for r in range(len(interior) + 1):
                for marks in combinations(interior, r):
                    mt = tree_core.MarkedTree(t, frozenset(marks))
                    img = bijections._phi(mt)
                    ok = (
                        tree_core._klazar_violators(img.kids) == marks
                        and len(tree_core._bad(img.kids, True)) == rb
                        and bijections._phi_inverse(img) == mt
                        and img not in seen
                    )
                    if not ok:
                        return False, {"n": n, "tree": tree_core.tree_to_json(t), "marks": sorted(marks)}, []
                    seen.add(img)
        if len(seen) != trees:
            return False, {"n": n, "images": len(seen), "trees": trees}, []
    return True, None, []


def check_sigma(max_n):
    notes = ["NOTE: every build sequence starts with (R,0); a sometimes-quoted "
             "variant starting (R,1) violates the step-1 rule"]
    for n in range(max_n + 1):
        for c in codes.enumerate_tree_codes(n):
            t = bijections._sigma_inverse(c)
            if bijections._sigma(t, n) != c:
                return False, {"n": n, "code": [list(e) for e in c]}, notes
            if bijections._odd_pairs(c, "L") != tree_core.violator_partners(t).items():
                return False, {"n": n, "code": [list(e) for e in c],
                               "tree": tree_core.tree_to_json(t)}, notes
    return True, None, notes


def check_tau(max_n):
    for n in range(max_n + 1):
        for c in codes.enumerate_match_codes(n):
            m = bijections._tau(c)
            if bijections.tau_inverse(m) != c:
                return False, {"n": n, "code": [list(e) for e in c]}, []
            if bijections._odd_pairs(c, "T") != matching_core.uplines(m):
                return False, {"n": n, "code": [list(e) for e in c], "matching": m.to_json()}, []
    return True, None, []


def check_Phi_equality(max_n):
    for n in range(max_n + 1):
        seen = set()
        for t in tree_core.enumerate_increasing_trees(n):
            m1 = bijections._Phi_recursive(t, n)
            m2 = bijections._Phi_explicit(t, n)
            if m1 != m2:
                return False, {"n": n, "tree": tree_core.tree_to_json(t),
                               "recursive": m1.to_json(), "explicit": m2.to_json()}, []
            if matching_core.uplines(m1) != tree_core.violator_partners(t).items():
                return False, {"n": n, "tree": tree_core.tree_to_json(t), "matching": m1.to_json()}, []
            seen.add(m1)
        if len(seen) != counting.odd_double_factorial(2 * n - 1):
            return False, {"n": n, "images": len(seen)}, []
    return True, None, []


def check_cor13(max_n):
    gf = series.gf_kv(max_n)
    for n in range(max_n + 1):
        d1 = Counter(len(tree_core._klazar_violators(t.kids)) for t in tree_core.enumerate_increasing_trees(n))
        d2 = Counter(matching_core._parity_pairs(m.partner)[0] for m in matching_core.enumerate_matchings(n))
        d3 = Counter(codes._word_parity_stats(w)[0] for w in codes.enumerate_words(n))
        if not d1 == d2 == d3:
            return False, {"n": n, "violators": _kv_list(d1), "uplines": _kv_list(d2),
                           "word-evens": _kv_list(d3)}, []
        if {(k,): v for k, v in d1.items()} != gf.coefficient(n):
            return False, {"n": n, "tally": _kv_list(d1)}, []
    return True, None, []


def check_joint_dist(max_n):
    for n in range(max_n + 1):
        images = set()
        for c in codes.enumerate_match_codes(n):
            images.add(bijections._tau_variant(c))
        if len(images) != counting.odd_double_factorial(2 * n - 1):
            return False, {"n": n, "images": len(images)}, []
        word_stats = Counter(map(codes._word_parity_stats, codes.enumerate_words(n)))
        match_stats = Counter(matching_core._parity_pairs(m.partner) for m in matching_core.enumerate_matchings(n))
        if word_stats != match_stats:
            return False, {"n": n, "words": _kv_list(word_stats), "matchings": _kv_list(match_stats)}, []
    return True, None, []


def check_vertical_gf(max_n):
    gv = series.gf_vertical(max_n)
    ge = series.gf_even_odd(max_n)
    for n in range(max_n + 1):
        ps = [m.partner for m in matching_core.enumerate_matchings(n)]
        vert = Counter((matching_core._verticals(p),) for p in ps)
        eo = Counter((down,) for up, down in map(matching_core._parity_pairs, ps) if not up)
        if dict(vert) != gv.coefficient(n):
            return False, {"n": n, "stat": "verticals", "tally": _kv_list(vert)}, []
        if dict(eo) != ge.coefficient(n):
            return False, {"n": n, "stat": "odd-to-even", "tally": _kv_list(eo)}, []
    return True, None, []


def check_stirling_bijection(max_n):
    for n in range(max_n + 1):
        for k in range(n + 1):
            sms = list(matching_core.enumerate_stirling_matchings(n, k))
            if len(sms) != counting.stirling2(n, k):
                return False, {"n": n, "k": k, "count": len(sms)}, []
            parts = set(map(matching_core._stirling_to_partition, sms))
            if len(parts) != len(sms):
                return False, {"n": n, "k": k, "distinct_partitions": len(parts)}, []
            for p in parts:
                if len(p) != k or sorted(x for b in p for x in b) != list(range(1, n + 1)):
                    return False, {"n": n, "k": k, "partition": [list(b) for b in p]}, []
    for k in range(1, 5):
        for n in range(5):
            pms = sum(1 for _ in matching_core.enumerate_power_matchings(k, n))
            if pms != k**n:
                return False, {"k": k, "n": n, "count": pms}, []
    return True, None, []


def check_code_roundtrips(max_n):
    for n in range(max_n + 1):
        trees = tree_core.enumerate_increasing_trees(n)
        matchings = matching_core.enumerate_matchings(n)
        for w, t, m in zip(codes.enumerate_words(n), trees, matchings):
            tc = codes._word_to_code(w)
            mc = codes._swap_letters(tc)
            ok = (
                codes._code_to_tree(tc) == t
                and codes._tree_to_code(t, n) == tc
                and codes._code_to_matching(mc) == m
                and codes.matching_to_code(m) == mc
                and codes._swap_back(mc) == tc
                and codes._code_to_word(tc) == w
            )
            if not ok:
                return False, {"n": n, "word": list(w)}, []
    return True, None, []


CHECKS = {
    "eq1": (check_eq1, 6),
    "eq3": (check_eq3, 6),
    "eq2-vs-enum": (check_eq2_vs_enum, 6),
    "theorem2": (check_theorem2, 6),
    "theorem3": (check_theorem3, 5),
    "quadrivariate": (check_quadrivariate, 5),
    "pm-formula": (check_pm_formula, 6),
    "theorem8": (check_theorem8, 6),
    "class-split": (check_class_split, 6),
    "phi": (check_phi, 5),
    "sigma": (check_sigma, 5),
    "tau": (check_tau, 5),
    "Phi-equality": (check_Phi_equality, 5),
    "cor13": (check_cor13, 6),
    "joint-dist": (check_joint_dist, 5),
    "vertical-gf": (check_vertical_gf, 6),
    "stirling-bijection": (check_stirling_bijection, 8),
    "code-roundtrips": (check_code_roundtrips, 5),
}
