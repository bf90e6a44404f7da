"""Command-line front end.

Subcommands: enumerate, map, stats, verify, table, series, draw.
Objects travel as canonical JSON on stdin/stdout; the text notations
(parenthesized trees, slash-separated matchings, comma codes, space
words) are accepted on input and available with --format text.

Exit codes: 0 success or all checks PASS, 1 a verification check FAILed,
2 usage or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

from . import bijections, codes, counting, matching_core, series, tree_core
from .matching_core import Matching, classify_edges, uplines, weak_downlines
from .tree_core import MarkedTree, Tree

ENUM_GUARD = 10      # exhaustive object streams blow up as (2n-1)!!
FORMULA_GUARD = 30   # closed-form tables and series stay cheap far longer
VERIFY_GUARD = 8


class UsageError(Exception):
    pass


def _guard(n: int, bound: int, force: bool, what: str = "n"):
    if n < 0:
        _fail(f"--{what} must be nonnegative")
    if n > bound and not force:
        _fail(f"{what}={n} exceeds the default guard {bound}; pass --force to override")


def _fail(msg: str):
    raise UsageError(msg)


# ---------------------------------------------------------------------------
# object parsing (type-directed: each command knows what it expects)


def _load_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read; use the text form") from None


def _parse_tree(text: str) -> Tree:
    text = text.strip()
    if text.startswith("{"):
        return tree_core.tree_from_json(_load_json(text))
    return tree_core.tree_from_text(text)


def _parse_marked_tree(text: str) -> MarkedTree:
    text = text.strip()
    if text.startswith("{"):
        obj = _load_json(text)
        tree = tree_core.tree_from_json(obj)
        marks = obj.get("marked", [])
        if not isinstance(marks, list) or not all(type(x) is int for x in marks):
            raise ValueError("'marked' must be a list of integers")
        return MarkedTree(tree, frozenset(marks))
    tree_part, _, mark_part = text.partition("|")
    marks = frozenset(int(x) for x in mark_part.split(",") if x.strip())
    return MarkedTree(tree_core.tree_from_text(tree_part), marks)


def _parse_matching(text: str) -> Matching:
    text = text.strip()
    if text.startswith("{"):
        return matching_core.Matching.from_json(_load_json(text))
    return matching_core.matching_from_text(text)


def _parse_code(text: str):
    text = text.strip()
    if text.startswith("["):
        return codes.code_from_json(_load_json(text))
    return codes.code_from_text(text)


def _parse_word_or_code(text: str):
    text = text.strip()
    if text.startswith("["):
        obj = _load_json(text)
        if obj and isinstance(obj[0], list):
            return codes.code_from_json(obj)
        return codes.word_from_json(obj)
    if text and text[0] in "RLBT":
        return codes.code_from_text(text)
    return codes.word_from_text(text)


def _tree_json_text(t: Tree, marked=None) -> str:
    """json.dumps of tree_to_json(t), plus "marked" when given, written
    by a loop so that no depth is too deep for it."""
    out, prev = [], 0
    for v, d in tree_core._preorder(t):
        if out:
            out.append("" if d > prev else "]}" * (prev - d + 1) + ", ")
        out.append(f'{{"label": {v}, "children": [')
        prev = d
    out.append("]}" * prev + "]")
    out.append("}" if marked is None else f', "marked": {json.dumps(sorted(marked))}}}')
    return "".join(out)


def _marked_tree_text(mt: MarkedTree) -> str:
    text = tree_core.tree_to_text(mt.tree)
    if mt.marked:
        text += "|" + ",".join(str(v) for v in sorted(mt.marked))
    return text


def _emit(obj, fmt: str):
    """Render one library object in the requested format."""
    if isinstance(obj, Tree):
        print(_tree_json_text(obj) if fmt == "json" else tree_core.tree_to_text(obj))
    elif isinstance(obj, MarkedTree):
        print(_tree_json_text(obj.tree, obj.marked) if fmt == "json" else _marked_tree_text(obj))
    elif isinstance(obj, Matching):
        print(json.dumps(obj.to_json()) if fmt == "json" else matching_core.matching_to_text(obj))
    elif isinstance(obj, tuple) and obj and isinstance(obj[0], tuple) and len(obj[0]) == 2 and isinstance(obj[0][0], str):
        print(json.dumps([[x, i] for x, i in obj]) if fmt == "json" else codes.code_to_text(obj))
    elif isinstance(obj, tuple):
        print(json.dumps(list(obj)) if fmt == "json" else codes.word_to_text(obj))
    else:
        print(json.dumps(obj))


# ---------------------------------------------------------------------------
# enumerate


def _shape_text(s) -> str:
    return "(" + "".join(_shape_text(c) for c in s) + ")"


ENUM_KINDS = {
    "trees": lambda n: tree_core.enumerate_increasing_trees(n),
    "klazar-trees": lambda n: (
        t for t in tree_core.enumerate_increasing_trees(n) if not tree_core.klazar_violators(t)
    ),
    "matchings": lambda n: matching_core.enumerate_matchings(n),
    "no-upline-matchings": lambda n: (
        m for m in matching_core.enumerate_matchings(n) if not uplines(m)
    ),
    "shapes": lambda n: tree_core.enumerate_shapes(n),
    "words": lambda n: codes.enumerate_words(n),
    "tree-codes": lambda n: codes.enumerate_tree_codes(n),
    "match-codes": lambda n: codes.enumerate_match_codes(n),
}


def cmd_enumerate(args) -> int:
    if args.kind not in ENUM_KINDS:
        _fail(f"unknown kind {args.kind!r}")
    _guard(args.n, ENUM_GUARD, args.force)
    fmt = "json" if args.format == "jsonl" else args.format
    count = 0
    for obj in ENUM_KINDS[args.kind](args.n):
        count += 1
        if args.kind == "shapes":
            print(json.dumps(_shape_json(obj)) if fmt == "json" else _shape_text(obj))
        else:
            _emit(obj, fmt)
    print(json.dumps({"count": count}) if fmt == "json" else f"count {count}")
    return 0


def _shape_json(s):
    return [_shape_json(c) for c in s]


# ---------------------------------------------------------------------------
# map


MAPS = {
    "phi": (_parse_marked_tree, bijections.phi),
    "phi-inv": (_parse_tree, bijections.phi_inverse),
    "sigma": (_parse_tree, bijections.sigma),
    "sigma-inv": (_parse_code, bijections.sigma_inverse),
    "tau": (_parse_code, bijections.tau),
    "tau-inv": (_parse_matching, bijections.tau_inverse),
    "tau-variant": (_parse_code, bijections.tau_variant),
    "Phi": (_parse_tree, bijections.Phi_recursive),
    "Phi-explicit": (_parse_tree, bijections.Phi_explicit),
    "tree-code": (_parse_tree, codes.tree_to_code),
    "code-tree": (_parse_code, codes.code_to_tree),
    "match-code": (_parse_matching, codes.matching_to_code),
    "code-match": (_parse_code, codes.code_to_matching),
}


def _code_corr(code):
    if not code:
        _fail("empty code")
    letter = code[0][0]
    if letter in "RL":
        return codes.treecode_to_matchcode(code)
    return codes.matchcode_to_treecode(code)


def cmd_map(args) -> int:
    text = sys.stdin.read()
    if args.which in MAPS:
        parse, fn = MAPS[args.which]
        result = fn(parse(text))
    elif args.which == "code-corr":
        result = _code_corr(_parse_code(text))
    elif args.which == "trapezoidal":
        obj = _parse_word_or_code(text)
        result = codes.code_to_trapezoidal(obj) if obj and isinstance(obj[0], tuple) else codes.trapezoidal_to_code(obj)
    else:
        _fail(f"unknown map {args.which!r}")
    _emit(result, args.format)
    return 0


# ---------------------------------------------------------------------------
# stats


def _tree_stat(stat):
    if stat == "kv":
        return lambda t: len(tree_core.klazar_violators(t))
    if stat == "bad":
        return lambda t: len(tree_core.bad_vertices(t))
    if stat == "reverse-bad":
        return lambda t: len(tree_core.reverse_bad_vertices(t))
    if stat == "leaves":
        return lambda t: tree_core.tree_stats(t).leaves
    return None


def _matching_stat(stat):
    if stat == "uplines":
        return lambda m: len(uplines(m))
    if stat == "verticals":
        return lambda m: len(classify_edges(m).verticals)
    if stat == "odd-to-even":
        return lambda m: len(weak_downlines(m))
    if stat == "joint-upline-downline-vertical":
        def joint(m):
            ec = classify_edges(m)
            return (len(ec.uplines), len(ec.downlines), len(ec.verticals))
        return joint
    return None


def _word_stat(stat):
    if stat == "even-odd-multiplicity":
        return lambda w: codes.word_parity_stats(w)[0]
    if stat == "odd-odd-multiplicity":
        return lambda w: codes.word_parity_stats(w)[1]
    if stat == "parity-joint":
        return lambda w: codes.word_parity_stats(w)
    return None


def cmd_stats(args) -> int:
    _guard(args.n, ENUM_GUARD, args.force)
    pools = {
        "trees": (tree_core.enumerate_increasing_trees, _tree_stat),
        "matchings": (matching_core.enumerate_matchings, _matching_stat),
        "words": (codes.enumerate_words, _word_stat),
    }
    if args.kind not in pools:
        _fail(f"unknown kind {args.kind!r}")
    enum, lookup = pools[args.kind]
    fn = lookup(args.stat)
    if fn is None:
        _fail(f"statistic {args.stat!r} is not defined for kind {args.kind!r}")
    dist = Counter(fn(obj) for obj in enum(args.n))
    total = sum(dist.values())
    items = sorted(dist.items())
    if args.format == "json":
        print(json.dumps({
            "kind": args.kind, "stat": args.stat, "n": args.n,
            "distribution": [[list(k) if isinstance(k, tuple) else k, v] for k, v in items],
            "total": total,
        }))
    else:
        for k, v in items:
            key = ",".join(map(str, k)) if isinstance(k, tuple) else str(k)
            print(f"{key}\t{v}")
        print(f"total {total}")
    return 0


# ---------------------------------------------------------------------------
# verify

REFERENCE_ROWS = {
    1: [1],
    2: [2, 1],
    3: [4, 10, 1],
    4: [8, 60, 36, 1],
    5: [16, 296, 516, 116, 1],
    7: [64, 5664, 42960, 64240, 21120, 1086, 1],
}
ROW6_DERIVED = [32, 1328, 5168, 3508, 358, 1]


def _interior(t: Tree):
    return [v for v in range(1, len(t.kids)) if t.kids[v]]


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
            2 ** len(_interior(t))
            for t in tree_core.enumerate_increasing_trees(n)
            if not tree_core.klazar_violators(t)
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
            1 for t in tree_core.enumerate_increasing_trees(n) if not tree_core.klazar_violators(t)
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
        if n in REFERENCE_ROWS:
            row = [dist.get(l, 0) for l in range(1, n + 1)]
            if row != REFERENCE_ROWS[n]:
                return False, {"n": n, "row": row, "expected": REFERENCE_ROWS[n]}, notes
        if n == 6:
            row = [dist.get(l, 0) for l in range(1, 7)]
            if row != ROW6_DERIVED:
                return False, {"n": 6, "row": row, "expected": ROW6_DERIVED}, notes
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
        tally = Counter()
        for t in tree_core.enumerate_increasing_trees(n):
            s = tree_core.tree_stats(t)
            tally[(len(s.klazar_violators), s.non_dt_leaves)] += 1
        from_table = {(i, j): v for (nn, i, j), v in table.entries.items() if nn == n}
        if dict(tally) != from_table:
            return False, {"n": n, "tally": _kv_list(tally), "recurrence": _kv_list(from_table)}, []
        coeff = {k: int(c) for k, c in gf.coefficient(n).items()}
        if dict(tally) != coeff:
            return False, {"n": n, "tally": _kv_list(tally), "series": _kv_list(coeff)}, []
    return True, None, []


def check_quadrivariate(max_n):
    table = counting.refined_tree_counts4(max_n)
    for n in range(max_n + 1):
        tally = Counter()
        for t in tree_core.enumerate_increasing_trees(n):
            s = tree_core.tree_stats(t)
            tally[(len(s.klazar_violators), s.non_dt_leaves, s.leaves)] += 1
        from_table = {k[1:]: v for k, v in table.entries.items() if k[0] == n}
        if dict(tally) != from_table:
            return False, {"n": n, "tally": _kv_list(tally), "recurrence": _kv_list(from_table)}, []
    return True, None, []


def _kv_list(d):
    return [[list(k) if isinstance(k, tuple) else k, v] for k, v in sorted(d.items())]


def _no_upline_tally(n):
    """Tally no-upline diagrams by (#even-even pairs, largest such endpoint / 2)."""
    tally = Counter()
    for m in matching_core.enumerate_matchings(n):
        if not uplines(m):
            evens = [b for a, b in m.pairs() if a % 2 == 0 and b % 2 == 0]
            tally[(len(evens), max(evens, default=0) // 2)] += 1
    return tally


def check_pm_formula(max_n):
    for n in range(max_n + 1):
        tally = _no_upline_tally(n)
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
            if uplines(m):
                continue
            even_pm, odd_pm, sm, pm = matching_core.decompose_no_upline(m)
            back = matching_core.compose_no_upline(even_pm, odd_pm, sm, pm)
            if back != m:
                return False, {"n": n, "matching": m.to_json(), "recomposed": back.to_json()}, []
    return True, None, []


def check_class_split(max_n):
    for n in range(1, max_n + 1):
        by_class = {1: [], 2: [], 3: []}
        for m in matching_core.enumerate_matchings(n):
            if not uplines(m):
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
            if tree_core.klazar_violators(t):
                continue
            rb = len(tree_core.reverse_bad_vertices(t))
            for r in range(len(_interior(t)) + 1):
                for marks in combinations(_interior(t), r):
                    mt = MarkedTree(t, frozenset(marks))
                    img = bijections.phi(mt)
                    ok = (
                        set(tree_core.klazar_violators(img)) == set(marks)
                        and len(tree_core.reverse_bad_vertices(img)) == rb
                        and bijections.phi_inverse(img) == mt
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
            t = bijections.sigma_inverse(c)
            if bijections.sigma(t) != c:
                return False, {"n": n, "code": [list(e) for e in c]}, notes
            if bijections.violators_from_treecode(c) != set(tree_core.violator_partners(t).items()):
                return False, {"n": n, "code": [list(e) for e in c],
                               "tree": tree_core.tree_to_json(t)}, notes
    return True, None, notes


def check_tau(max_n):
    for n in range(max_n + 1):
        for c in codes.enumerate_match_codes(n):
            m = bijections.tau(c)
            if bijections.tau_inverse(m) != c:
                return False, {"n": n, "code": [list(e) for e in c]}, []
            if bijections.uplines_from_matchcode(c) != set(uplines(m)):
                return False, {"n": n, "code": [list(e) for e in c], "matching": m.to_json()}, []
    return True, None, []


def check_Phi_equality(max_n):
    for n in range(max_n + 1):
        seen = set()
        for t in tree_core.enumerate_increasing_trees(n):
            m1 = bijections.Phi_recursive(t)
            m2 = bijections.Phi_explicit(t)
            if m1 != m2:
                return False, {"n": n, "tree": tree_core.tree_to_json(t),
                               "recursive": m1.to_json(), "explicit": m2.to_json()}, []
            if set(uplines(m1)) != set(tree_core.violator_partners(t).items()):
                return False, {"n": n, "tree": tree_core.tree_to_json(t), "matching": m1.to_json()}, []
            seen.add(m1)
        if len(seen) != counting.odd_double_factorial(2 * n - 1):
            return False, {"n": n, "images": len(seen)}, []
    return True, None, []


def check_cor13(max_n):
    gf = series.gf_kv(max_n)
    for n in range(max_n + 1):
        d1 = Counter(len(tree_core.klazar_violators(t)) for t in tree_core.enumerate_increasing_trees(n))
        d2 = Counter(len(uplines(m)) for m in matching_core.enumerate_matchings(n))
        d3 = Counter(codes.word_parity_stats(w)[0] for w in codes.enumerate_words(n))
        if not d1 == d2 == d3:
            return False, {"n": n, "violators": _kv_list(d1), "uplines": _kv_list(d2),
                           "word-evens": _kv_list(d3)}, []
        coeff = {(k,): Fraction(v) for k, v in d1.items()}
        if coeff != gf.coefficient(n):
            return False, {"n": n, "tally": _kv_list(d1)}, []
    return True, None, []


def check_joint_dist(max_n):
    for n in range(max_n + 1):
        images = set()
        for c in codes.enumerate_match_codes(n):
            images.add(bijections.tau_variant(c))
        if len(images) != counting.odd_double_factorial(2 * n - 1):
            return False, {"n": n, "images": len(images)}, []
        word_stats = Counter(codes.word_parity_stats(w) for w in codes.enumerate_words(n))
        match_stats = Counter()
        for m in matching_core.enumerate_matchings(n):
            e2o = sum(1 for a, b in m.pairs() if a % 2 == 0 and b % 2 == 1)
            o2e = sum(1 for a, b in m.pairs() if a % 2 == 1 and b % 2 == 0)
            match_stats[(e2o, o2e)] += 1
        if word_stats != match_stats:
            return False, {"n": n, "words": _kv_list(word_stats), "matchings": _kv_list(match_stats)}, []
    return True, None, []


def check_vertical_gf(max_n):
    gv = series.gf_vertical(max_n)
    ge = series.gf_even_odd(max_n)
    for n in range(max_n + 1):
        vert = Counter()
        eo = Counter()
        for m in matching_core.enumerate_matchings(n):
            vert[(len(classify_edges(m).verticals),)] += 1
            e2o = sum(1 for a, b in m.pairs() if a % 2 == 0 and b % 2 == 1)
            if e2o == 0:
                eo[(len(weak_downlines(m)),)] += 1
        if {k: Fraction(v) for k, v in vert.items()} != gv.coefficient(n):
            return False, {"n": n, "stat": "verticals", "tally": _kv_list(vert)}, []
        if {k: Fraction(v) for k, v in eo.items()} != ge.coefficient(n):
            return False, {"n": n, "stat": "odd-to-even", "tally": _kv_list(eo)}, []
    return True, None, []


def check_stirling_bijection(max_n):
    for n in range(max_n + 1):
        for k in range(n + 1):
            sms = list(matching_core.enumerate_stirling_matchings(n, k))
            if len(sms) != counting.stirling2(n, k):
                return False, {"n": n, "k": k, "count": len(sms)}, []
            parts = {matching_core.stirling_to_partition(sm) for sm in sms}
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
            tc = codes.trapezoidal_to_code(w)
            mc = codes.treecode_to_matchcode(tc)
            ok = (
                codes.code_to_tree(tc) == t
                and codes.tree_to_code(t) == tc
                and codes.code_to_matching(mc) == m
                and codes.matching_to_code(m) == mc
                and codes.matchcode_to_treecode(mc) == tc
                and codes.code_to_trapezoidal(tc) == w
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


def cmd_verify(args) -> int:
    names = list(CHECKS) if args.check == "all" else [args.check]
    for name in names:
        if name not in CHECKS:
            _fail(f"unknown check {name!r}; available: {', '.join(CHECKS)}, all")
    if args.max_n is not None:
        _guard(args.max_n, VERIFY_GUARD, args.force, what="max-n")
    failures = 0
    reports = []
    for name in names:
        fn, default_n = CHECKS[name]
        max_n = args.max_n if args.max_n is not None else default_n
        start = time.perf_counter()
        passed, counterexample, notes = fn(max_n)
        elapsed = time.perf_counter() - start
        report = {
            "check": name,
            "max_n": max_n,
            "status": "PASS" if passed else "FAIL",
            "elapsed_s": round(elapsed, 3),
        }
        if counterexample is not None:
            report["counterexample"] = counterexample
        if notes:
            report["notes"] = notes
        reports.append(report)
        if args.format in ("json", "jsonl"):
            print(json.dumps(report))
        else:
            print(f"{name} (max_n={max_n}): {report['status']}  [{elapsed:.2f}s]")
            for note in notes:
                print(f"  {note}")
            if counterexample is not None:
                print(f"  counterexample: {json.dumps(counterexample)}")
        if not passed:
            failures += 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# table and series


def cmd_table(args) -> int:
    n = args.n
    _guard(n, FORMULA_GUARD, args.force)
    if args.which == "w12":
        row = counting.w12_sequence(n)
        print(json.dumps(row) if args.format == "json" else " ".join(map(str, row)))
    elif args.which == "a-nl":
        if n < 1:
            _fail("a-nl starts at n=1")
        gf = series.gf_Fstarstar(n)
        rows = []
        for m in range(1, n + 1):
            coeff = gf.coefficient(m)
            rows.append([int(coeff.get((l,), 0)) for l in range(1, m + 1)])
        if args.format == "json":
            print(json.dumps(rows))
        else:
            for row in rows:
                print(" ".join(map(str, row)))
    elif args.which == "a-nij":
        table = counting.refined_tree_counts(n)
        if args.format == "json":
            print(json.dumps(table.to_json()))
        else:
            for idx in sorted(table.entries):
                print(" ".join(map(str, (*idx, table.entries[idx]))))
    elif args.which == "no-upline":
        rows = []
        for m in range(n + 1):
            rows.append([counting.no_upline_count(m)]
                        + [counting.no_upline_refined(m, k) for k in range(m // 2 + 1)])
        if args.format == "json":
            print(json.dumps(rows))
        else:
            for row in rows:
                print(" ".join(map(str, row)))
    elif args.which == "eq4-terms":
        if n < 1:
            _fail("eq4-terms starts at n=1")
        t1, t2, t3 = counting.eq4_terms(n)
        print(json.dumps([t1, t2, t3]) if args.format == "json" else f"{t1} {t2} {t3}")
    else:
        _fail(f"unknown table {args.which!r}")
    return 0


SERIES_BUILDERS = {
    "w12": series.gf_w12,
    "leaves": series.gf_leaves,
    "bad": series.gf_Fstarstar,
    "trivariate": series.gf_trivariate,
    "violators": series.gf_kv,
    "even-odd": series.gf_even_odd,
    "vertical": series.gf_vertical,
}


def cmd_series(args) -> int:
    if args.which not in SERIES_BUILDERS:
        _fail(f"unknown series {args.which!r}; available: {', '.join(SERIES_BUILDERS)}")
    _guard(args.n, FORMULA_GUARD, args.force)
    f = SERIES_BUILDERS[args.which](args.n)
    if args.format == "json":
        print(json.dumps(f.to_json()))
    else:
        for m in range(f.order + 1):
            terms = []
            for e, c in sorted(f.coefficient(m).items()):
                mono = "".join(
                    f"{v}^{k}" if k > 1 else v
                    for v, k in zip(f.markers, e) if k
                )
                frac = str(c) if c.denominator != 1 else str(c.numerator)
                terms.append(f"{frac}{'*' + mono if mono else ''}")
            print(f"[x^{m}/{m}!] " + (" + ".join(terms) if terms else "0"))
    return 0


# ---------------------------------------------------------------------------
# draw


def _draw_tree_ascii(t: Tree) -> str:
    return "\n".join("  " * depth + str(v) for v, depth in tree_core._preorder(t))


def _draw_tree_svg(t: Tree) -> str:
    pos = {v: (i * 40 + 20, depth * 50 + 20) for i, (v, depth) in enumerate(tree_core._preorder(t))}
    parent = tree_core._parents(t.kids)
    width = len(pos) * 40
    height = (max(y for _, y in pos.values()) + 40)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    for v in range(1, len(parent)):
        x1, y1 = pos[parent[v]]
        x2, y2 = pos[v]
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#444"/>')
    for v, (x, y) in pos.items():
        out.append(f'<circle cx="{x}" cy="{y}" r="9" fill="#fff" stroke="#000"/>')
        out.append(f'<text x="{x}" y="{y + 4}" font-size="10" text-anchor="middle">{v}</text>')
    out.append("</svg>")
    return "\n".join(out)


def _draw_matching_ascii(m: Matching) -> str:
    n = m.n
    col = lambda i: 4 * (i - 1)
    width = col(n) + 1
    ec = classify_edges(m)
    segs = []  # (x_top, x_bot, char-style)
    for b, t in ec.uplines:
        segs.append((col(t), col(b), "/"))
    for t, b in ec.downlines:
        segs.append((col(t), col(b), "\\"))
    for v in ec.verticals:
        segs.append((col(v), col(v), "|"))
    K = max(1, n)
    body = [[" "] * width for _ in range(K)]
    for x_top, x_bot, ch in segs:
        for r in range(K):
            frac = (r + 1) / (K + 1)
            x = round(x_top + frac * (x_bot - x_top))
            body[r][x] = ch

    def arc_rows(arcs):
        """Rows of dashes bridging same-row pairs, nested arcs further out."""
        if not arcs:
            return []
        depth = {}
        for a, b in arcs:
            depth[(a, b)] = sum(1 for c, d in arcs if c < a and b < d)
        rows = [[" "] * width for _ in range(max(depth.values()) + 1)]
        for (a, b), d in sorted(depth.items()):
            row = rows[d]
            for x in range(col(a) + 1, col(b)):
                row[x] = "-"
            row[col(a)] = row[col(b)] = "."
        return ["".join(r) for r in rows]

    top_arcs = sorted(ec.top_arcs)
    bot_arcs = sorted(ec.bottom_arcs)
    label = lambda: "".join(str(i).ljust(4) for i in range(1, n + 1)).rstrip()
    out = list(reversed(arc_rows(top_arcs)))
    out.append(label())
    out.extend("".join(r) for r in body)
    out.append(label())
    out.extend(arc_rows(bot_arcs))
    return "\n".join(out)


def _draw_matching_svg(m: Matching) -> str:
    n = m.n
    cx = lambda i: 40 * i
    top_y, bot_y = 40, 120
    ec = classify_edges(m)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{40 * n + 40}" height="200">']
    for b, t in sorted(ec.uplines):
        out.append(f'<line x1="{cx(b)}" y1="{bot_y}" x2="{cx(t)}" y2="{top_y}" stroke="#c00" stroke-width="2"/>')
    for t, b in sorted(ec.downlines):
        out.append(f'<line x1="{cx(t)}" y1="{top_y}" x2="{cx(b)}" y2="{bot_y}" stroke="#000"/>')
    for v in sorted(ec.verticals):
        out.append(f'<line x1="{cx(v)}" y1="{top_y}" x2="{cx(v)}" y2="{bot_y}" stroke="#000"/>')
    for a, b in sorted(ec.top_arcs):
        mid = (cx(a) + cx(b)) / 2
        out.append(f'<path d="M {cx(a)} {top_y} Q {mid} {top_y - 30} {cx(b)} {top_y}" fill="none" stroke="#000"/>')
    for a, b in sorted(ec.bottom_arcs):
        mid = (cx(a) + cx(b)) / 2
        out.append(f'<path d="M {cx(a)} {bot_y} Q {mid} {bot_y + 30} {cx(b)} {bot_y}" fill="none" stroke="#000"/>')
    for i in range(1, n + 1):
        for y, ty in ((top_y, top_y - 8), (bot_y, bot_y + 16)):
            out.append(f'<circle cx="{cx(i)}" cy="{y}" r="3" fill="#000"/>')
            out.append(f'<text x="{cx(i)}" y="{ty}" font-size="10" text-anchor="middle">{i}</text>')
    out.append("</svg>")
    return "\n".join(out)


def cmd_draw(args) -> int:
    text = sys.stdin.read().strip()
    obj = None
    if text.startswith("{"):
        parsed = _load_json(text)
        obj = Matching.from_json(parsed) if "pairs" in parsed else tree_core.tree_from_json(parsed)
    elif text.startswith("0"):
        obj = tree_core.tree_from_text(text)
    else:
        obj = matching_core.matching_from_text(text)
    if isinstance(obj, Tree):
        print(_draw_tree_ascii(obj) if args.format == "ascii" else _draw_tree_svg(obj))
    else:
        print(_draw_matching_ascii(obj) if args.format == "ascii" else _draw_matching_svg(obj))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="klazar", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser("enumerate", help="list a family in canonical order")
    e.add_argument("--kind", required=True, choices=sorted(ENUM_KINDS))
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--format", choices=["json", "jsonl", "text"], default="text")
    e.add_argument("--force", action="store_true", help="lift the size guard")
    e.set_defaults(func=cmd_enumerate)

    m = sub.add_parser("map", help="apply a bijection to the object on stdin")
    m.add_argument("--which", required=True,
                   choices=sorted(MAPS) + ["code-corr", "trapezoidal"])
    m.add_argument("--format", choices=["json", "text"], default="json")
    m.set_defaults(func=cmd_map)

    s = sub.add_parser("stats", help="distribution of a statistic over a family")
    s.add_argument("--kind", required=True, choices=["trees", "matchings", "words"])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--stat", required=True)
    s.add_argument("--format", choices=["json", "text"], default="text")
    s.add_argument("--force", action="store_true")
    s.set_defaults(func=cmd_stats)

    v = sub.add_parser("verify", help="run a named consistency check")
    v.add_argument("--check", required=True)
    v.add_argument("--max-n", type=int, default=None)
    v.add_argument("--format", choices=["json", "jsonl", "text"], default="text")
    v.add_argument("--force", action="store_true")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("table", help="print a counting table")
    t.add_argument("--which", required=True,
                   choices=["a-nl", "a-nij", "w12", "no-upline", "eq4-terms"])
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--format", choices=["json", "text"], default="text")
    t.add_argument("--force", action="store_true")
    t.set_defaults(func=cmd_table)

    g = sub.add_parser("series", help="emit a generating function")
    g.add_argument("--which", required=True)
    g.add_argument("--n", type=int, required=True, help="truncation order")
    g.add_argument("--format", choices=["json", "text"], default="json")
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_series)

    d = sub.add_parser("draw", help="render the object on stdin")
    d.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    d.set_defaults(func=cmd_draw)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
