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
import os
import sys
import time
from collections import Counter

from . import bijections, codes, counting, matching_core, series, tree_core
from .checks import CHECKS
from .matching_core import Matching, classify_edges
from .tree_core import MarkedTree, Tree

ENUM_GUARD = 10      # exhaustive object streams blow up as (2n-1)!!
FORMULA_GUARD = 30   # closed-form tables and series stay cheap far longer
VERIFY_GUARD = 8


class UsageError(Exception):
    pass


def _guard(n: int, bound: int, force: bool, what: str = "n"):
    if n < 0:
        raise UsageError(f"--{what} must be nonnegative")
    if n > bound and not force:
        raise UsageError(f"{what}={n} exceeds the default guard {bound}; pass --force to override")


# ---------------------------------------------------------------------------
# object parsing (type-directed: each command knows what it expects)


def _load_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read; use the text form") from None


def _reader(opener: str, from_json, from_text):
    """The reader of one object kind: JSON when the text opens with
    `opener`, else the text form."""
    def parse(text: str):
        text = text.strip()
        return from_json(_load_json(text)) if text.startswith(opener) else from_text(text)
    return parse


_parse_tree = _reader("{", tree_core.tree_from_json, tree_core.tree_from_text)
_parse_matching = _reader("{", Matching.from_json, matching_core.matching_from_text)
_parse_code = _reader("[", codes.code_from_json, codes.code_from_text)


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
    elif fmt == "json":
        print(json.dumps(obj))  # a code or a word: tuples are written as arrays
    elif obj and isinstance(obj[0], tuple):
        print(codes.code_to_text(obj))
    else:
        print(codes.word_to_text(obj))


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
        m for m in matching_core.enumerate_matchings(n) if not matching_core._parity_pairs(m.partner)[0]
    ),
    "shapes": lambda n: tree_core.enumerate_shapes(n),
    "words": lambda n: codes.enumerate_words(n),
    "tree-codes": lambda n: codes.enumerate_tree_codes(n),
    "match-codes": lambda n: codes.enumerate_match_codes(n),
}


def cmd_enumerate(args) -> int:
    _guard(args.n, ENUM_GUARD, args.force)
    fmt = "json" if args.format == "jsonl" else args.format
    count = 0
    for obj in ENUM_KINDS[args.kind](args.n):
        count += 1
        if args.kind == "shapes" and fmt == "text":
            print(_shape_text(obj))
        else:
            _emit(obj, fmt)
    print(json.dumps({"count": count}) if fmt == "json" else f"count {count}")
    return 0


# ---------------------------------------------------------------------------
# map


def _code_corr(code):
    if not code:
        raise UsageError("empty code")
    if code[0][0] in "RL":
        return codes.treecode_to_matchcode(code)
    return codes.matchcode_to_treecode(code)


def _trapezoidal(obj):
    if obj and isinstance(obj[0], tuple):
        return codes.code_to_trapezoidal(obj)
    return codes.trapezoidal_to_code(obj)


# in the order the --which choices are listed
MAPS = {
    "Phi": (_parse_tree, bijections.Phi_recursive),
    "Phi-explicit": (_parse_tree, bijections.Phi_explicit),
    "code-match": (_parse_code, codes.code_to_matching),
    "code-tree": (_parse_code, codes.code_to_tree),
    "match-code": (_parse_matching, codes.matching_to_code),
    "phi": (_parse_marked_tree, bijections.phi),
    "phi-inv": (_parse_tree, bijections.phi_inverse),
    "sigma": (_parse_tree, bijections.sigma),
    "sigma-inv": (_parse_code, bijections.sigma_inverse),
    "tau": (_parse_code, bijections.tau),
    "tau-inv": (_parse_matching, bijections.tau_inverse),
    "tau-variant": (_parse_code, bijections.tau_variant),
    "tree-code": (_parse_tree, codes.tree_to_code),
    "code-corr": (_parse_code, _code_corr),
    "trapezoidal": (_parse_word_or_code, _trapezoidal),
}


def cmd_map(args) -> int:
    parse, fn = MAPS[args.which]
    _emit(fn(parse(sys.stdin.read())), args.format)
    return 0


# ---------------------------------------------------------------------------
# stats


def _edge_class_sizes(m):
    up, down = matching_core._parity_pairs(m.partner)
    vert = matching_core._verticals(m.partner)
    return (up, down - vert, vert)


# kind -> stat -> statistic; each kind's objects come from ENUM_KINDS
STATS = {
    "trees": {
        "kv": lambda t: len(tree_core.klazar_violators(t)),
        "bad": lambda t: len(tree_core.bad_vertices(t)),
        "reverse-bad": lambda t: len(tree_core.reverse_bad_vertices(t)),
        "leaves": lambda t: t.kids.count(()),  # the root-only tree has one leaf
    },
    "matchings": {
        "uplines": lambda m: matching_core._parity_pairs(m.partner)[0],
        "verticals": lambda m: matching_core._verticals(m.partner),
        "odd-to-even": lambda m: matching_core._parity_pairs(m.partner)[1],
        "joint-upline-downline-vertical": _edge_class_sizes,
    },
    "words": {
        "even-odd-multiplicity": lambda w: codes._word_parity_stats(w)[0],
        "odd-odd-multiplicity": lambda w: codes._word_parity_stats(w)[1],
        "parity-joint": lambda w: codes._word_parity_stats(w),
    },
}


def cmd_stats(args) -> int:
    _guard(args.n, ENUM_GUARD, args.force)
    fn = STATS[args.kind].get(args.stat)
    if fn is None:
        raise UsageError(f"statistic {args.stat!r} is not defined for kind {args.kind!r}")
    dist = Counter(fn(obj) for obj in ENUM_KINDS[args.kind](args.n))
    total = sum(dist.values())
    items = sorted(dist.items())
    if args.format == "json":
        print(json.dumps({
            "kind": args.kind, "stat": args.stat, "n": args.n,
            "distribution": items,
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


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_check(name, max_n):
    """Run CHECKS[name] -> (passed, counterexample, notes, elapsed); an
    exception inside the check makes it FAIL with the error as counterexample."""
    start = time.perf_counter()
    try:
        passed, counterexample, notes = CHECKS[name][0](max_n)
    except Exception as exc:
        passed, counterexample, notes = False, {"error": f"{type(exc).__name__}: {exc}"}, []
    return passed, counterexample, notes, time.perf_counter() - start


def cmd_verify(args) -> int:
    names = list(CHECKS) if args.check == "all" else [args.check]
    for name in names:
        if name not in CHECKS:
            raise UsageError(f"unknown check {name!r}; available: {', '.join(CHECKS)}, all")
    if args.max_n is not None:
        _guard(args.max_n, VERIFY_GUARD, args.force, what="max-n")
    sizes = [args.max_n if args.max_n is not None else CHECKS[name][1] for name in names]
    workers = min(len(names), _available_cpus())
    if workers > 1:
        # imported here, so that importing klazar.cli stays cheap
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            # a forked worker looks each name up in its copy of this process's
            # CHECKS, so a patched or wrapped entry runs as it would here
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                return _print_reports(names, sizes, pool.map(_run_check, names, sizes), args.format)
    return _print_reports(names, sizes, map(_run_check, names, sizes), args.format)


def _print_reports(names, sizes, results, fmt) -> int:
    """Print each check's report as soon as it and every earlier check are done."""
    failures = 0
    for name, max_n, (passed, counterexample, notes, elapsed) in zip(names, sizes, results):
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
        if fmt in ("json", "jsonl"):
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


def _a_nl(n):
    gf = series.gf_Fstarstar(n)
    rows = [[int(gf.coefficient(m).get((l,), 0)) for l in range(1, m + 1)] for m in range(1, n + 1)]
    return rows, rows


def _a_nij(n):
    table = counting.refined_tree_counts(n)
    return table.to_json(), [(*idx, c) for idx, c in sorted(table.entries.items())]


def _no_upline(n):
    rows = [[counting.no_upline_count(m), *(counting.no_upline_refined(m, k) for k in range(m // 2 + 1))]
            for m in range(n + 1)]
    return rows, rows


def _one_row(fn):
    def build(n):
        row = fn(n)
        return row, [row]
    return build


# name -> (least n, builder); a builder returns the JSON value and the text
# rows, in the order the --which choices are listed
TABLES = {
    "a-nl": (1, _a_nl),
    "a-nij": (0, _a_nij),
    "w12": (0, _one_row(counting.w12_sequence)),
    "no-upline": (0, _no_upline),
    "eq4-terms": (1, _one_row(counting.eq4_terms)),
}


def cmd_table(args) -> int:
    _guard(args.n, FORMULA_GUARD, args.force)
    least, build = TABLES[args.which]
    if args.n < least:
        raise UsageError(f"{args.which} starts at n={least}")
    value, rows = build(args.n)
    if args.format == "json":
        print(json.dumps(value))
    else:
        for row in rows:
            print(" ".join(map(str, row)))
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
        raise UsageError(f"unknown series {args.which!r}; available: {', '.join(SERIES_BUILDERS)}")
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
                terms.append(f"{c}{'*' + mono if mono else ''}")
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
    m.add_argument("--which", required=True, choices=list(MAPS))
    m.add_argument("--format", choices=["json", "text"], default="json")
    m.set_defaults(func=cmd_map)

    s = sub.add_parser("stats", help="distribution of a statistic over a family")
    s.add_argument("--kind", required=True, choices=list(STATS))
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
    t.add_argument("--which", required=True, choices=list(TABLES))
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
