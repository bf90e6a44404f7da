"""Pin the outputs that must not change: the enumeration streams, every
map on every small input, and the table, series, stats and draw
subcommands, each by one sha256 over its stdout, stderr and exit code;
then the F, sigma and Phi kernels on small and large trees, and the
order in which the Stirling and power diagrams are yielded."""

import contextlib
import hashlib
import io
import json
import random
import sys
from itertools import combinations
from unittest import mock

from klazar import bijections, cli, codes
from klazar.codes import code_to_text, enumerate_match_codes, enumerate_tree_codes, enumerate_words, word_to_text
from klazar.matching_core import enumerate_matchings, enumerate_power_matchings, enumerate_stirling_matchings
from klazar.matching_core import matching_to_text
from klazar.tree_core import enumerate_increasing_trees, involution_F, klazar_violators, tree_to_json, tree_to_text

ENUMERATE_SHA256 = {
    "klazar-trees": "484a16519ed82c8db36a3b93784e516e9f9677af72f66647b5a74b47fc689418",
    "match-codes": "b485586015aeafbea8d78b1a5acdf4373908f1dad5af217b2ccf40e1c1180060",
    "matchings": "d29092a961b6323ee46fab9c2a65983d126ffc790a3333d9cc3c021e162c0697",
    "no-upline-matchings": "5b2058f3e5ce4b377128b742700f62deb443e16be9680d3772b27e5c7408b6ef",
    "shapes": "f98619a407c991630dc5d4fbf243d1690825b1a2aa5ee1b71474f25a0fe4f7c8",
    "tree-codes": "9d406da4afc9e6e4a1c71ab39fa54961f11d7bb1c4062d059ded250e5874f61f",
    "trees": "f3a7ebd0d2eb24009668d56180e2fc60e89390565c0965d64e1936997fe2117a",
    "words": "d4b2388db5786d08e12bcf7b35468b482f53d624322d89e75f6422fee422cc93",
}

MAP_SHA256 = {
    "Phi": "43c34dbdcddabeb27f1da6256bcc5f020d97a0ca80867d9c924cd9f0cd449ea6",
    "Phi-explicit": "4f0ac5c0283b981623b572cf99315b27aff6c14be2da0313608f47e6b4f032d7",
    "phi-inv": "8107a179349d3e37dae883e187a293b68262a66340ca4491c5e0e0fde76bfd6a",
    "sigma": "ec4b04e804b515ef284a059205212bb9d353f315b8fafba0338b61f71855007c",
    "tree-code": "bba881057f56022b7f3077ce87dd7196e6be2843f7c71bbc16fb4c5903cb1b4a",
    "phi": "88447b2bbe991dd96b72a72b34cbf1960c743b92426082a841784ce3006f8479",
    "match-code": "060efc0568bacfb44c33d1d0753f217c267ecd4b82ac6e01868b1228159399fe",
    "tau-inv": "03ff473b6801761d79c5a14f28a336c7135a0a11d2cf9cd97d064fefba22c054",
    "code-tree": "67407c53945c0fb47c03c870fb6de5cf59f55c2020bff037e8f7b89679c39fed",
    "sigma-inv": "0465bfffa3406ee8cc5e3ed12d02c9e35b8c2bc63dacd132ad7f1a4b8656ebf1",
    "code-match": "7e433a402fdeacb7743174ef87c97ad7e01815bd6ccd5db85a008ce8f4e102a7",
    "tau": "1843dabed6b5c21ee0f00d3a988712623eea43622941976acae41c4d9a9dcf24",
    "tau-variant": "9f935b64a709178436d79517052379a90a66e244f7e089f2cd686f220ec7e694",
    "code-corr": "1117f221baa15cd082d2a1f6aed10248397bee5950377f6a5b693f92ee10f005",
    "trapezoidal": "09ec8f13df6cc3f38940a6ca69cfb80bf2aa96cbedc372616b0690e81c7a41fa",
}


def _sha256_of_calls(calls):
    """One digest over (argv, stdin, stdout, stderr, exit code) of each call."""
    digest = hashlib.sha256()
    for argv, stdin in calls:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest.update(repr((argv, stdin, out.getvalue(), err.getvalue(), code)).encode())
    return digest.hexdigest()


def _inputs():
    """The text form of every input a map selector reads, n <= 4."""
    ns = range(5)
    trees = [t for n in ns for t in enumerate_increasing_trees(n)]
    marked = []
    for t in trees:
        if not klazar_violators(t):
            interior = [v for v in range(1, len(t.kids)) if t.kids[v]]
            marked += [tree_to_text(t) + "|" * bool(r) + ",".join(map(str, ms))
                       for r in range(len(interior) + 1) for ms in combinations(interior, r)]
    tree_codes = [code_to_text(c) for n in ns for c in enumerate_tree_codes(n)]
    match_codes = [code_to_text(c) for n in ns for c in enumerate_match_codes(n)]
    return {
        "trees": list(map(tree_to_text, trees)),
        "marked": marked,
        "matchings": [matching_to_text(m) for n in ns for m in enumerate_matchings(n)],
        "tree-codes": tree_codes,
        "match-codes": match_codes,
        "codes": tree_codes + match_codes,
        "words-and-codes": [word_to_text(w) for n in ns for w in enumerate_words(n)] + tree_codes,
    }


# map selector -> the inputs it reads, by the parser cli.MAPS gives it
MAP_INPUTS = {
    "Phi": "trees", "Phi-explicit": "trees", "phi-inv": "trees", "sigma": "trees",
    "tree-code": "trees", "phi": "marked", "match-code": "matchings", "tau-inv": "matchings",
    "code-tree": "tree-codes", "sigma-inv": "tree-codes", "code-match": "match-codes",
    "tau": "match-codes", "tau-variant": "match-codes", "code-corr": "codes",
    "trapezoidal": "words-and-codes",
}


def test_every_map_selector_reads_a_pinned_input_family():
    assert set(MAP_INPUTS) == set(cli.MAPS) == set(MAP_SHA256)


def test_enumerate_jsonl_streams_are_pinned():
    got = {kind: _sha256_of_calls(
        (["enumerate", "--kind", kind, "--n", str(n), "--format", "jsonl"], "") for n in range(7))
        for kind in sorted(cli.ENUM_KINDS)}
    assert got == ENUMERATE_SHA256


def test_map_text_outputs_are_pinned():
    inputs = _inputs()
    got = {which: _sha256_of_calls(
        (["map", "--which", which, "--format", "text"], text) for text in inputs[family])
        for which, family in MAP_INPUTS.items()}
    assert got == MAP_SHA256


SUBCOMMAND_SHA256 = {
    "table": "6b2d34d388c775de1c9e426d3e54e6cd1a93b85085975cfde305dd5bf59b9f99",
    "series": "556da6a700e80ca9e9147d9845aca8eadc67df8bcd978a8e241739f29d0ac0f1",
    "stats": "0aaebfaac89a65504469a3bb2842c141e28e9c44da337558ee795cbe97a2f7f1",
    "draw": "889ff6534703211161779def90153546b694274f2c5a3e7ca1c6a016367eb806",
}

TABLE_NAMES = ["a-nl", "a-nij", "w12", "no-upline", "eq4-terms"]


def _subcommand_calls(command):
    """Every (argv, stdin) call the pin of one subcommand makes."""
    formats = ["json", "text"]
    if command == "table":
        # n = 0 hits the "starts at n=1" errors; -1 and 31 hit the guard, as
        # -1 and 31 do for series and -1 and 11 for stats
        return [(["table", "--which", which, "--n", str(n), "--format", fmt], "")
                for which in TABLE_NAMES for n in (-1, 0, 1, 2, 8, 30, 31) for fmt in formats]
    if command == "series":
        return [(["series", "--which", which, "--n", str(n), "--format", fmt], "")
                for which in [*cli.SERIES_BUILDERS, "nonesuch"] for n in (*range(-1, 7), 31) for fmt in formats]
    if command == "stats":
        return [(["stats", "--kind", kind, "--stat", stat, "--n", str(n), "--format", fmt], "")
                for kind, stats in cli.STATS.items() for stat in [*stats, "nonesuch"]
                for n in (*range(-1, 6), 11) for fmt in formats]
    ns = range(5)
    trees = [t for n in ns for t in enumerate_increasing_trees(n)]
    matchings = [m for n in ns for m in enumerate_matchings(n)]
    texts = ([tree_to_text(t) for t in trees] + [json.dumps(tree_to_json(t)) for t in trees]
             + [matching_to_text(m) for m in matchings] + [json.dumps(m.to_json()) for m in matchings]
             + ["", "{}", "0(1", "0(1,1)", "1 2/3", "[1]", '{"pairs": 3}'])
    return [(["draw", "--format", fmt], text) for text in texts for fmt in ("ascii", "svg")]


def test_table_series_stats_and_draw_outputs_are_pinned():
    got = {command: _sha256_of_calls(_subcommand_calls(command)) for command in SUBCOMMAND_SHA256}
    assert got == SUBCOMMAND_SHA256


def _every_small_tree_then_seeded_trees_at_n300():
    """Every tree with n <= 6, then 50 seeded uniform trees at n = 300,
    whose long sibling lists reach each case of F many times."""
    yield from (t for n in range(7) for t in enumerate_increasing_trees(n))
    rng = random.Random(300)
    for _ in range(50):
        yield codes._word_to_tree(tuple(rng.randint(1, 2 * k - 1) for k in range(1, 301)))


def test_F_sigma_and_Phi_are_pinned():
    # taken before F moved inside sigma's delete and insert steps
    digest = hashlib.sha256()
    for t in _every_small_tree_then_seeded_trees_at_n300():
        code = bijections.sigma(t)
        digest.update(repr((t.kids, involution_F(t).kids if len(t.kids) > 1 else None, code,
                            bijections.sigma_inverse(code).kids, bijections.Phi_recursive(t).partner,
                            bijections.Phi_explicit(t).partner)).encode())
    assert digest.hexdigest() == "4d8bc413c02957e6efdd2a2cf18b8d5ace3180f84660eebbcc3413415ec289b1"


def test_stirling_and_power_yield_orders_are_pinned():
    # taken when both enumerators still recursed
    digest = hashlib.sha256()
    for n in range(9):
        for k in range(-1, n + 2):
            for d in enumerate_stirling_matchings(n, k):
                digest.update(repr(("S", n, k, d.cols, sorted(d.edges))).encode())
    for k in range(5):
        for n in range(6):
            for d in enumerate_power_matchings(k, n):
                digest.update(repr(("P", k, n, d.top_count, d.bottom_count, sorted(d.edges))).encode())
    assert digest.hexdigest() == "662c7f9953da7efe11ea9fb7c6d4706848c0680d5ce2e6005443f95ae56aa68e"
