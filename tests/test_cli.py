"""End-to-end tests that drive the command line through ``main(argv)``."""

import contextlib
import io
import json
import os
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from klazar import checks, cli
from klazar.codes import (
    code_to_matching,
    code_to_text,
    code_to_tree,
    trapezoidal_to_code,
    treecode_to_matchcode,
    word_to_text,
)
from klazar.matching_core import matching_to_text
from klazar.tree_core import tree_from_text, tree_to_json, tree_to_text


def run(argv, stdin=None, monkeypatch=None, capsys=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_enumerate_trees_text(monkeypatch, capsys):
    code, out, err = run(["enumerate", "--kind", "trees", "--n", "2"], capsys=capsys)
    assert code == 0
    assert out == "0(1,2)\n0(2,1)\n0(1(2))\ncount 3\n"


def test_enumerate_matchings_jsonl(monkeypatch, capsys):
    code, out, _ = run(
        ["enumerate", "--kind", "matchings", "--n", "2", "--format", "jsonl"],
        capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert [json.loads(x) for x in lines[:-1]] == [
        {"n": 2, "pairs": [[1, 2], [3, 4]]},
        {"n": 2, "pairs": [[1, 3], [2, 4]]},
        {"n": 2, "pairs": [[1, 4], [2, 3]]},
    ]
    assert json.loads(lines[-1]) == {"count": 3}


def test_enumerate_klazar_trees_counts_match(monkeypatch, capsys):
    code, out, _ = run(
        ["enumerate", "--kind", "klazar-trees", "--n", "4"], capsys=capsys
    )
    assert code == 0
    assert out.splitlines()[-1] == "count 35"


def test_enumerate_guard(monkeypatch, capsys):
    code, _, err = run(["enumerate", "--kind", "trees", "--n", "11"], capsys=capsys)
    assert code == 2
    assert "exceeds the default guard 10" in err
    assert "--force" in err


def test_force_lifts_the_table_guard(monkeypatch, capsys):
    code, out, _ = run(
        ["table", "--which", "w12", "--n", "31", "--force"], capsys=capsys
    )
    assert code == 0
    assert out.split()[-1] == "85950144383076253408132013000868398677"


def test_map_Phi_text(monkeypatch, capsys):
    code, out, _ = run(
        ["map", "--which", "Phi", "--format", "text"],
        stdin="0(2,1)\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out == "1 4/2 3\n"


def test_map_Phi_on_a_wide_shallow_tree(monkeypatch, capsys):
    text = "0(%s)\n" % ",".join(map(str, range(1200, 0, -1)))
    code, out, err = run(
        ["map", "--which", "Phi", "--format", "text"],
        stdin=text,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0, err
    assert out.count("/") == 1199


def path_tree_text(n):
    """0(1(2(...(n)))), the path tree with n edges."""
    return "".join(f"{k}(" for k in range(n)) + str(n) + ")" * n


# Nothing on the way from the text to the output walks the tree by
# recursion, so these run at the default recursion limit.
@pytest.mark.parametrize("n", [1200, 100_000])
@pytest.mark.parametrize("which", ["Phi", "Phi-explicit", "sigma", "tree-code", "phi-inv"])
def test_maps_take_deep_path_trees(which, n, monkeypatch, capsys):
    text = path_tree_text(n)
    code, out, err = run(
        ["map", "--which", which, "--format", "text"],
        stdin=text,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert (code, err) == (0, "")
    if which in ("sigma", "tree-code"):
        # F never moves anything on a path, so sigma is the build code
        assert out == ",".join(f"R{k}" for k in range(n)) + "\n"
    elif which == "phi-inv":
        assert out == text + "\n"  # a path has no violators to unmark
    else:
        assert out.count("/") == n - 1


def test_draw_takes_deep_path_trees(monkeypatch, capsys):
    code, out, err = run(
        ["draw", "--format", "ascii"],
        stdin=path_tree_text(1200),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "  " * 1200 + "1200"
    code, out, err = run(
        ["draw", "--format", "svg"],
        stdin=path_tree_text(100_000),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert (code, err) == (0, "")
    assert out.count("<line ") == 100_000


TREE_COMMANDS = [["map", "--which", w] for w, (parse, _) in cli.MAPS.items()
                 if parse in (cli._parse_tree, cli._parse_marked_tree)] + [["draw"]]


@st.composite
def tree_command_inputs(draw):
    """A tree command, a tree text for it, and the text again if it is
    out of order (else None).  The text is a valid tree, or one with a
    dropped parenthesis, a repeated or a missing label, a vertex's label
    swapped with its first child's (still 0..n, but out of order), a
    stray character, or deep nesting."""
    n = draw(st.integers(0, 12))
    word = [draw(st.integers(1, 2 * k - 1)) for k in range(1, n + 1)]
    text = tree_to_text(code_to_tree(trapezoidal_to_code(word)))
    fault = draw(st.sampled_from(["none", "paren", "repeat", "missing", "swap", "stray", "deep"]))
    labels = [m.span() for m in re.finditer(r"\d+", text)]
    parens = [i for i, ch in enumerate(text) if ch in "()"]
    parents = [k for k, (_, b) in enumerate(labels) if k and text[b:b + 1] == "("]  # non-root
    if fault == "paren" and parens:
        i = draw(st.sampled_from(parens))
        text = text[:i] + text[i + 1:]
    elif fault in ("repeat", "missing"):
        a, b = draw(st.sampled_from(labels))
        new = draw(st.integers(0, n)) if fault == "repeat" else n + draw(st.integers(1, 3))
        text = text[:a] + str(new) + text[b:]
    elif fault == "swap" and parents:
        k = draw(st.sampled_from(parents))  # label k and its first child's trade places
        (a, b), (c, d) = labels[k], labels[k + 1]
        text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    elif fault == "stray":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from("(),x -|0")) + text[i:]
    elif fault == "deep":
        text = path_tree_text(draw(st.integers(1000, 3000)))
    out_of_order = text if fault == "swap" and parents else None
    command = draw(st.sampled_from(TREE_COMMANDS))
    if command == ["draw"]:
        command = command + ["--format", draw(st.sampled_from(["ascii", "svg"]))]
    else:
        command = command + ["--format", draw(st.sampled_from(["json", "text"]))]
    if "phi" in command and draw(st.booleans()):
        text += "|" + ",".join(str(draw(st.integers(-1, n + 1))) for _ in range(draw(st.integers(0, 3))))
    return command, text, out_of_order


def assert_exit_0_or_2_without_traceback(command, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command)
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(tree_command_inputs())
def test_tree_commands_exit_0_or_2_and_never_print_a_traceback(case):
    command, text, out_of_order = case
    assert_exit_0_or_2_without_traceback(command, text)
    if out_of_order is not None:  # every tree map rejects it; draw need not
        for command in TREE_COMMANDS[:-1]:
            code, err = assert_exit_0_or_2_without_traceback(command, out_of_order)
            assert code == 2 and "does not exceed parent" in err, command


def test_tree_maps_reject_a_child_below_its_parent(monkeypatch, capsys):
    # labels exactly 0..n, so the parser accepts them; only the order is wrong
    for command in (c for c in TREE_COMMANDS if c != ["draw"]):
        for text in ("0(2(1))", "0(1,3(2))", "0(3(1),2)"):
            for stdin in (text, json.dumps(tree_to_json(tree_from_text(text)))):
                code, out, err = run(command, stdin=stdin, monkeypatch=monkeypatch, capsys=capsys)
                assert (code, out) == (2, ""), (command, stdin)
                assert len(err.splitlines()) == 1 and "does not exceed parent" in err, (command, stdin)


# the input family each code or matching map reads
CODE_MAPS = {
    "sigma-inv": ["tree code"], "code-tree": ["tree code"],
    "tau": ["match code"], "tau-variant": ["match code"], "code-match": ["match code"],
    "code-corr": ["tree code", "match code"], "trapezoidal": ["word", "tree code"],
    "tau-inv": ["matching"], "match-code": ["matching"],
}


@st.composite
def code_command_inputs(draw):
    """A code or matching map and an input for it, as text or JSON: a
    valid object of its family or of another, possibly truncated, with a
    value of the wrong type, an index out of range or a bad letter."""
    which = draw(st.sampled_from(sorted(CODE_MAPS)))
    n = draw(st.integers(0, 10))
    word = tuple(draw(st.integers(1, 2 * k - 1)) for k in range(1, n + 1))
    tree_code = trapezoidal_to_code(word)
    match_code = treecode_to_matchcode(tree_code)
    matching = code_to_matching(match_code)
    forms = {  # family -> (text form, JSON form)
        "word": (word_to_text(word), json.dumps(list(word))),
        "tree code": (code_to_text(tree_code), json.dumps([list(e) for e in tree_code])),
        "match code": (code_to_text(match_code), json.dumps([list(e) for e in match_code])),
        "matching": (matching_to_text(matching), json.dumps(matching.to_json())),
    }
    family = draw(st.sampled_from(CODE_MAPS[which] if draw(st.booleans()) else sorted(forms)))
    text = forms[family][draw(st.integers(0, 1))]
    fault = draw(st.sampled_from(["none", "truncate", "type", "index", "letter"]))
    numbers = [m.span() for m in re.finditer(r'-?\d+|"[^"]*"', text)]
    letters = [i for i, ch in enumerate(text) if ch.isalpha()]
    if fault == "truncate" and text:
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif fault in ("type", "index") and numbers:
        a, b = draw(st.sampled_from(numbers))
        new = (draw(st.sampled_from(["true", "null", "1.5", '"1"', "[]", "{}"])) if fault == "type"
               else str(draw(st.sampled_from([-1, 0, n + 1, 2 * n + 1, 2 * n + 2, 10**6]))))
        text = text[:a] + new + text[b:]
    elif fault == "letter" and letters:
        i = draw(st.sampled_from(letters))
        text = text[:i] + draw(st.sampled_from("RLBTXr")) + text[i + 1:]
    return ["map", "--which", which, "--format", draw(st.sampled_from(["json", "text"]))], text


@settings(max_examples=300, deadline=None)
@given(code_command_inputs())
def test_code_and_matching_maps_exit_0_or_2_and_never_print_a_traceback(case):
    assert_exit_0_or_2_without_traceback(*case)


def test_map_Phi_json(monkeypatch, capsys):
    code, out, _ = run(
        ["map", "--which", "Phi"],
        stdin='{"label": 0, "children": [{"label": 2, "children": []}, {"label": 1, "children": []}]}',
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out) == {"n": 2, "pairs": [[1, 4], [2, 3]]}


def test_map_phi_and_inverse(monkeypatch, capsys):
    code, out, _ = run(
        ["map", "--which", "phi", "--format", "text"],
        stdin="0(1(3),2)|1",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out == "0(3,1,2)\n"
    code, out, _ = run(
        ["map", "--which", "phi-inv", "--format", "text"],
        stdin="0(3,1,2)",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out == "0(1(3),2)|1\n"


def test_map_tau_inverse(monkeypatch, capsys):
    code, out, _ = run(
        ["map", "--which", "tau-inv", "--format", "text"],
        stdin="1 3/2 10/4 7/5 9/6 8",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out == "B1,B1,T1,T2,T1\n"


def test_map_code_correspondence(monkeypatch, capsys):
    code, out, _ = run(
        ["map", "--which", "code-corr", "--format", "text"],
        stdin="R0,L1",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out == "B1,T1\n"


def test_map_trapezoidal(monkeypatch, capsys):
    code, out, _ = run(
        ["map", "--which", "trapezoidal", "--format", "text"],
        stdin="1 2 3 1",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out == "R0,L1,R1,R0\n"


def test_map_rejects_garbage(monkeypatch, capsys):
    code, _, err = run(
        ["map", "--which", "sigma"],
        stdin="garbage(((",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert err.startswith("error: invalid input:")


def test_map_rejects_wrong_object(monkeypatch, capsys):
    # a matching fed to a tree map
    code, _, err = run(
        ["map", "--which", "sigma"],
        stdin="1 4/2 3",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert err.startswith("error: invalid input:")


@pytest.mark.parametrize(
    "which, stdin",
    [
        ("sigma", '{"label":0,"children":5}'),
        ("tau-inv", '{"pairs":[[1,2]],"n":"x"}'),
        ("trapezoidal", "[1,[2]]"),
        ("trapezoidal", '[["R",0],["L",[1]]]'),
        ("phi", '{"label":0,"children":[],"marked":5}'),
        ("sigma", '{"label": false, "children": []}'),
        ("sigma-inv", '[["R",0],["L",true]]'),
        ("tau-inv", '{"pairs": [[true, 2]]}'),
        ("trapezoidal", "[1,true]"),
        ("phi", '{"label":0,"children":[{"label":1,"children":[]}],"marked":[true]}'),
    ],
)
def test_map_rejects_json_of_the_wrong_type(which, stdin, monkeypatch, capsys):
    code, _, err = run(
        ["map", "--which", which], stdin=stdin, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: invalid input:")


def test_stats_uplines_text(monkeypatch, capsys):
    code, out, _ = run(
        ["stats", "--kind", "matchings", "--n", "2", "--stat", "uplines"],
        capsys=capsys,
    )
    assert code == 0
    assert out == "0\t2\n1\t1\ntotal 3\n"


def test_stats_json(monkeypatch, capsys):
    code, out, _ = run(
        ["stats", "--kind", "matchings", "--n", "2", "--stat", "uplines",
         "--format", "json"],
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out) == {
        "kind": "matchings",
        "stat": "uplines",
        "n": 2,
        "distribution": [[0, 2], [1, 1]],
        "total": 3,
    }


def test_stats_three_statistics_agree(monkeypatch, capsys):
    outs = []
    for kind, stat in [
        ("trees", "kv"),
        ("matchings", "uplines"),
        ("words", "even-odd-multiplicity"),
    ]:
        code, out, _ = run(
            ["stats", "--kind", kind, "--n", "3", "--stat", stat], capsys=capsys
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_stats_unknown_stat(monkeypatch, capsys):
    code, _, err = run(
        ["stats", "--kind", "trees", "--n", "3", "--stat", "nope"], capsys=capsys
    )
    assert code == 2
    assert "error:" in err


def test_table_triangle(monkeypatch, capsys):
    code, out, _ = run(["table", "--which", "a-nl", "--n", "4"], capsys=capsys)
    assert code == 0
    assert out == "1\n2 1\n4 10 1\n8 60 36 1\n"


def test_table_w12(monkeypatch, capsys):
    code, out, _ = run(["table", "--which", "w12", "--n", "6"], capsys=capsys)
    assert code == 0
    assert out == "1 1 2 7 35 226 1787\n"


def test_table_eq4_terms(monkeypatch, capsys):
    code, out, _ = run(["table", "--which", "eq4-terms", "--n", "4"], capsys=capsys)
    assert code == 0
    assert out == "7 21 7\n"


def test_table_eq4_terms_far_past_the_recursion_limit(monkeypatch, capsys):
    code, out, _ = run(["table", "--which", "eq4-terms", "--n", "600", "--force"], capsys=capsys)
    assert code == 0
    assert len(out.split()) == 3 and all(x.isdigit() for x in out.split())


def test_table_guard(monkeypatch, capsys):
    code, _, err = run(["table", "--which", "w12", "--n", "31"], capsys=capsys)
    assert code == 2
    assert "exceeds the default guard 30" in err


def test_series_json(monkeypatch, capsys):
    code, out, _ = run(["series", "--which", "w12", "--n", "4"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 4
    assert doc["markers"] == []
    assert [c[0]["num"] for c in doc["coeffs"]] == [1, 1, 2, 7, 35]
    assert all(c[0]["den"] == 1 for c in doc["coeffs"])


def test_series_text(monkeypatch, capsys):
    code, out, _ = run(
        ["series", "--which", "w12", "--n", "4", "--format", "text"], capsys=capsys
    )
    assert code == 0
    assert out.splitlines() == [
        "[x^0/0!] 1",
        "[x^1/1!] 1",
        "[x^2/2!] 2",
        "[x^3/3!] 7",
        "[x^4/4!] 35",
    ]


def test_series_unknown(monkeypatch, capsys):
    code, _, err = run(["series", "--which", "nope", "--n", "4"], capsys=capsys)
    assert code == 2
    assert "error:" in err


def test_draw_tree_ascii(monkeypatch, capsys):
    code, out, _ = run(
        ["draw"], stdin="0(2,1(3))", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out == "0\n  2\n  1\n    3\n"


def test_draw_rejects_a_boolean_label(monkeypatch, capsys):
    code, out, err = run(
        ["draw"], stdin='{"label": false, "children": []}', monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


def test_empty_tree_code_text_roundtrips_through_code_tree(monkeypatch, capsys):
    code, out, _ = run(
        ["map", "--which", "tree-code", "--format", "text"], stdin="0",
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert (code, out) == (0, "\n")
    code, out, _ = run(
        ["map", "--which", "code-tree", "--format", "text"], stdin=out,
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert (code, out) == (0, "0\n")


def test_draw_matching_ascii(monkeypatch, capsys):
    code, out, _ = run(
        ["draw"], stdin="1 4/2 3", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out.splitlines() == ["1   2", " \\ / ", " / \\ ", "1   2"]


def test_draw_svg(monkeypatch, capsys):
    code, out, _ = run(
        ["draw", "--format", "svg"],
        stdin="0(1)",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")
    assert "<circle" in out and "<line" in out


def test_verify_pass_text(monkeypatch, capsys):
    code, out, _ = run(["verify", "--check", "eq1", "--max-n", "4"], capsys=capsys)
    assert code == 0
    assert out.startswith("eq1 (max_n=4): PASS")


def test_verify_pass_json(monkeypatch, capsys):
    code, out, _ = run(
        ["verify", "--check", "eq1", "--max-n", "4", "--format", "json"],
        capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "eq1"
    assert doc["max_n"] == 4
    assert doc["status"] == "PASS"
    assert isinstance(doc["elapsed_s"], float)


def test_verify_unknown_check(monkeypatch, capsys):
    code, _, err = run(["verify", "--check", "nope"], capsys=capsys)
    assert code == 2
    assert "unknown check" in err


def test_verify_fail_exits_nonzero(monkeypatch, capsys):
    def broken(max_n):
        return False, {"n": max_n}, ["synthetic failure for exit-code plumbing"]

    monkeypatch.setitem(cli.CHECKS, "broken", (broken, 3))
    code, out, _ = run(
        ["verify", "--check", "broken", "--format", "json"], capsys=capsys
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "FAIL"
    assert doc["counterexample"] == {"n": 3}


CHECK_SIZES = [
    ("eq1", 6), ("eq3", 6), ("eq2-vs-enum", 6), ("theorem2", 6), ("theorem3", 5),
    ("quadrivariate", 5), ("pm-formula", 6), ("theorem8", 6), ("class-split", 6),
    ("phi", 5), ("sigma", 5), ("tau", 5), ("Phi-equality", 5), ("cor13", 6),
    ("joint-dist", 5), ("vertical-gf", 6), ("stirling-bijection", 8), ("code-roundtrips", 5),
]


def test_the_check_list_and_its_text_report_are_pinned(capsys):
    assert cli.CHECKS is checks.CHECKS
    assert [(name, n) for name, (_, n) in checks.CHECKS.items()] == CHECK_SIZES
    code, out, _ = run(["verify", "--check", "all", "--max-n", "3"], capsys=capsys)
    assert code == 0
    lines = []
    for name, _ in CHECK_SIZES:
        lines.append(f"{name} (max_n=3): PASS  [t]")
        if name == "eq2-vs-enum":
            lines.append("  NOTE: the radicand denominator is 2-e^x; the sometimes-quoted "
                         "variant 2-x does not reproduce the sequence")
        if name == "sigma":
            lines.append("  NOTE: every build sequence starts with (R,0); a sometimes-quoted "
                         "variant starting (R,1) violates the step-1 rule")
    assert re.sub(r"\[\d+\.\d\ds\]", "[t]", out).splitlines() == lines


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_verify_all_reports_the_same_in_one_process_and_across_workers(fmt, monkeypatch, capsys):
    outs = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_available_cpus", lambda cpus=cpus: cpus)
        code, out, err = run(["verify", "--check", "all", "--max-n", "3", "--format", fmt], capsys=capsys)
        assert code == 0 and err == ""
        out = re.sub(r'"elapsed_s": [\d.e-]+', '"elapsed_s": 0', re.sub(r"\[\d+\.\d\ds\]", "[t]", out))
        outs.append(out.splitlines())
    assert outs[0] == outs[1]
    if fmt == "text":
        names = [line.split(" (max_n=3)")[0] for line in outs[1] if not line.startswith(" ")]
    else:
        names = [json.loads(line)["check"] for line in outs[1]]
    assert names == [name for name, _ in CHECK_SIZES]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_check_that_raises_fails_alone_and_the_others_still_run(cpus, monkeypatch, capsys):
    def passes(max_n):
        return True, None, [f"pid {os.getpid()}"]

    def raises(max_n):
        raise ValueError("planted fault")

    def fails(max_n):
        return False, {"n": max_n}, []

    monkeypatch.setattr(cli, "CHECKS", {"passes": (passes, 1), "raises": (raises, 2), "fails": (fails, 3)})
    monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
    code, out, err = run(["verify", "--check", "all", "--format", "jsonl"], capsys=capsys)
    assert code == 1 and err == ""
    reports = [json.loads(line) for line in out.splitlines()]
    assert all(r.pop("elapsed_s") >= 0 for r in reports)
    # the passing check notes its pid: with two CPUs it ran in a forked worker
    ran_here = reports[0].pop("notes") == [f"pid {os.getpid()}"]
    assert ran_here == (cpus == 1)
    assert reports == [
        {"check": "passes", "max_n": 1, "status": "PASS"},
        {"check": "raises", "max_n": 2, "status": "FAIL",
         "counterexample": {"error": "ValueError: planted fault"}},
        {"check": "fails", "max_n": 3, "status": "FAIL", "counterexample": {"n": 3}},
    ]


def test_verify_guard(monkeypatch, capsys):
    code, _, err = run(["verify", "--check", "eq1", "--max-n", "9"], capsys=capsys)
    assert code == 2
    assert "exceeds the default guard 8" in err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
