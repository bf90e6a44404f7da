"""End-to-end tests that drive the command line through ``main(argv)``."""

import io
import json
import sys

import pytest

from klazar import cli


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


def test_verify_guard(monkeypatch, capsys):
    code, _, err = run(["verify", "--check", "eq1", "--max-n", "9"], capsys=capsys)
    assert code == 2
    assert "exceeds the default guard 8" in err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
