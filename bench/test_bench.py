"""Tests of the benchmark itself, on the smoke sizes.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    code, result, proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--smoke")
    assert code == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    for name, _ in run.END_TO_END:
        assert f"\n{name} " in proc.stdout
    assert "failed_share 0 share" in proc.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_run_matches_untraced_and_repeats_its_counts(workload):
    results = []
    for _ in range(2):
        code, result, proc = bench("--workload", workload, "--seed", "3", "--trace", "1", "--smoke")
        assert code == 0, proc.stderr
        assert result["correct"]
        assert list(result["metrics"]) == [name for name, _ in tracing.PER_LAYER]
        results.append(result["metrics"])
    counts = [name for name in results[0]
              if name.endswith((".calls", ".calls_per_object", ".useful_ratio"))
              or name == "codes.validations_per_object"]
    assert counts
    assert [results[0][n] for n in counts] == [results[1][n] for n in counts]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_a_planted_wrong_result_fails_the_run(workload):
    code, result, proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                               "--smoke", "--plant-fault")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED:" in proc.stderr


def test_profile_prints_the_hot_functions():
    code, result, proc = bench("--workload", "series-o24", "--seed", "3", "--smoke", "--profile", "5")
    assert code == 0 and result["correct"]
    assert "cumulative" in proc.stderr and "series.py" in proc.stderr


def test_without_the_package_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, result, proc = bench("--workload", "verify-all", "--seed", "1", "--seconds", "1",
                               cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert code != 0 and result is None


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_tracer_wraps_every_binding_and_restores_it():
    from klazar import cli, codes, matching_core, tree_core

    originals = (tree_core.tables_of, codes.tables_of, cli.CHECKS["eq1"], cli.MAPS["phi"],
                 cli.SERIES_BUILDERS["bad"], matching_core.enumerate_matchings)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert codes.tables_of is tree_core.tables_of is not originals[0]
        assert cli.CHECKS["eq1"][0] is not originals[2][0]
        assert cli.MAPS["phi"][1] is not originals[3][1]
        tracer.begin()
        assert sum(1 for _ in matching_core.enumerate_matchings(3)) == 15
        tracer.finish()
    finally:
        tracer.uninstall()
    assert (tree_core.tables_of, codes.tables_of, cli.CHECKS["eq1"], cli.MAPS["phi"],
            cli.SERIES_BUILDERS["bad"], matching_core.enumerate_matchings) == originals
    assert tracer.calls["matching_core.enumerate_matchings"] == 1
    assert tracer.yields["matching_core.enumerate_matchings"] == 15
    # one span per next(), including the one that ends the generator
    assert tracer.totals()["matching_core.enumerate_matchings"][0] == 16
