"""Benchmark for the klazar package: one workload per run.

Run from the repository root:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 55 --trace 0

--trace 0 times untraced passes for --seconds and reports the end-to-end
metrics; --trace 1 runs one untraced and one traced pass and reports the
per-layer metrics.  Either way every pass's outputs are checked.  The last
line of stdout is one JSON object {correct, attempted, failed, metrics};
the lines before it repeat every metric by name with its unit.  The exit
code is 0 only when every output check passed.

--smoke shrinks every workload (n <= 4, order <= 6) for the benchmark's
own tests, --profile N prints the cProfile top N of one pass to stderr
instead of measuring, and --plant-fault corrupts one output of the first
pass so that the gates can be seen to catch it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_SPAWNS = 11

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("objects_per_s", "1/s"),
    ("object_p50_ms", "ms"),
    ("object_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


def _setup_once():
    """Wall time of a fresh interpreter that imports klazar.cli and exits."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import klazar.cli"], env=env, check=True)
    return time.perf_counter() - start


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _no_mark(_request):
    pass


def _check(workload, outputs, gates, plant):
    if plant:
        outputs = workload.plant(outputs)
    workload.check(outputs, gates)


def timed_run(workload, gates, seconds, plant):
    setup = statistics.median(_setup_once() for _ in range(SETUP_SPAWNS))
    walls, per_pass = [], []
    start = time.perf_counter()
    # start another pass only if it is expected to end within half a pass
    # of the deadline, so that a run lasts about `seconds` at any pass length
    while not walls or time.perf_counter() - start + statistics.median(walls) / 2 < seconds:
        p = workload.run_pass(_no_mark)
        _check(workload, p.outputs, gates, plant and not walls)
        walls.append(p.wall_s)
        per_pass.append(p.latencies_s)
        del p  # keep one pass's outputs alive at a time, whatever the pass count
    wall = statistics.median(walls)
    # every pass delivers the same objects in the same order; an object's
    # latency is its median over the passes, which drops a pass that a
    # burst of load on the machine slowed
    latencies = sorted(statistics.median(times) for times in zip(*per_pass))
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "objects_per_s": workload.objects / wall,
        "object_p50_ms": statistics.median(latencies) * 1e3,
        "object_p90_ms": _percentile(latencies, 0.9) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"passes": len(walls), "objects_timed": len(latencies)}


def traced_run(workload, gates, plant):
    base = workload.run_pass(_no_mark)
    _check(workload, base.outputs, gates, plant)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin()
        traced = workload.run_pass(lambda request: setattr(tracer, "request", request))
        traced_s = tracer.finish()
    finally:
        tracer.uninstall()
    workload.check(traced.outputs, gates)
    gates.expect(workload.canonical(traced.outputs) == workload.canonical(base.outputs),
                 "traced and untraced passes gave different outputs")
    metrics = tracing.per_layer_metrics(
        tracer, traced_s, base.wall_s, workload.objects, workload.check_times(base.outputs))
    return metrics, tracer, base


def profile_run(workload, gates, top, plant):
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    p = profiler.runcall(workload.run_pass, _no_mark)
    _check(workload, p.outputs, gates, plant)
    pstats.Stats(profiler, stream=sys.stderr).sort_stats("cumulative").print_stats(top)


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _layer_rows(tracer, base, workload, meta):
    """Rows in the ROADMAP trajectory format, one per traced function."""
    meta = {**meta, "n": workload.n}
    rows = [{**meta, "layer": "end_to_end", "case": workload.name, "objects": workload.objects,
             "seconds": base.wall_s, "us_per_object": base.wall_s / workload.objects * 1e6}]
    for name, (_, inclusive_ns, _) in sorted(tracer.totals().items()):
        if name == tracing.ROOT:
            continue
        layer, case = name.split(".", 1)
        objects = tracer.yields[name] or tracer.calls[name]
        rows.append({**meta, "layer": layer, "case": case, "objects": objects,
                     "seconds": inclusive_ns / 1e9,
                     "us_per_object": inclusive_ns / objects / 1e3 if objects else 0.0})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for the benchmark's tests")
    parser.add_argument("--profile", type=int, metavar="N", help="print the cProfile top N of one pass")
    parser.add_argument("--plant-fault", action="store_true", help="corrupt one output to test the gates")
    args = parser.parse_args(argv)

    if not (SRC / "klazar" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'klazar'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Gates

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    gates = Gates()
    meta = {"commit": _commit(), "python": platform.python_version(), "cpus": os.cpu_count(),
            "workload": workload.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"

    if args.profile:
        profile_run(workload, gates, args.profile, args.plant_fault)
        metrics, units, info = {}, {}, {}
    elif args.trace:
        metrics, tracer, base = traced_run(workload, gates, args.plant_fault)
        units = dict(tracing.PER_LAYER)
        info = {"spans": sum(row[0] for row in tracer.agg.values())}
        tracer.dump(f"{stem}-spans.json", meta)
        with open(f"{stem}-rows.jsonl", "w") as fh:
            for row in _layer_rows(tracer, base, workload, {k: meta[k] for k in ("commit", "python", "cpus")}):
                fh.write(json.dumps(row) + "\n")
    else:
        metrics, info = timed_run(workload, gates, args.seconds, args.plant_fault)
        units = dict(END_TO_END)

    failed = len(gates.failures)
    for what in gates.failures[:20]:
        print(f"FAILED: {what}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k} {v}" for k, v in info.items()))
    print(f"failed_share {failed / max(gates.attempted, 1):.6g} share ({failed} of {gates.attempted} checks)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": gates.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump({**meta, **info, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
