"""Outside-in tracing of the klazar layers.

The layers are the seven modules of the package.  `install` rebinds every
public function at every module binding of it -- its own module, the
modules that imported it by name, the package namespace, and the entries
of module-level tables such as `cli.MAPS`, `cli.SERIES_BUILDERS` and
`cli.CHECKS` that captured it at import -- to one wrapper that records a
span per call.  A generator function gets one span per `next()`.
Nothing in `src/` is edited; `uninstall` restores every binding.

Spans are kept in memory.  The first RAW_LIMIT are kept whole; every span
is also folded into a table keyed by (name, parent name), which is what
the metrics are computed from and what keeps memory flat on long runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter

LAYERS = ("tree_core", "matching_core", "codes", "bijections", "counting", "series", "cli")
ROOT = "bench"
RAW_LIMIT = 20000

# Generator functions whose per-call arguments are kept, to compute the
# share of candidates they examine that they actually yield.
ARG_LOGGED = ("matching_core.enumerate_stirling_matchings", "matching_core.enumerate_power_matchings")


class Tracer:
    """Span stack plus aggregates; one per traced pass."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.stack = []  # open spans, each [name, child_ns, start_ns]
        self.agg = {}  # (name, parent) -> [spans, total_ns, self_ns]
        self.raw = []  # (request, name, parent, start_ns, end_ns)
        self.calls = Counter()  # invocations, by name
        self.yields = Counter()  # objects yielded by generator functions
        self.arg_log = {name: [] for name in ARG_LOGGED}  # [args, yielded] per call
        self.request = 0
        self._bindings = []

    def record(self, frame, end):
        name, child, start = frame
        dur = end - start
        parent = self.stack[-1]
        parent[1] += dur
        key = (name, parent[0])
        row = self.agg.get(key)
        if row is None:
            self.agg[key] = [1, dur, dur - child]
        else:
            row[0] += 1
            row[1] += dur
            row[2] += dur - child
        if len(self.raw) < RAW_LIMIT:
            self.raw.append((self.request, name, parent[0], start, end))

    def begin(self):
        """Open the root span, which stands for the benchmark's own code."""
        self.stack.append([ROOT, 0, self.clock()])

    def finish(self):
        """Close the root span; return the traced wall time in seconds."""
        frame = self.stack.pop()
        end = self.clock()
        self.agg[(ROOT, None)] = [1, end - frame[2], end - frame[2] - frame[1]]
        return (end - frame[2]) / 1e9

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        stack, record, clock, calls = self.stack, self.record, self.clock, self.calls
        if inspect.isgeneratorfunction(fn):
            yields = self.yields
            log = self.arg_log.get(name)

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[name] += 1
                entry = [args, 0]
                if log is not None:
                    log.append(entry)
                it = fn(*args, **kwargs)
                while True:
                    frame = [name, 0, clock()]
                    stack.append(frame)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        record(frame, end)
                    yields[name] += 1
                    entry[1] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            frame = [name, 0, clock()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(frame, end)

        return traced

    def install(self):
        """Wrap every public klazar function at every binding of it."""
        modules = [importlib.import_module("klazar")]
        modules += [importlib.import_module(f"klazar.{layer}") for layer in LAYERS]
        wrappers = {}

        def wrapped(obj):
            if not _is_public_function(obj):
                return None
            if id(obj) not in wrappers:
                layer = obj.__module__.split(".", 1)[1]
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{obj.__name__}"))
            return wrappers[id(obj)][1]

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                new = wrapped(value)
                if new is not None:
                    self._rebind(mod.__dict__, attr, new)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        new = wrapped(entry)
                        if new is None and isinstance(entry, tuple):
                            parts = tuple(wrapped(x) or x for x in entry)
                            new = parts if parts != entry else None
                        if new is not None:
                            self._rebind(value, key, new)

    def _rebind(self, table, key, new):
        self._bindings.append((table, key, table[key]))
        table[key] = new

    def uninstall(self):
        while self._bindings:
            table, key, old = self._bindings.pop()
            table[key] = old

    # -- output -------------------------------------------------------------

    def totals(self):
        """name -> (spans, inclusive_ns, self_ns), summed over parents."""
        out = {}
        for (name, _), (spans, total, self_ns) in self.agg.items():
            row = out.setdefault(name, [0, 0, 0])
            row[0] += spans
            row[1] += total
            row[2] += self_ns
        return out

    def dump(self, path, meta):
        """Write the aggregate table and the kept raw spans as JSON."""
        doc = {
            **meta,
            "spans_total": sum(row[0] for row in self.agg.values()),
            "raw_kept": len(self.raw),
            "aggregate": [
                {"name": name, "parent": parent, "spans": s, "total_ns": t, "self_ns": sf}
                for (name, parent), (s, t, sf) in sorted(self.agg.items(), key=lambda kv: -kv[1][2])
            ],
            "calls": dict(self.calls),
            "raw": [
                {"request": r, "name": n, "parent": p, "start_ns": s, "end_ns": e}
                for r, n, p, s, e in self.raw
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _is_public_function(obj):
    # functions defined in klazar.<layer> under a public name; lru_cache
    # wrappers (counting.stirling2) count, lambdas and classes do not
    module = getattr(obj, "__module__", None) or ""
    name = getattr(obj, "__name__", "")
    if not module.startswith("klazar.") or name.startswith(("_", "<")):
        return False
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics

BIJECTION_MAPS = ("phi", "phi_inverse", "sigma", "sigma_inverse", "tau", "tau_inverse",
                  "Phi_recursive", "Phi_explicit", "tau_variant")
SERIES_BUILDERS = ("gf_w12", "gf_leaves", "gf_Fstarstar", "gf_trivariate", "gf_kv", "gf_even_odd", "gf_vertical")
VERIFY_CHECKS = (
    "eq1", "eq3", "eq2-vs-enum", "theorem2", "theorem3", "quadrivariate",
    "pm-formula", "theorem8", "class-split", "phi", "sigma", "tau",
    "Phi-equality", "cor13", "joint-dist", "vertical-gf",
    "stirling-bijection", "code-roundtrips",
)

# (metric, unit); the suffix says how a function's spans become the value:
# us_per_object = inclusive time per yielded object, us_per_call = inclusive
# time per call, calls_per_object = calls per workload object, self_s = self
# time, s = inclusive time.
PER_LAYER = (
    [(f"{layer}.{what}", unit) for layer in LAYERS
     for what, unit in (("calls", "count"), ("self_s", "s"), ("self_share", "ratio"))]
    + [
        ("tree_core.enumerate_increasing_trees.us_per_object", "us"),
        ("tree_core.klazar_violators.us_per_call", "us"),
        ("tree_core.tree_stats.us_per_call", "us"),
        ("tree_core.tables_of.calls_per_object", "count"),
        ("tree_core.check_increasing_tree.calls_per_object", "count"),
        ("tree_core.tree_from_tables.calls_per_object", "count"),
        ("matching_core.enumerate_matchings.us_per_object", "us"),
        ("matching_core.classify_edges.calls_per_object", "count"),
        ("matching_core.enlarge.us_per_call", "us"),
        ("matching_core.enumerate_stirling_matchings.self_s", "s"),
        ("matching_core.stirling.useful_ratio", "ratio"),
        ("matching_core.power.useful_ratio", "ratio"),
        ("codes.enumerate_words.us_per_object", "us"),
        ("codes.enumerate_tree_codes.us_per_object", "us"),
        ("codes.enumerate_match_codes.us_per_object", "us"),
        ("codes.validations_per_object", "count"),
    ]
    + [(f"bijections.{m}.us_per_call", "us") for m in BIJECTION_MAPS]
    + [(f"series.{b}.s", "s") for b in SERIES_BUILDERS]
    + [("series.oracles.s", "s")]
    + [(f"series.{op}.self_s", "s") for op in ("series_mul", "series_inv", "series_sqrt")]
    + [(f"counting.{f}.s", "s") for f in ("refined_tree_counts", "refined_tree_counts4", "bad_vertex_distribution")]
    + [(f"cli.verify.{c}.s", "s") for c in VERIFY_CHECKS]
    + [("trace.overhead_share", "ratio")]
)


def _useful_ratio(log, candidates):
    yielded = sum(y for _, y in log)
    examined = sum(candidates(*args) for args, _ in log)
    return yielded / examined if examined else 0.0


def _stirling_candidates(n, k):
    # enumerate_stirling_matchings filters every (n - k)-subset of the
    # n(n-1)/2 strictly right-down cells
    return math.comb(n * (n - 1) // 2, n - k) if 0 <= k <= n else 0


def _power_candidates(k, n):
    # enumerate_power_matchings filters the product of ranges [1, k + b)
    return math.prod(k + b - 1 for b in range(1, n + 1)) if k >= 0 and n >= 0 else 0


def per_layer_metrics(tracer, traced_s, untraced_s, objects, verify_elapsed):
    """Every PER_LAYER value, 0 where a workload does not reach the layer."""
    totals = tracer.totals()
    calls = tracer.calls
    out = {}
    for layer in LAYERS:
        prefix = layer + "."
        self_s = sum(row[2] for name, row in totals.items() if name.startswith(prefix)) / 1e9
        out[f"{layer}.calls"] = sum(c for name, c in calls.items() if name.startswith(prefix))
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_share"] = self_s / traced_s
    out["matching_core.stirling.useful_ratio"] = _useful_ratio(
        tracer.arg_log["matching_core.enumerate_stirling_matchings"], _stirling_candidates)
    out["matching_core.power.useful_ratio"] = _useful_ratio(
        tracer.arg_log["matching_core.enumerate_power_matchings"], _power_candidates)
    out["codes.validations_per_object"] = sum(
        c for name, c in calls.items() if name.startswith("codes.validate_")) / objects
    out["series.oracles.s"] = sum(
        row[1] for name, row in totals.items()
        if name.startswith("series.gf_") and (name.endswith("_at") or name == "series.gf_w12_alt")) / 1e9
    for check in VERIFY_CHECKS:
        out[f"cli.verify.{check}.s"] = verify_elapsed.get(check, 0.0)
    out["trace.overhead_share"] = traced_s / untraced_s - 1
    for metric, _ in PER_LAYER:
        if metric in out:
            continue
        name, kind = metric.rsplit(".", 1)
        spans, inclusive_ns, self_ns = totals.get(name, (0, 0, 0))
        if kind == "us_per_object":
            n = tracer.yields[name]
            out[metric] = inclusive_ns / n / 1e3 if n else 0.0
        elif kind == "us_per_call":
            n = calls[name]
            out[metric] = inclusive_ns / n / 1e3 if n else 0.0
        elif kind == "calls_per_object":
            out[metric] = calls[name] / objects
        elif kind == "self_s":
            out[metric] = self_ns / 1e9
        elif kind == "s":
            out[metric] = inclusive_ns / 1e9
        else:
            raise ValueError(f"no rule for per-layer metric {metric}")
    return {metric: out[metric] for metric, _ in PER_LAYER}
