"""The four benchmark workloads: seeded inputs, one timed pass, output gates.

Every workload is a closed loop with one caller.  Inputs are made from the
seed before any timing.  The package is reached only through its public
API, and always through a module attribute looked up at call time, so the
traced run sees every call.  Gates run after a pass, outside its timing,
and check outputs by a route other than the one timed: known constants,
inverse maps, a second construction, or arithmetic done here.
"""

from __future__ import annotations

import io
import json
import random
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from typing import NamedTuple

from klazar import bijections, cli, codes, counting, series, tree_core
from tracing import SERIES_BUILDERS, VERIFY_CHECKS


class Pass(NamedTuple):
    wall_s: float
    latencies_s: list  # one per object the pass delivers
    outputs: object


class Gates:
    """Counts output checks attempted and records the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    """What every workload provides besides __init__(seed, smoke), run_pass
    and check: `objects` delivered per pass, and the two hooks below."""

    name = ""
    objects = 0
    n = None  # size parameter: n, or the series order; None for per-check defaults

    def canonical(self, outputs):
        """The outputs with run-dependent fields (times) removed."""
        return outputs

    def check_times(self, outputs):
        """check name -> seconds, as the program itself reported them."""
        return {}


class _StampedSink(io.StringIO):
    """stdout replacement that notes when each output line is completed."""

    def __init__(self):
        super().__init__()
        self.stamps = []

    def write(self, text):
        n = super().write(text)
        if "\n" in text:
            self.stamps.append(time.perf_counter())
        return n


def _odd_double_factorial(n):
    out = 1
    for f in range(1, 2 * n, 2):
        out *= f
    return out


def _uplines_of(matching):
    """Uplines (bottom pos, top pos) from the JSON pairs of a matching."""
    out = set()
    for a, b in matching.to_json()["pairs"]:
        if a % 2 == 0 and b % 2 == 1:  # pairs come as a < b
            out.add((a // 2, (b + 1) // 2))
    return out


# ---------------------------------------------------------------------------


class VerifyAll(Workload):
    """`klazar verify --check all --format jsonl`; an object is one check."""

    name = "verify-all"

    def __init__(self, seed, smoke):
        self.argv = ["verify", "--check", "all", "--format", "jsonl"]
        if smoke:
            self.n = 4
            self.argv += ["--max-n", str(self.n)]
        self.objects = len(VERIFY_CHECKS)

    def run_pass(self, mark):
        mark(0)
        sink = _StampedSink()
        start = time.perf_counter()
        with redirect_stdout(sink):
            code = cli.main(self.argv)
        wall = time.perf_counter() - start
        # a check's latency runs from the previous line to its own line
        ends = [start] + sink.stamps
        latencies = [b - a for a, b in zip(ends, ends[1:])]
        return Pass(wall, latencies, (code, sink.getvalue().splitlines()))

    @staticmethod
    def _reports(lines):
        reports = []
        for line in lines:
            try:
                reports.append(json.loads(line))
            except json.JSONDecodeError:
                reports.append({"check": None, "status": line})
        return reports

    def check(self, outputs, gates):
        code, lines = outputs
        gates.expect(code == 0, f"verify exited {code}")
        reports = self._reports(lines)
        names = [r.get("check") for r in reports]
        gates.expect(names == list(VERIFY_CHECKS), f"verify ran {names}")
        for report in reports:
            gates.expect(report.get("status") == "PASS", f"check {report.get('check')}: {report.get('status')}")

    def canonical(self, outputs):
        code, lines = outputs
        return code, [{k: v for k, v in r.items() if k != "elapsed_s"} for r in self._reports(lines)]

    def check_times(self, outputs):
        return {r["check"]: r["elapsed_s"] for r in self._reports(outputs[1]) if "elapsed_s" in r}

    def plant(self, outputs):
        code, lines = outputs
        return code, [lines[0].replace('"PASS"', '"FAIL"')] + lines[1:]


# ---------------------------------------------------------------------------

# Corollary 13: violators of trees, uplines of matchings and even values of
# odd multiplicity in words share one distribution.  Tallied independently
# with tests/bruteforce.py, which does not import the package.
COR13_DISTRIBUTION = {
    4: [[0, 35], [1, 51], [2, 18], [3, 1]],
    7: [[0, 16717], [1, 46824], [2, 47265], [3, 20560], [4, 3585], [5, 183], [6, 1]],
}


class StatsN7(Workload):
    """Three `klazar stats --format json` calls; an object is one enumerated object."""

    name = "stats-n7"
    calls = (("trees", "kv"), ("matchings", "uplines"), ("words", "even-odd-multiplicity"))

    def __init__(self, seed, smoke):
        self.n = 4 if smoke else 7
        self.per_call = _odd_double_factorial(self.n)
        self.objects = len(self.calls) * self.per_call

    def run_pass(self, mark):
        outputs, latencies = [], []
        start = time.perf_counter()
        for k, (kind, stat) in enumerate(self.calls):
            mark(k)
            buf = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                code = cli.main(["stats", "--kind", kind, "--n", str(self.n), "--stat", stat, "--format", "json"])
            # the stream gives no per-object timestamps: each call yields its mean
            latencies.append((time.perf_counter() - t0) / self.per_call)
            outputs.append((code, buf.getvalue()))
        return Pass(time.perf_counter() - start, latencies, outputs)

    def check(self, outputs, gates):
        want = COR13_DISTRIBUTION[self.n]
        dists = []
        for (kind, stat), (code, text) in zip(self.calls, outputs):
            gates.expect(code == 0, f"stats {kind}/{stat} exited {code}")
            try:
                doc = json.loads(text)
            except json.JSONDecodeError:
                doc = {}
            dist = doc.get("distribution")
            dists.append(dist)
            gates.expect(doc.get("total") == self.per_call, f"{kind}/{stat} total {doc.get('total')}")
            gates.expect(sum(v for _, v in dist or []) == self.per_call, f"{kind}/{stat} sums to the wrong count")
            gates.expect(bool(dist) and dist[0] == want[0], f"{kind}/{stat} zero class {dist and dist[0]}")
            gates.expect(dist == want, f"{kind}/{stat} distribution {dist}")
        gates.expect(all(d == dists[0] for d in dists), "the three distributions differ")

    def plant(self, outputs):
        code, text = outputs[0]
        doc = json.loads(text)
        doc["distribution"][0][1] += 1
        return [(code, json.dumps(doc))] + outputs[1:]


# ---------------------------------------------------------------------------


class Images(NamedTuple):
    tree: object
    tree_code: object
    matching: object
    match_code: object
    sigma: object
    sigma_back: object
    phi_rec: object
    phi_exp: object
    tau_back: object
    marked: object
    phi_back: object
    tau_variant: object
    stats: object


def _round_trip(tc, mc):
    t = codes.code_to_tree(tc)
    m = codes.code_to_matching(mc)
    sc = bijections.sigma(t)
    big = bijections.Phi_recursive(t)
    mt = bijections.phi_inverse(t)
    return Images(
        tree=t,
        tree_code=codes.tree_to_code(t),
        matching=m,
        match_code=codes.matching_to_code(m),
        sigma=sc,
        sigma_back=bijections.sigma_inverse(sc),
        phi_rec=big,
        phi_exp=bijections.Phi_explicit(t),
        tau_back=bijections.tau_inverse(big),
        marked=mt,
        phi_back=bijections.phi(mt),
        tau_variant=bijections.tau_variant(mc),
        stats=tree_core.tree_stats(t),
    )


def _swap_letters(tree_code):
    """Tree code -> matching code: (R,0) at step k is (B,k), R->B, L->T."""
    return tuple(
        ("B", k if i == 0 else i) if x == "R" else ("T", i)
        for k, (x, i) in enumerate(tree_code, start=1)
    )


def _odd_indices(code, letter):
    counts = Counter(i for x, i in code if x == letter)
    return sum(1 for c in counts.values() if c % 2)


class RoundtripN100(Workload):
    """Seeded uniform objects at n = 100 through every map and inverse."""

    name = "roundtrip-n100"

    def __init__(self, seed, smoke):
        rng = random.Random(seed)
        self.n, count = (4, 10) if smoke else (100, 100)
        self.objects = count
        self.inputs = []
        for _ in range(count):
            word = [rng.randint(1, 2 * k - 1) for k in range(1, self.n + 1)]
            tc = tuple(("L", a // 2) if a % 2 == 0 else ("R", (a - 1) // 2) for a in word)
            self.inputs.append((tc, _swap_letters(tc)))

    def run_pass(self, mark):
        outputs, latencies = [], []
        start = time.perf_counter()
        for k, (tc, mc) in enumerate(self.inputs):
            mark(k)
            t0 = time.perf_counter()
            outputs.append(_round_trip(tc, mc))
            latencies.append(time.perf_counter() - t0)
        return Pass(time.perf_counter() - start, latencies, outputs)

    def check(self, outputs, gates):
        for k, ((tc, mc), im) in enumerate(zip(self.inputs, outputs)):
            expect = lambda ok, what: gates.expect(ok, f"object {k}: {what}")
            expect(im.tree_code == tc, "tree_to_code(code_to_tree(c)) != c")
            expect(im.match_code == mc, "matching_to_code(code_to_matching(c)) != c")
            expect(im.sigma_back == im.tree, "sigma_inverse(sigma(t)) != t")
            expect(im.phi_back == im.tree, "phi(phi_inverse(t)) != t")
            expect(im.phi_rec == im.phi_exp, "Phi_recursive(t) != Phi_explicit(t)")
            expect(im.tau_back == _swap_letters(im.sigma), "tau_inverse(Phi(t)) != swap(sigma(t))")
            ups = _uplines_of(im.phi_rec)
            expect(ups == set(tree_core.violator_partners(im.tree).items()),
                   "uplines of Phi(t) != violator/partner pairs of t")
            expect(len(im.stats.klazar_violators) == len(ups), "tree_stats violator count")
            pairs = im.tau_variant.to_json()["pairs"]
            e2o = sum(1 for a, b in pairs if a % 2 == 0 and b % 2 == 1)
            o2e = sum(1 for a, b in pairs if a % 2 == 1 and b % 2 == 0)
            expect((e2o, o2e) == (_odd_indices(mc, "T"), _odd_indices(mc, "B")),
                   "tau_variant parity statistics")

    def plant(self, outputs):
        wrong = codes.code_to_matching((("B", 1),))
        return [outputs[0]._replace(phi_exp=wrong)] + outputs[1:]


# ---------------------------------------------------------------------------

# Rows a(n, l) of Theorem 2 as printed in the paper (row 6 is not printed).
PAPER_BAD_ROWS = {
    1: [1],
    2: [2, 1],
    3: [4, 10, 1],
    4: [8, 60, 36, 1],
    5: [16, 296, 516, 116, 1],
    7: [64, 5664, 42960, 64240, 21120, 1086, 1],
}

# builder -> (oracle, marker names); each pair expands one closed form two ways
ORACLES = {
    "gf_leaves": ("gf_leaves_at", ("y",)),
    "gf_Fstarstar": ("gf_Fstarstar_at", ("y",)),
    "gf_trivariate": ("gf_trivariate_at", ("y", "z")),
    "gf_kv": ("gf_kv_at", ("y",)),
    "gf_even_odd": ("gf_even_odd_at", ("y",)),
    "gf_vertical": ("gf_vertical_at", ("y",)),
}


def _rational(rng):
    # +-p/q with q prime and q < p < 2q is in lowest terms, so every point has
    # about the same height and the oracle cost stays alike from seed to
    # seed.  It is never 0, 1/2 or 1, where the one-marker closed forms
    # degenerate.
    q = rng.choice([11, 13])
    return Fraction(rng.choice([-1, 1]) * rng.randint(q + 1, 2 * q - 1), q)


def _oracle_point(rng, markers):
    """A seeded point where the closed form is defined; the trivariate one
    degenerates where 1 + y - 2z = 0."""
    while True:
        point = tuple(_rational(rng) for _ in markers)
        if len(point) == 1 or 1 + point[0] - 2 * point[1] != 0:
            return point


class SeriesO24(Workload):
    """Every series builder, its oracle at a seeded point, and the refined
    tables; an object is one series built by a `gf_*` builder (7).  The
    oracles and tables are timed in the pass but are not objects: they are
    many times smaller, and percentiles over a mix of sizes would jump
    between them."""

    name = "series-o24"

    def __init__(self, seed, smoke):
        rng = random.Random(seed)
        self.n = self.order = 6 if smoke else 24
        self.points = {b: _oracle_point(rng, markers) for b, (_, markers) in ORACLES.items()}
        self.tasks = [(series, b, (self.order,)) for b in SERIES_BUILDERS]
        self.tasks.append((series, "gf_w12_alt", (self.order,)))
        self.tasks += [(series, o, (self.order, *self.points[b])) for b, (o, _) in ORACLES.items()]
        self.tasks += [(counting, "refined_tree_counts", (self.order,)),
                       (counting, "refined_tree_counts4", (self.order,))]
        self.objects = len(SERIES_BUILDERS)

    def run_pass(self, mark):
        outputs, latencies = {}, []
        start = time.perf_counter()
        for k, (module, attr, args) in enumerate(self.tasks):
            mark(k)
            t0 = time.perf_counter()
            outputs[attr] = getattr(module, attr)(*args)
            if attr in SERIES_BUILDERS:
                latencies.append(time.perf_counter() - t0)
        return Pass(time.perf_counter() - start, latencies, outputs)

    def check(self, outputs, gates):
        order = self.order
        scalars = lambda f: [f.scalar(m) for m in range(order + 1)]
        for builder, (oracle, markers) in ORACLES.items():
            at = outputs[builder].substitute(dict(zip(markers, self.points[builder])))
            gates.expect(scalars(at) == scalars(outputs[oracle]),
                         f"{builder} at {self.points[builder]} != {oracle}")
        w12 = scalars(outputs["gf_w12"])
        gates.expect(w12 == counting.w12_sequence(order), "gf_w12 != w12_sequence")
        gates.expect(w12 == scalars(outputs["gf_w12_alt"]), "gf_w12 != gf_w12_alt")
        tri, table = outputs["gf_trivariate"], outputs["refined_tree_counts"].entries
        for n in range(1, order + 1):
            rows = {(i, j): v for (m, i, j), v in table.items() if m == n}
            gates.expect(tri.coefficient(n) == rows, f"gf_trivariate coefficient {n} != refined_tree_counts")
        marginal = Counter()
        for (n, i, j, _), v in outputs["refined_tree_counts4"].entries.items():
            marginal[(n, i, j)] += v
        gates.expect(dict(marginal) == table, "refined_tree_counts4 summed over leaves != refined_tree_counts")
        bad = outputs["gf_Fstarstar"]
        for n, row in PAPER_BAD_ROWS.items():
            if n <= order:
                got = [bad.coefficient(n).get((l,), 0) for l in range(1, n + 1)]
                gates.expect(got == row, f"gf_Fstarstar row {n}: {got}")

    def plant(self, outputs):
        return {**outputs, "gf_kv_at": outputs["gf_vertical_at"]}


WORKLOADS = {w.name: w for w in (VerifyAll, StatsN7, RoundtripN100, SeriesO24)}
