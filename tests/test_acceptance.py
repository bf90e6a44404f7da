"""Acceptance gate: thirteen checks, one test each, exact equalities only.

Sizes are fixed by the acceptance contract (n <= 8 for raw cardinalities,
n <= 7 for the bijections, n <= 6 for the generating-function tallies,
order 12 for the series engine).  Each test prints as a single pass/fail
line under ``pytest -v``.
"""

import random
from fractions import Fraction

import bruteforce as bf
from klazar import checks
from klazar.codes import enumerate_match_codes, enumerate_tree_codes, enumerate_words
from klazar.counting import (
    bad_vertex_distribution,
    no_upline_count,
    odd_double_factorial,
    stirling2,
    w12_sequence,
)
from klazar.matching_core import (
    check_power,
    enumerate_matchings,
    enumerate_power_matchings,
    enumerate_stirling_matchings,
    stirling_to_partition,
)
from klazar.series import (
    TruncatedEGF,
    egf_const,
    gf_even_odd,
    gf_even_odd_at,
    gf_Fstarstar,
    gf_Fstarstar_at,
    gf_kv,
    gf_kv_at,
    gf_leaves,
    gf_leaves_at,
    gf_trivariate,
    gf_trivariate_at,
    gf_vertical,
    gf_vertical_at,
    gf_w12,
    gf_w12_alt,
    series_add,
    series_inv_sqrt,
    series_mul,
    series_scale,
)
from klazar.tree_core import enumerate_increasing_trees


def _passes(check, max_n):
    ok, cx, notes = check(max_n)
    assert ok, f"counterexample: {cx}"
    return notes


def test_criterion_01_four_families_share_their_cardinality():
    for n in range(9):
        want = odd_double_factorial(2 * n - 1)
        assert sum(1 for _ in enumerate_increasing_trees(n)) == want, n
        assert sum(1 for _ in enumerate_matchings(n)) == want, n
        assert sum(1 for _ in enumerate_tree_codes(n)) == want, n
        assert sum(1 for _ in enumerate_words(n)) == want, n
    # the second code family is in bijection with the first; counting it
    # one size down keeps this check inside the per-check time budget
    for n in range(8):
        assert (
            sum(1 for _ in enumerate_match_codes(n))
            == odd_double_factorial(2 * n - 1)
        ), n


def test_criterion_02_node_weighted_sums_hit_the_double_factorial():
    _passes(checks.check_eq3, 7)


def test_criterion_03_violator_free_counts_agree_four_ways():
    assert w12_sequence(7) == [1, 1, 2, 7, 35, 226, 1787, 16717]
    assert [no_upline_count(n) for n in range(8)] == w12_sequence(7)
    _passes(checks.check_eq2_vs_enum, 7)


def test_criterion_04_phi_matches_marks_to_violators():
    _passes(checks.check_phi, 7)


def test_criterion_05_bad_vertex_rows():
    notes = _passes(checks.check_theorem2, 7)
    # two digits of the sixth row are commonly misquoted; both independent
    # routes give the row below, and the check must say so in its notes
    dist6 = bad_vertex_distribution(6)
    row6 = [dist6.get(l, 0) for l in range(1, 7)]
    assert row6 == [32, 1328, 5168, 3508, 358, 1]
    assert sum(row6) == odd_double_factorial(11) == 10395
    assert any("1328" in note for note in notes)
    gf = gf_Fstarstar(6)
    assert {l: int(c) for (l,), c in gf.coefficient(6).items()} == dist6


def test_criterion_06_refined_tree_tables_match_tallies():
    _passes(checks.check_theorem3, 6)
    _passes(checks.check_quadrivariate, 6)


def test_criterion_07_no_upline_formulas_and_decomposition():
    _passes(checks.check_pm_formula, 7)
    _passes(checks.check_theorem8, 7)


def test_criterion_08_stirling_and_power_diagrams():
    for n in range(9):
        by_k = {}
        for p in bf.bf_set_partitions(n):
            by_k.setdefault(len(p), set()).add(p)
        for k in range(n + 1):
            sms = list(enumerate_stirling_matchings(n, k))
            assert len(sms) == stirling2(n, k) == bf.bf_stirling2(n, k), (n, k)
            parts = {stirling_to_partition(sm) for sm in sms}
            assert len(parts) == len(sms), (n, k)
            assert parts == by_k.get(k, set()), (n, k)
    for k in range(1, 6):
        for n in range(7):
            count = 0
            for pm in enumerate_power_matchings(k, n):
                check_power(pm)
                count += 1
            assert count == k**n, (k, n)


def test_criterion_09_recurrence_classes_partition_and_reduce():
    _passes(checks.check_class_split, 7)


def test_criterion_10_tree_matching_correspondence():
    _passes(checks.check_Phi_equality, 7)
    _passes(checks.check_sigma, 7)
    _passes(checks.check_tau, 7)


def test_criterion_11_three_statistics_one_distribution():
    _passes(checks.check_cor13, 7)


def test_criterion_12_joint_parity_and_vertical_distributions():
    _passes(checks.check_joint_dist, 6)
    _passes(checks.check_vertical_gf, 6)


# --- criterion 13: the series engine against itself ------------------------

ORDER = 12


def _pmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = out.get(e, Fraction(0)) + c1 * c2
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def _ppow(p, k, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = _pmul(out, p)
    return out


def _egf(markers, coeff_of_m):
    return TruncatedEGF(
        ORDER, tuple(markers), tuple(coeff_of_m(m) for m in range(ORDER + 1))
    )


def _unit_identity(p, g):
    assert series_mul(series_mul(p, p), g) == egf_const(ORDER, 1, g.markers)


def _sample(rng, reject):
    while True:
        v = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        if not reject(v):
            return v


def test_criterion_13_series_engine_self_consistency():
    one = Fraction(1)

    # radicands rebuilt from their definitions, one per inverse-square-root
    # site, each checked against p^2 g = 1 and against the public builder
    g = _egf((), lambda m: {(): Fraction(1 if m == 0 else 2 * (-1) ** m)})
    p = series_inv_sqrt(g)
    _unit_identity(p, g)
    assert gf_w12(ORDER) == p

    g = _egf(
        ("y",),
        lambda m: {(0,): one}
        if m == 0
        else _pmul({(1,): Fraction(-2)}, _ppow({(0,): one, (1,): Fraction(-2)}, m - 1, 1)),
    )
    p = series_inv_sqrt(g)
    _unit_identity(p, g)
    assert gf_leaves(ORDER) == p

    g = _egf(
        ("y",),
        lambda m: {(0,): one}
        if m == 0
        else _pmul({(1,): Fraction(-(2**m))}, _ppow({(0,): one, (1,): -one}, m - 1, 1)),
    )
    p = series_inv_sqrt(g)
    _unit_identity(p, g)
    assert gf_Fstarstar(ORDER) == p

    g = _egf(
        ("y", "z"),
        lambda m: {(0, 0): one}
        if m == 0
        else _pmul(
            {(0, 1): Fraction(-2)},
            _ppow({(0, 0): one, (1, 0): one, (0, 1): Fraction(-2)}, m - 1, 2),
        ),
    )
    p = series_inv_sqrt(g)
    _unit_identity(p, g)
    assert gf_trivariate(ORDER) == p

    g = _egf(
        ("y",),
        lambda m: {(0,): one}
        if m == 0
        else _pmul({(0,): Fraction(-2)}, _ppow({(1,): one, (0,): -one}, m - 1, 1)),
    )
    p = series_inv_sqrt(g)
    _unit_identity(p, g)
    assert gf_kv(ORDER) == p

    E = _egf(("y",), lambda m: {(m,): one})
    v = _egf(("y",), lambda m: {} if m == 0 else {(m - 1,): one})
    g = series_add(egf_const(ORDER, 1, ("y",)), series_scale(series_mul(v, v), -1))
    p = series_inv_sqrt(g)
    _unit_identity(p, g)
    assert gf_even_odd(ORDER) == series_mul(E, p)

    E = _egf(("y",), lambda m: _ppow({(1,): one, (0,): -one}, m, 1))
    g = _egf(("y",), lambda m: {(0,): Fraction({0: 1, 1: -2}.get(m, 0))} if m <= 1 else {})
    p = series_inv_sqrt(g)
    _unit_identity(p, g)
    assert gf_vertical(ORDER) == series_mul(E, p)

    # rewritten closed forms against marker substitution at random rationals
    assert gf_w12_alt(ORDER) == gf_w12(ORDER)
    rng = random.Random(0x5EED)
    full = {
        "leaves": gf_leaves(ORDER),
        "Fstarstar": gf_Fstarstar(ORDER),
        "trivariate": gf_trivariate(ORDER),
        "kv": gf_kv(ORDER),
        "even_odd": gf_even_odd(ORDER),
        "vertical": gf_vertical(ORDER),
    }
    for _ in range(5):
        y = _sample(rng, lambda v: v == Fraction(1, 2))
        assert gf_leaves_at(ORDER, y) == full["leaves"].substitute({"y": y})
        y = _sample(rng, lambda v: v == 1)
        assert gf_Fstarstar_at(ORDER, y) == full["Fstarstar"].substitute({"y": y})
        y = _sample(rng, lambda v: False)
        z = _sample(rng, lambda v: 1 + y - 2 * v == 0)
        assert gf_trivariate_at(ORDER, y, z) == full["trivariate"].substitute(
            {"y": y, "z": z}
        )
        y = _sample(rng, lambda v: v == 1)
        assert gf_kv_at(ORDER, y) == full["kv"].substitute({"y": y})
        y = _sample(rng, lambda v: v == 0)
        assert gf_even_odd_at(ORDER, y) == full["even_odd"].substitute({"y": y})
        # the same point exercises the scalar radicand of the rewrite
        Ey = _egf((), lambda m: {(): y**m})
        two_minus = _egf(
            (), lambda m: {(): Fraction(2) - y**m if m == 0 else -(y**m)}
        )
        rad = series_scale(
            series_add(egf_const(ORDER, y * y - 1), series_mul(Ey, two_minus)),
            1 / (y * y),
        )
        _unit_identity(series_inv_sqrt(rad), rad)
        y = _sample(rng, lambda v: False)
        assert gf_vertical_at(ORDER, y) == full["vertical"].substitute({"y": y})

    g = _egf((), lambda m: {(): Fraction({0: 1, 1: -2}.get(m, 0))} if m <= 1 else {})
    _unit_identity(series_inv_sqrt(g), g)
