"""The series engine works with truncated EGFs over sparse rational
polynomials in the markers.  The constructors come in two flavours, a
rewritten form built from exp/inv/sqrt primitives and a direct expansion
at fixed marker values; the tests pin both against enumeration."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from klazar import series
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
    series_inv,
    series_inv_sqrt,
    series_mul,
    series_scale,
    series_sqrt,
)
from klazar.counting import bad_vertex_distribution, w12_sequence
from klazar.matching_core import classify_edges, enumerate_matchings, weak_downlines
from klazar.tree_core import enumerate_increasing_trees, klazar_violators, tree_stats

ONE = Fraction(1)


@st.composite
def small_series(draw, order=6):
    """A random truncated EGF with a nonzero constant term."""
    coeffs = [draw(st.fractions(min_value=-8, max_value=8, max_denominator=5))
              for _ in range(order + 1)]
    if coeffs[0] == 0:
        coeffs[0] = ONE
    return TruncatedEGF(order, (), tuple({(): c} if c else {} for c in coeffs))


# ---------------------------------------------------------------------------
# the arithmetic core


def test_scalar_access_and_errors():
    f = egf_const(3, Fraction(5))
    assert f.scalar(0) == 5
    assert f.scalar(3) == 0
    with pytest.raises(ValueError):
        f.scalar(4)
    g = egf_const(3, ONE, markers=("y",))
    with pytest.raises(ValueError):
        g.scalar(0)


def test_mixed_order_or_markers_refused():
    with pytest.raises(ValueError):
        series_add(egf_const(3, ONE), egf_const(4, ONE))
    with pytest.raises(ValueError):
        series_mul(egf_const(3, ONE), egf_const(3, ONE, markers=("y",)))


def test_exp_inverts_scaling():
    # e^x has EGF coefficients 1, 1, 1, ... and e^(-x) has 1, -1, 1, ...
    e = TruncatedEGF(8, (), tuple({(): ONE} for _ in range(9)))
    e_minus = TruncatedEGF(8, (), tuple({(): (-ONE) ** m} for m in range(9)))
    prod = series_mul(e, e_minus)
    assert prod.scalar(0) == 1
    assert all(prod.scalar(m) == 0 for m in range(1, 9))


@given(small_series())
@settings(max_examples=60)
def test_inv_is_a_right_inverse(f):
    prod = series_mul(f, series_inv(f))
    assert prod.scalar(0) == 1
    assert all(prod.scalar(m) == 0 for m in range(1, f.order + 1))


@given(small_series())
@settings(max_examples=60)
def test_sqrt_squares_back(f):
    # normalize the constant to 1 first, as sqrt requires
    c = f.coefficient(0)[()]
    g = series_scale(f, 1 / c)
    r = series_sqrt(g)
    sq = series_mul(r, r)
    for m in range(f.order + 1):
        assert sq.coefficient(m) == g.coefficient(m)


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        series_sqrt(egf_const(3, Fraction(4)))


def test_inv_requires_nonzero_constant():
    zero = TruncatedEGF(3, (), ({}, {}, {}, {}))
    with pytest.raises(ValueError):
        series_inv(zero)


def test_inv_sqrt_defining_identity():
    f = gf_w12(10)
    # recover the radicand and check p^2 * g = 1
    g = series_inv(series_mul(f, f))
    assert g.scalar(0) == 1


def test_json_roundtrip():
    f = gf_trivariate(5)
    back = TruncatedEGF.from_json(f.to_json())
    assert back == f


def test_substitute_projects_markers():
    f = gf_trivariate(5)
    at_z1 = f.substitute({"z": 1})
    assert at_z1.markers == ("y",)
    total = f.substitute({"y": 1, "z": 1})
    for n in range(6):
        assert total.scalar(n) == bf.bf_odd_double_factorial(2 * n - 1)


# ---------------------------------------------------------------------------
# the scalar sequence


def test_w12_series_matches_recurrence():
    f = gf_w12(10)
    seq = w12_sequence(10)
    for n in range(11):
        assert f.scalar(n) == seq[n]


def test_w12_alternate_route_agrees():
    assert gf_w12_alt(10) == gf_w12(10)


# ---------------------------------------------------------------------------
# marker series against exhaustive tallies (small sizes; the acceptance
# suite pushes these further)


def tally_gf(make_stat, n, universe):
    c = Counter()
    for obj in universe(n):
        c[make_stat(obj)] += 1
    return {k if isinstance(k, tuple) else (k,): Fraction(v) for k, v in c.items()}


def test_leaf_series_counts_violator_free_trees_by_leaves():
    f = gf_leaves(5)
    for n in range(1, 6):
        want = Counter()
        for t in enumerate_increasing_trees(n):
            if not klazar_violators(t):
                want[(tree_stats(t).leaves,)] += 1
        assert f.coefficient(n) == {k: Fraction(v) for k, v in want.items()}
    # at y = 1 the leaf marker collapses onto the violator-free count
    seq = w12_sequence(5)
    at1 = gf_leaves(5).substitute({"y": 1})
    assert [at1.scalar(n) for n in range(6)] == seq


def test_leaf_series_constant_term_is_marker_free():
    # the zero-edge tree carries no leaf weight in the series normalization
    assert gf_leaves(3).coefficient(0) == {(0,): ONE}


def test_bad_vertex_series_matches_distribution():
    f = gf_Fstarstar(5)
    for n in range(1, 6):
        got = {l: int(c) for (l,), c in f.coefficient(n).items()}
        assert got == bad_vertex_distribution(n)


def test_violator_series_matches_tally():
    f = gf_kv(5)
    for n in range(6):
        want = tally_gf(lambda t: len(klazar_violators(t)), n, enumerate_increasing_trees)
        assert f.coefficient(n) == want


def test_trivariate_series_matches_tally():
    f = gf_trivariate(5)
    for n in range(1, 6):
        want = tally_gf(
            lambda t: (len(tree_stats(t).klazar_violators), tree_stats(t).non_dt_leaves),
            n, enumerate_increasing_trees)
        assert f.coefficient(n) == want


def test_even_odd_series_matches_tally():
    f = gf_even_odd(5)
    for n in range(6):
        c = Counter()
        for m in enumerate_matchings(n):
            e2o = sum(1 for a, b in m.pairs() if a % 2 == 0 and b % 2 == 1)
            if e2o == 0:
                c[len(weak_downlines(m))] += 1
        want = {(k,): Fraction(v) for k, v in c.items()}
        assert f.coefficient(n) == want


def test_vertical_series_matches_tally():
    f = gf_vertical(5)
    for n in range(6):
        want = tally_gf(lambda m: len(classify_edges(m).verticals), n, enumerate_matchings)
        assert f.coefficient(n) == want


# ---------------------------------------------------------------------------
# rewritten constructors against direct expansion at rational points


POINTS = [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2)]


def test_leaves_direct_route():
    for y in POINTS:
        assert gf_leaves_at(8, y) == gf_leaves(8).substitute({"y": y})
    with pytest.raises(ValueError):
        gf_leaves_at(4, Fraction(1, 2))


def test_Fstarstar_direct_route():
    for y in POINTS:
        assert gf_Fstarstar_at(8, y) == gf_Fstarstar(8).substitute({"y": y})
    with pytest.raises(ValueError):
        gf_Fstarstar_at(4, ONE)


def test_trivariate_direct_route():
    for y in POINTS:
        z = y + 1
        assert gf_trivariate_at(6, y, z) == gf_trivariate(6).substitute({"y": y, "z": z})
    with pytest.raises(ValueError):
        gf_trivariate_at(4, ONE, ONE)  # 1 + y - 2z = 0


def test_kv_direct_route():
    for y in POINTS:
        assert gf_kv_at(8, y) == gf_kv(8).substitute({"y": y})
    with pytest.raises(ValueError):
        gf_kv_at(4, ONE)


def test_even_odd_direct_route():
    for y in POINTS:
        assert gf_even_odd_at(8, y) == gf_even_odd(8).substitute({"y": y})
    with pytest.raises(ValueError):
        gf_even_odd_at(4, Fraction(0))


def test_vertical_direct_route():
    for y in POINTS + [Fraction(0), ONE]:
        assert gf_vertical_at(8, y) == gf_vertical(8).substitute({"y": y})
