"""Truncated exponential generating functions, exactly.

A TruncatedEGF stores, for 0 <= m <= order, the coefficient of x^m/m! as
a polynomial in zero or more marker variables with Fraction coefficients.
Polynomials are sparse dicts {exponent tuple: Fraction}.  All arithmetic
is exact and never extends past the truncation order.

The closed forms implemented by the gf_* constructors all look like
sqrt(A/B) where A and B share a polynomial constant term, so the raw
quotient cannot be expanded termwise in the coefficient ring (the
constant term is not invertible).  Each constructor therefore uses an
algebraically equivalent rewrite whose square-root argument has constant
term exactly 1.  The gf_*_at companions expand the unrewritten closed
form after substituting concrete rational marker values;
tests/test_series.py, acceptance criterion 13 and the series-o24
benchmark workload compare the two routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# sparse polynomials in a fixed number of variables


def _pconst(c, nvars: int):
    c = Fraction(c)
    return {(0,) * nvars: c} if c else {}


def _padd_into(acc, p, scale=ONE):
    for e, c in p.items():
        v = acc.get(e, ZERO) + scale * c
        if v:
            acc[e] = v
        elif e in acc:
            del acc[e]


def _pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, ZERO) + c1 * c2
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def _ppow(p, k: int, nvars: int):
    assert k >= 0
    out = _pconst(1, nvars)
    for _ in range(k):
        out = _pmul(out, p)
    return out


def _constant_of(p, nvars: int):
    """The Fraction c if p is the constant polynomial c, else None."""
    if not p:
        return ZERO
    if set(p) == {(0,) * nvars}:
        return p[(0,) * nvars]
    return None


@dataclass(frozen=True)
class TruncatedEGF:
    order: int
    markers: tuple
    coeffs: tuple  # one poly dict per 0 <= m <= order

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient list does not match order")
        nv = len(self.markers)
        for p in self.coeffs:
            assert all(len(e) == nv for e in p)

    def coefficient(self, m: int):
        """Polynomial coefficient of x^m/m!, as a fresh dict."""
        if not 0 <= m <= self.order:
            raise ValueError(f"m={m} outside truncation order {self.order}")
        return dict(self.coeffs[m])

    def scalar(self, m: int) -> Fraction:
        if self.markers:
            raise ValueError("series has markers; substitute them first")
        if not 0 <= m <= self.order:
            raise ValueError(f"m={m} outside truncation order {self.order}")
        return self.coeffs[m].get((), ZERO)

    def substitute(self, values: dict) -> "TruncatedEGF":
        """Plug rational values into some or all markers."""
        unknown = set(values) - set(self.markers)
        if unknown:
            raise ValueError(f"unknown markers {sorted(unknown)}")
        keep = tuple(v for v in self.markers if v not in values)
        pos = {v: i for i, v in enumerate(self.markers)}
        out = []
        for p in self.coeffs:
            q = {}
            for e, c in p.items():
                for v, val in values.items():
                    c = c * Fraction(val) ** e[pos[v]]
                _padd_into(q, {tuple(e[pos[v]] for v in keep): c})
            out.append(q)
        return TruncatedEGF(self.order, keep, tuple(out))

    def to_json(self):
        return {
            "order": self.order,
            "markers": list(self.markers),
            "coeffs": [
                [
                    {"exp": list(e), "num": c.numerator, "den": c.denominator}
                    for e, c in sorted(p.items())
                ]
                for p in self.coeffs
            ],
        }

    @staticmethod
    def from_json(obj) -> "TruncatedEGF":
        markers = tuple(obj["markers"])
        coeffs = []
        for terms in obj["coeffs"]:
            p = {}
            for t in terms:
                _padd_into(p, {tuple(t["exp"]): Fraction(t["num"], t["den"])})
            coeffs.append(p)
        return TruncatedEGF(int(obj["order"]), markers, tuple(coeffs))


def egf_const(order: int, c, markers=()) -> TruncatedEGF:
    nv = len(markers)
    return TruncatedEGF(
        order, tuple(markers), (_pconst(c, nv),) + tuple({} for _ in range(order))
    )


def _egf(order, markers, coeff_of_m) -> TruncatedEGF:
    """Build from a function m -> poly dict."""
    return TruncatedEGF(order, tuple(markers), tuple(coeff_of_m(m) for m in range(order + 1)))


def _compat(f: TruncatedEGF, g: TruncatedEGF):
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")
    if f.markers != g.markers:
        raise ValueError(f"marker mismatch: {f.markers} vs {g.markers}")


# ---------------------------------------------------------------------------
# ring operations


def series_add(f: TruncatedEGF, g: TruncatedEGF) -> TruncatedEGF:
    _compat(f, g)
    out = []
    for a, b in zip(f.coeffs, g.coeffs):
        p = dict(a)
        _padd_into(p, b)
        out.append(p)
    return TruncatedEGF(f.order, f.markers, tuple(out))


def series_scale(f: TruncatedEGF, c) -> TruncatedEGF:
    c = Fraction(c)
    return TruncatedEGF(
        f.order, f.markers, tuple({e: c * v for e, v in p.items()} if c else {} for p in f.coeffs)
    )


def series_mul(f: TruncatedEGF, g: TruncatedEGF) -> TruncatedEGF:
    """Binomial convolution: (fg)_m = sum C(m,r) f_r g_{m-r}."""
    _compat(f, g)
    out = []
    for m in range(f.order + 1):
        acc = {}
        for r in range(m + 1):
            if f.coeffs[r] and g.coeffs[m - r]:
                _padd_into(acc, _pmul(f.coeffs[r], g.coeffs[m - r]), Fraction(comb(m, r)))
        out.append(acc)
    return TruncatedEGF(f.order, f.markers, tuple(out))


def series_inv(g: TruncatedEGF) -> TruncatedEGF:
    """1/g when the constant term of g is a nonzero rational."""
    c0 = _constant_of(g.coeffs[0], len(g.markers))
    if c0 is None or c0 == 0:
        raise ValueError("inverse needs a nonzero scalar constant term")
    inv0 = 1 / c0
    u = [_pconst(inv0, len(g.markers))]
    for m in range(1, g.order + 1):
        acc = {}
        for r in range(1, m + 1):
            if g.coeffs[r]:
                _padd_into(acc, _pmul(g.coeffs[r], u[m - r]), Fraction(comb(m, r)))
        u.append({e: -inv0 * v for e, v in acc.items()})
    return TruncatedEGF(g.order, g.markers, tuple(u))


def series_sqrt(f: TruncatedEGF) -> TruncatedEGF:
    """p with p^2 = f and p_0 = 1; requires constant term exactly 1."""
    if _constant_of(f.coeffs[0], len(f.markers)) != 1:
        raise ValueError("square root needs constant term 1")
    nv = len(f.markers)
    p = [_pconst(1, nv)]
    for m in range(1, f.order + 1):
        acc = dict(f.coeffs[m])
        for r in range(1, m):
            _padd_into(acc, _pmul(p[r], p[m - r]), Fraction(-comb(m, r)))
        p.append({e: v / 2 for e, v in acc.items()})
    return TruncatedEGF(f.order, f.markers, tuple(p))


def series_inv_sqrt(g: TruncatedEGF) -> TruncatedEGF:
    """p with p^2 g = 1 and p_0 = 1; requires constant term exactly 1."""
    if _constant_of(g.coeffs[0], len(g.markers)) != 1:
        raise ValueError("inverse square root needs constant term 1")
    return series_sqrt(series_inv(g))


# ---------------------------------------------------------------------------
# the closed forms, in marker variables (rewritten to constant term 1)


def _inv_sqrt_geometric(order, markers, lead, base) -> TruncatedEGF:
    """1/sqrt(1 + sum_{m>=1} lead base^{m-1} x^m/m!) for polynomials lead
    and base, keeping a running product of base."""
    coeffs = [_pconst(1, len(markers)), lead]
    while len(coeffs) <= order:
        coeffs.append(_pmul(coeffs[-1], base))
    return series_inv_sqrt(TruncatedEGF(order, markers, tuple(coeffs[: order + 1])))


def gf_w12(order: int) -> TruncatedEGF:
    """Scalar series with m-th coefficient w12(m): 1/sqrt(2e^{-x} - 1)."""
    return _inv_sqrt_geometric(order, (), {(): Fraction(-2)}, {(): -ONE})


def gf_leaves(order: int) -> TruncatedEGF:
    """Marker y counts leaves, weighting each shape by its labeling count.

    Rewrite: 1/sqrt(1 - 2y h) with h_m = (1-2y)^{m-1} for m >= 1.
    """
    base = {(0,): ONE, (1,): Fraction(-2)}  # 1 - 2y
    return _inv_sqrt_geometric(order, ("y",), {(1,): Fraction(-2)}, base)


def gf_Fstarstar(order: int) -> TruncatedEGF:
    """Marker y: exponent ell on y counts trees by 1 + #bad vertices.

    Rewrite: 1/sqrt(1 - y g) with g_m = 2^m (1-y)^{m-1} for m >= 1.
    """
    base = {(0,): Fraction(2), (1,): Fraction(-2)}  # 2 - 2y
    return _inv_sqrt_geometric(order, ("y",), {(1,): Fraction(-2)}, base)


def gf_trivariate(order: int) -> TruncatedEGF:
    """Markers (y, z): y^i z^j counts trees with i violators and j
    non-descent-terminator leaves.

    Rewrite: 1/sqrt(1 - 2z s) with s_m = (1+y-2z)^{m-1} for m >= 1.
    """
    base = {(0, 0): ONE, (1, 0): ONE, (0, 1): Fraction(-2)}  # 1 + y - 2z
    return _inv_sqrt_geometric(order, ("y", "z"), {(0, 1): Fraction(-2)}, base)


def gf_kv(order: int) -> TruncatedEGF:
    """Marker y counts violators.  Rewrite: 1/sqrt(1 - 2h),
    h_m = (y-1)^{m-1} for m >= 1."""
    base = {(1,): ONE, (0,): -ONE}  # y - 1
    return _inv_sqrt_geometric(order, ("y",), _pconst(-2, 1), base)


def gf_even_odd(order: int) -> TruncatedEGF:
    """Marker y: y^j counts matchings without even-to-odd matches having
    j odd-to-even matches.

    Rewrite: e^{xy} / sqrt(1 - v^2) with v_m = y^{m-1} for m >= 1.
    """
    E = _egf(order, ("y",), lambda m: {(m,): ONE})
    v = _egf(order, ("y",), lambda m: {} if m == 0 else {(m - 1,): ONE})
    arg = series_add(egf_const(order, 1, ("y",)), series_scale(series_mul(v, v), -1))
    return series_mul(E, series_inv_sqrt(arg))


def gf_vertical(order: int) -> TruncatedEGF:
    """Marker y counts vertical lines over all matchings:
    e^{x(y-1)} / sqrt(1 - 2x)."""
    base = {(1,): ONE, (0,): -ONE}  # y - 1
    E = _egf(order, ("y",), lambda m: _ppow(base, m, 1))
    g = _egf(order, ("y",), lambda m: _pconst({0: 1, 1: -2}.get(m, 0), 1))
    return series_mul(E, series_inv_sqrt(g))


# ---------------------------------------------------------------------------
# the same closed forms expanded directly at rational marker values


def _scalar_egf(order, coeff_of_m):
    return _egf(order, (), lambda m: _pconst(coeff_of_m(m), 0))


def gf_w12_alt(order: int) -> TruncatedEGF:
    """sqrt(e^x / (2 - e^x)) expanded as written; independent of gf_w12."""
    ex = _scalar_egf(order, lambda m: 1)
    den = _scalar_egf(order, lambda m: 1 if m == 0 else -1)  # 2 - e^x
    return series_sqrt(series_mul(ex, series_inv(den)))


def gf_leaves_at(order: int, y) -> TruncatedEGF:
    """sqrt((2y-1) / (2y e^{x(1-2y)} - 1)) at a rational y != 1/2."""
    y = Fraction(y)
    if y == Fraction(1, 2):
        raise ValueError("closed form degenerates at y = 1/2")
    den = _scalar_egf(order, lambda m: 2 * y * (1 - 2 * y) ** m - (1 if m == 0 else 0))
    return series_sqrt(series_scale(series_inv(den), 2 * y - 1))


def gf_Fstarstar_at(order: int, y) -> TruncatedEGF:
    """sqrt((y-1) / (y e^{2x(1-y)} - 1)) at a rational y != 1."""
    y = Fraction(y)
    if y == 1:
        raise ValueError("closed form degenerates at y = 1")
    den = _scalar_egf(order, lambda m: y * (2 * (1 - y)) ** m - (1 if m == 0 else 0))
    return series_sqrt(series_scale(series_inv(den), y - 1))


def gf_trivariate_at(order: int, y, z) -> TruncatedEGF:
    """sqrt((1+y-2z) / (1+y - 2z e^{x(1+y-2z)})) at rationals with 1+y-2z != 0."""
    y, z = Fraction(y), Fraction(z)
    c = 1 + y - 2 * z
    if c == 0:
        raise ValueError("closed form degenerates when 1 + y - 2z = 0")
    den = _scalar_egf(order, lambda m: (1 + y if m == 0 else 0) - 2 * z * c**m)
    return series_sqrt(series_scale(series_inv(den), c))


def gf_kv_at(order: int, y) -> TruncatedEGF:
    """sqrt((1-y) / (2 e^{x(y-1)} - 1 - y)) at a rational y != 1."""
    y = Fraction(y)
    if y == 1:
        raise ValueError("closed form degenerates at y = 1")
    den = _scalar_egf(order, lambda m: 2 * (y - 1) ** m - ((1 + y) if m == 0 else 0))
    return series_sqrt(series_scale(series_inv(den), 1 - y))


def gf_even_odd_at(order: int, y) -> TruncatedEGF:
    """y e^{xy} / sqrt(y^2 - 1 + e^{xy}(2 - e^{xy})) at a rational y != 0.

    The leading y is absorbed by dividing the radicand by y^2, which makes
    its constant term 1.
    """
    y = Fraction(y)
    if y == 0:
        raise ValueError("closed form degenerates at y = 0")
    E = _scalar_egf(order, lambda m: y**m)
    two_minus = _scalar_egf(order, lambda m: (2 if m == 0 else 0) - y**m)
    rad = series_add(egf_const(order, y**2 - 1), series_mul(E, two_minus))
    return series_mul(E, series_inv_sqrt(series_scale(rad, 1 / y**2)))


def gf_vertical_at(order: int, y) -> TruncatedEGF:
    """e^{x(y-1)} / sqrt(1 - 2x) at a rational y."""
    y = Fraction(y)
    E = _scalar_egf(order, lambda m: (y - 1) ** m)
    g = _scalar_egf(order, lambda m: {0: 1, 1: -2}.get(m, 0))
    return series_mul(E, series_inv_sqrt(g))
