"""Exact scalar arithmetic: Gaussian rationals, p-adics, truncated series."""

import random
from fractions import Fraction
from math import gcd

import pytest

from curvecoh.errors import DivisionByZero, NotAUnit, PrecisionExhausted
from curvecoh.scalars import (
    GAUSSIAN_I,
    GAUSSIAN_ONE,
    GaussianRational,
    PAdic,
    TruncatedPowerSeries,
    common_denominator,
    form_values,
    gaussian_reciprocal,
    gaussian_tps,
    integer_parts,
    is_zero_scalar,
    parse_gaussian,
    primitive_integer_poly,
    rational_tps,
    reduced_form,
    series_quotient,
    split_terms,
    theta,
)

SEED = 20240817


def test_gaussian_norm():
    z = GaussianRational(Fraction(1, 2), Fraction(1))
    assert z * z.conjugate == Fraction(5, 4)


def test_sub_self_is_zero():
    for x in (Fraction(7, 3), GaussianRational(Fraction(2), Fraction(-5, 4))):
        assert x - x == 0
    p = PAdic.from_int(90, 7, 5)
    assert (p - p).is_zero


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        GAUSSIAN_ONE / GaussianRational(Fraction(0), Fraction(0))
    with pytest.raises(DivisionByZero):
        PAdic.from_int(3, 5, 4) / PAdic.exact_zero(5)


def test_field_axioms_random_sample():
    rng = random.Random(SEED)

    def rand_gauss():
        return GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    for _ in range(200):
        a, b, c = rand_gauss(), rand_gauss(), rand_gauss()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a
    assert GAUSSIAN_I * GAUSSIAN_I == Fraction(-1)


def test_gaussian_parse_roundtrip():
    for text in ("5/4", "1/2+3/4*i", "1/2-3/4*i", "-i", "i/2", "3-2*i", "0"):
        z = parse_gaussian(text)
        assert parse_gaussian(str(z)) == z


def _ref_split_terms(s):
    """The character loop the Gaussian and polynomial parsers each ran."""
    terms, cur = [], ""
    for idx, ch in enumerate(s):
        if ch in "+-" and idx > 0 and s[idx - 1] not in "+-*/^":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    return terms


def test_one_term_splitter_for_gaussians_and_polynomials():
    from curvecoh.harbater import poly_parse

    assert split_terms("3-2*i") == ["3", "-2*i"]
    assert split_terms("-1/2+-3/4*i") == ["-1/2", "+-3/4*i"]
    assert split_terms("9*T^2-T^-1+1") == ["9*T^2", "-T^-1", "+1"]
    assert poly_parse("9*T^2 - 3T + -1") == [-1, -3, 9]
    rng = random.Random(SEED)
    for _ in range(20000):
        s = "".join(rng.choice("+-*/^0123iT ") for _ in range(rng.randint(0, 12)))
        assert split_terms(s) == _ref_split_terms(s), s


def test_padic_div_one_by_three():
    # oracle: x with 3*x = 1 mod 5^4; frozen digits follow from it
    q = PAdic.from_int(1, 5, 4) / PAdic.from_int(3, 5, 4)
    assert (q * PAdic.from_int(3, 5, 4)) == 1
    assert q.digits() == [2, 3, 1, 3]
    assert str(q) == "2 + 3*5 + 1*5^2 + 3*5^3 + O(5^4)"


def test_padic_matches_integer_arithmetic():
    rng = random.Random(SEED + 1)
    p, N = 7, 6
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        pa, pb = PAdic.from_int(a, p, N), PAdic.from_int(b, p, N)
        for op, got, res in (
            ("add", pa + pb, a + b),
            ("sub", pa - pb, a - b),
            ("mul", pa * pb, a * b),
        ):
            want = PAdic.from_int(res, p, N)
            assert got == want, (a, b, op)


def test_padic_precision_propagation():
    x = PAdic.from_int(25, 5, 3)  # 5^2 * 1, known mod 5^5
    y = PAdic.from_int(5, 5, 3)   # 5 * 1, known mod 5^4
    q = x / y
    assert q.v == 1 and q.n == 3
    z = x - PAdic.from_int(25, 5, 3)
    assert z.unit is None and z.abs_prec == 5
    with pytest.raises(PrecisionExhausted):
        PAdic.from_int(1, 5, 3) / z


def test_tps_mul_examples():
    assert rational_tps([1, 1], 4) * rational_tps([1, -1], 4) == rational_tps([1, 0, -1], 4)
    geo = rational_tps([1, 1, 1, 1, 1], 5)
    assert geo * rational_tps([1, -1], 5) == rational_tps([1], 5)
    xi = rational_tps([0, 1], 2)
    prod = xi * xi
    assert prod.order == 2 and all(c == 0 for c in prod.coeffs)


def test_tps_mul_truncation_is_min():
    f = rational_tps([1, 2, 3], 3)
    g = rational_tps([4, 5], 7)
    assert (f * g).order == 3


def test_tps_inverse():
    inv = rational_tps([1, -1], 4).inverse()
    assert inv == rational_tps([1, 1, 1, 1], 4)
    assert rational_tps([2], 3).inverse() == rational_tps([Fraction(1, 2)], 3)
    with pytest.raises(NotAUnit):
        rational_tps([0, 1], 4).inverse()


def test_tps_inverse_of_integer_coefficients_is_exact():
    inv = TruncatedPowerSeries([2, 1], 4).inverse()  # int coefficients, as the constructor allows
    assert list(inv.coeffs) == [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16)]
    assert all(type(c) is Fraction for c in inv.coeffs)


def test_theta():
    assert theta(rational_tps([1, 3], 4)) == 1
    assert theta(rational_tps([0, 1], 4)) == 0


def test_theta_multiplicative_random():
    rng = random.Random(SEED + 2)
    for _ in range(200):
        f = rational_tps([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)], 5)
        g = rational_tps([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)], 5)
        assert theta(f * g) == theta(f) * theta(g)


def test_theta_of_inverse():
    rng = random.Random(SEED + 3)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1)
        f = rational_tps(coeffs, 6)
        assert theta(f.inverse()) == 1 / theta(f)


def test_tps_compose_and_reversion():
    f = rational_tps([0, 1, 1], 8)  # xi + xi^2
    g = f.reversion()
    # alternating Catalan numbers
    assert list(g.coeffs[:6]) == [0, 1, -1, 2, -5, 14]
    ident = f.compose(g)
    assert all(c == (1 if j == 1 else 0) for j, c in enumerate(ident.coeffs))


def _reference_reversion(f):
    """Coefficient by coefficient: pick g_m so that f(g) has no xi^m term."""
    one = f.coeffs[1] / f.coeffs[1]
    g = [f.zero_coeff, one / f.coeffs[1]]
    for m in range(2, f.order):
        trial = TruncatedPowerSeries(g + [f.zero_coeff], m + 1)
        err = f.compose(trial).coeffs[m]
        g.append(-err / f.coeffs[1])
    return TruncatedPowerSeries(g, f.order)


def _random_reversible(rng, order, gaussian):
    def coeff():
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if gaussian:
            return GaussianRational(c, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return c

    coeffs = [0] + [coeff() for _ in range(order - 1)]
    while not coeffs[1]:
        coeffs[1] = coeff()
    return (gaussian_tps if gaussian else rational_tps)(coeffs, order)


def _reversion_cases():
    rng = random.Random(SEED + 4)
    return [_random_reversible(rng, order, gaussian)
            for gaussian in (False, True) for order in range(2, 17)]


def test_reversion_matches_reference_and_inverts():
    for f in _reversion_cases():
        g = f.reversion()
        assert g.order == f.order
        assert list(g.coeffs) == list(_reference_reversion(f).coeffs), str(f)
        xi = TruncatedPowerSeries.variable(f.coeffs[1] / f.coeffs[1], f.order)
        assert f.compose(g) == xi, str(f)


def test_reversion_errors():
    with pytest.raises(ValueError):
        rational_tps([1, 1, 1], 4).reversion()
    with pytest.raises(NotAUnit):
        rational_tps([0, 0, 1], 4).reversion()
    with pytest.raises(NotAUnit):
        gaussian_tps([0, 0, GAUSSIAN_I], 4).reversion()
    assert rational_tps([0], 1).reversion().order == 1


def test_reversion_matches_sympy():
    ring_series = pytest.importorskip("sympy.polys.ring_series")
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.rings import ring

    def frac(q):
        return Fraction(int(q.numerator), int(q.denominator))

    for f in _reversion_cases():
        gaussian = isinstance(f.coeffs[1], GaussianRational)
        domain = QQ_I if gaussian else QQ
        _, x, y = ring("x,y", domain)
        p = domain.zero
        for k, c in enumerate(f.coeffs):
            c = GaussianRational.of(c)
            p += (domain(c.re, c.im) if gaussian else domain(c.re)) * x**k
        r = ring_series.rs_series_reversion(p, x, f.order, y)
        g = f.reversion()
        for k in range(1, f.order):
            c = r.coeff(y**k)
            want = GaussianRational(frac(c.x), frac(c.y)) if gaussian else frac(c)
            assert g.coeffs[k] == want, (str(f), k)


def test_tps_str():
    assert str(rational_tps([1, 3], 4)) == "1 + 3*xi + O(xi^4)"


def test_padic_from_fraction():
    p = PAdic.from_fraction(Fraction(7, 4), 5, 5)
    # 1/4 mod 5^5: 4 * x = 1 mod 5^5
    assert (p * PAdic.from_int(4, 5, 5)) == PAdic.from_int(7, 5, 5)
    half = PAdic.from_fraction(Fraction(1, 5), 5, 4)
    assert half.v == -1 and half.digits()[0] == 1


def test_gaussian_str_forms():
    assert str(GaussianRational(Fraction(0), Fraction(1))) == "i"
    assert str(GaussianRational(Fraction(0), Fraction(-1))) == "-i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"
    assert str(GaussianRational(Fraction(-2), Fraction(0))) == "-2"


# -- the integer product kernel -------------------------------------------------

KINDS = ("rational", "gaussian", "real_gaussian", "mixed")


def _random_coeff(rng, kind, zero_share):
    """One coefficient of the given kind; zero with probability ``zero_share``."""
    if rng.random() < zero_share:
        re = im = Fraction(0)
    else:
        re = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 6, 7, 9, 25, 1024]))
        im = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 5, 8, 11]))
    if kind == "mixed":
        kind = rng.choice(("int", "rational", "gaussian", "real_gaussian"))
    if kind == "int":
        return int(re * 1024)
    if kind == "rational":
        return re
    return GaussianRational(re, im if kind == "gaussian" else Fraction(0))


def _random_series(rng, kind, order, zero_share):
    return TruncatedPowerSeries([_random_coeff(rng, kind, zero_share) for _ in range(order)], order)


def _reference_tps_mul(f, g):
    """The generic coefficient loop (also the fallback for p-adic series)."""
    m = min(f.order, g.order)
    out = [f.zero_coeff] * m
    for j, a in enumerate(f.coeffs[:m]):
        if is_zero_scalar(a):
            continue
        for k, b in enumerate(g.coeffs[: m - j]):
            out[j + k] = out[j + k] + a * b
    return TruncatedPowerSeries(out, m)


def _expected_type(*operands):
    """GaussianRational when any input coefficient is one, Fraction otherwise."""
    coeffs = [c for f in operands for c in f]
    return GaussianRational if any(isinstance(c, GaussianRational) for c in coeffs) else Fraction


def _tps_cases():
    rng = random.Random(SEED + 5)
    for kind_a in KINDS:
        for kind_b in KINDS:
            for zero_share in (0.0, 0.2, 0.8, 1.0):
                for _ in range(3):
                    f = _random_series(rng, kind_a, rng.randint(1, 14), zero_share)
                    g = _random_series(rng, kind_b, rng.randint(1, 14), zero_share)
                    yield f, g


def test_primitive_integer_poly():
    assert primitive_integer_poly([]) == []
    assert primitive_integer_poly([0, Fraction(0)]) == [0, 0]
    assert primitive_integer_poly([Fraction(1, 2), Fraction(-1, 3), 2]) == [3, -2, 12]
    assert primitive_integer_poly([-4, 6, 0]) == [-2, 3, 0]


def test_integer_parts_clears_denominators():
    rng = random.Random(SEED + 4)
    for kind in KINDS:
        for zero_share in (0.0, 0.5, 1.0):
            values = [_random_coeff(rng, kind, zero_share) for _ in range(12)]
            den, re, im, gaussian = integer_parts(values)
            assert gaussian == any(isinstance(x, GaussianRational) for x in values)
            parts = [GaussianRational.of(x) for x in values]
            for x, r, i in zip(parts, re, im):
                assert type(r) is int and type(i) is int
                assert x == GaussianRational(Fraction(r, den), Fraction(i, den))
            # the least common denominator, not just some common multiple
            want = 1
            for x in parts:
                for q in (x.re, x.im):
                    want = want * q.denominator // gcd(want, q.denominator)
            assert den == want
    assert integer_parts([]) == (1, [], [], False)
    assert integer_parts([Fraction(1), 0.5]) is None
    assert integer_parts([PAdic.from_int(3, 5, 4)]) is None


def test_integer_form_helpers():
    rng = random.Random(SEED)
    for _ in range(200):
        x, y = rng.randint(-9, 9), rng.choice([0, 0, rng.randint(-9, 9)])
        if (x, y) == (0, 0):
            continue
        a, b, d = gaussian_reciprocal(x, y)
        assert d > 0
        assert GaussianRational(Fraction(a, d), Fraction(b, d)) * GaussianRational(Fraction(x), Fraction(y)) == 1
    # lowest terms over the kept exponents only; zero numerators dropped
    assert reduced_form(12, {0: 6, 1: 3, 5: 4, -1: 1}, {1: 0, 2: 9}, 0, 3) == (4, ([(0, 2), (1, 1)], [(2, 3)]))
    assert reduced_form(5, {}, {}) == (1, ([], []))
    den, re, im = common_denominator({0: (2, 1, 0), 3: (3, 0, -2), 4: (4, 3, 1)})
    assert (den, re, im) == (12, {0: 6, 3: 0, 4: 9}, {0: 0, 3: -8, 4: 3})
    values = form_values(6, ([(0, 3), (2, -4)], [(2, 1)]), True)
    assert values == {0: GaussianRational(Fraction(1, 2), Fraction(0)),
                      2: GaussianRational(Fraction(-2, 3), Fraction(1, 6))}
    assert all(type(v) is GaussianRational for v in values.values())
    assert form_values(6, ([(0, 3)], []), False) == {0: Fraction(1, 2)}


def test_tps_mul_matches_reference_loop():
    for f, g in _tps_cases():
        ours, ref = f * g, _reference_tps_mul(f, g)
        assert ours.order == ref.order == min(f.order, g.order)
        assert ours.coeffs == ref.coeffs, (str(f), str(g))
        want = _expected_type(f.coeffs, g.coeffs)
        assert all(type(c) is want for c in ours.coeffs), (str(f), str(g))


def test_tps_product_keeps_bounds_and_types():
    """The inputs of the former sparse-dict product, shifted by xi^9 each into series."""
    rng = random.Random(SEED + 6)
    for kind_a, kind_b in ((k, rng.choice(KINDS)) for k in KINDS for _ in range(6)):
        a = {e: _random_coeff(rng, kind_a, 0.3) for e in rng.sample(range(-9, 10), rng.randint(0, 8))}
        b = {e: _random_coeff(rng, kind_b, 0.3) for e in rng.sample(range(-9, 10), rng.randint(0, 8))}
        lo, hi = rng.choice([None, -6, 0]), rng.choice([None, 1, 7])
        # exponent e of a product sits at index e + 18; hi becomes the order
        order = 37 if hi is None else hi + 18
        f, g = (TruncatedPowerSeries([d.get(e - 9, 0) for e in range(19)], order) for d in (a, b))
        prod = f * g
        want = {}
        for e1, x in a.items():
            for e2, y in b.items():
                e = e1 + e2
                if (lo is None or e >= lo) and (hi is None or e < hi):
                    want[e] = want.get(e, 0) + GaussianRational.of(x) * GaussianRational.of(y)
        kept = {j - 18: c for j, c in enumerate(prod.coeffs) if c and (lo is None or j - 18 >= lo)}
        assert prod.order == order and kept == {e: c for e, c in want.items() if c}
        rule = _expected_type(a.values(), b.values())
        assert type(prod.zero_coeff) is rule and not prod.zero_coeff
        assert all(type(c) is rule for c in prod.coeffs)
    # p-adic coefficients have no integer form; the generic loop refuses the mixed product
    padic = TruncatedPowerSeries([PAdic.from_int(3, 5, 4)])
    assert padic.den is None
    with pytest.raises(TypeError):
        padic * TruncatedPowerSeries([Fraction(1)])


def test_padic_tps_mul_uses_generic_loop():
    def series(values):
        return TruncatedPowerSeries([PAdic.from_int(v, 5, 6) for v in values], len(values))

    f, g = series([1, 5, 0, 7]), series([3, 0, 25])
    prod = f * g
    assert prod.order == 3
    assert all(isinstance(c, PAdic) for c in prod.coeffs)
    assert prod == _reference_tps_mul(f, g)
    assert prod == series([3, 15, 25])


@pytest.mark.parametrize("gaussian", [False, True])
def test_tps_mul_matches_sympy(gaussian):
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.rings import ring

    domain = QQ_I if gaussian else QQ
    R, x = ring("x", domain)

    def to_sympy(f):
        p = R.zero
        for k, c in enumerate(f.coeffs):
            c = GaussianRational.of(c)
            p += x**k * (domain(c.re, c.im) if gaussian else domain(c.re))
        return p

    def frac(q):
        return Fraction(int(q.numerator), int(q.denominator))

    for f, g in _tps_cases():
        if not gaussian and any(GaussianRational.of(c).im for c in f.coeffs + g.coeffs):
            continue
        prod = to_sympy(f) * to_sympy(g)
        ours = f * g
        for k in range(ours.order):
            c = prod.coeff(x**k)
            want = GaussianRational(frac(c.x), frac(c.y)) if gaussian else frac(c)
            assert ours.coeffs[k] == want, (str(f), str(g), k)


def test_tps_eq_with_a_non_scalar_is_not_implemented():
    f = rational_tps([1, 2], 3)
    for other in (None, "x", 0.5, [1, 2], object()):
        assert f.__eq__(other) is NotImplemented
        assert not f == other and f != other
    assert f in [None, f] and None not in [f]
    assert f == rational_tps([1, 2, 0, 7], 4) and f != 1 and rational_tps([1], 2) == 1


def test_gaussian_operators_leave_other_operands_to_them():
    import operator

    z = GaussianRational(Fraction(1), Fraction(1))
    f = gaussian_tps([1, Fraction(1, 2), GAUSSIAN_I], 4)
    assert z * f == f * z == gaussian_tps([z, z / 2, z * GAUSSIAN_I], 4)
    assert type((z * f).coeffs[0]) is GaussianRational
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        assert getattr(z, name)(f) is NotImplemented, name
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((z, "2"), ("2", z), (z, 0.5)):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(TypeError, match="cannot interpret"):
        GaussianRational.of(f)
    assert z - 1 == GAUSSIAN_I and 1 - z == -GAUSSIAN_I and 2 / z == z.conjugate


# -- the integer carrier against the coefficient-list series it replaced ----------------


class _RefSeries:
    """The Fraction-list series: one coefficient per exponent, each op coefficient by coefficient."""

    def __init__(self, coeffs, order):
        coeffs = [Fraction(c) if isinstance(c, int) else c for c in coeffs][:order]
        zero = coeffs[0] * 0 if coeffs else Fraction(0)
        self.c, self.order = coeffs + [zero] * (order - len(coeffs)), order

    def zero(self):
        return self.c[0] * 0

    def __add__(self, o):
        m = min(self.order, o.order)
        return _RefSeries([a + b for a, b in zip(self.c, o.c)], m)

    def __sub__(self, o):
        m = min(self.order, o.order)
        return _RefSeries([a - b for a, b in zip(self.c, o.c)], m)

    def __neg__(self):
        return _RefSeries([-a for a in self.c], self.order)

    def scale(self, s):
        return _RefSeries([a * s for a in self.c], self.order)

    def __mul__(self, o):
        m = min(self.order, o.order)
        out = [self.zero()] * m
        for j, a in enumerate(self.c[:m]):
            for k, b in enumerate(o.c[: m - j]):
                out[j + k] = out[j + k] + a * b
        return _RefSeries(out, m)

    def __eq__(self, o):
        return all(a == b for a, b in zip(self.c, o.c))

    def shift_up(self, k):
        return _RefSeries([self.zero()] * k + self.c, self.order + k)

    def shift_down(self, k):
        assert all(is_zero_scalar(a) for a in self.c[:k])
        return _RefSeries(self.c[k:], self.order - k)

    def truncate(self, order):
        return _RefSeries(self.c[:order], min(order, self.order))

    def inverse(self):
        a0 = self.c[0]
        return _RefSeries(series_quotient([a0 / a0], self.c, self.order), self.order)

    def compose(self, inner):
        v = next((j for j, a in enumerate(inner.c) if not is_zero_scalar(a)), None)
        m = min(inner.order, self.order * (v or 1))
        inner = inner.truncate(m)
        acc = _RefSeries([self.zero()], m)
        for a in reversed(self.c):
            acc = acc * inner + _RefSeries([a], m)
        return acc.truncate(m)

    def reversion(self):
        if self.order < 2:
            return _RefSeries([self.zero()], 1)
        h = self.shift_down(1).inverse()
        g, h_n = [self.zero(), h.c[0]], h
        for n in range(2, self.order):
            h_n = h_n * h
            g.append(h_n.c[n - 1] / n)
        return _RefSeries(g, self.order)

    def __str__(self):
        parts = []
        for j, c in enumerate(self.c):
            if is_zero_scalar(c):
                continue
            cs = str(c)
            if any(op in cs[1:] for op in "+-") or "*" in cs:
                cs = f"({cs})"
            mono = "" if j == 0 else ("xi" if j == 1 else f"xi^{j}")
            parts.append(cs if not mono else (mono if cs == "1" else f"{cs}*{mono}"))
        return " + ".join(parts + [f"O(xi^{self.order})"])


def _carrier_cases(rng):
    """Seeded series of every coefficient kind and order 1..12, with their references."""
    for _ in range(40):
        kind = rng.choice(KINDS)
        order = rng.choice([1, 1, 2, 3, 5, 8, 12])
        coeffs = [_random_coeff(rng, kind, rng.choice([0.0, 0.3, 0.7])) for _ in range(rng.randint(1, order))]
        yield TruncatedPowerSeries(coeffs, order), _RefSeries(coeffs, order), _is_gaussian(coeffs)


def _is_gaussian(values):
    return any(isinstance(c, GaussianRational) for c in values)


def _assert_matches(ours, ref, gaussian, label):
    assert ours.order == ref.order, label
    assert list(ours.coeffs) == ref.c, label
    want = GaussianRational if gaussian else Fraction
    assert all(type(c) is want for c in ours.coeffs), label
    assert type(ours.zero_coeff) is want, label
    assert str(ours) == str(ref), label
    assert ours.to_json() == {"coeffs": [str(c) for c in ref.c], "order": ref.order}, label


def _unit_constant(f, ref):
    """f with a nonzero constant term (1 added where it vanishes)."""
    if is_zero_scalar(ref.c[0]):
        one = TruncatedPowerSeries([1], f.order)
        return f + one, ref + _RefSeries([Fraction(1)], f.order)
    return f, ref


def test_tps_carrier_matches_fraction_reference():
    rng = random.Random(SEED + 7)
    cases = list(_carrier_cases(rng))
    for (f, rf, gf), (g, rg, gg) in zip(cases, cases[1:] + cases[:1]):
        both = gf or gg
        _assert_matches(f, rf, gf, str(f))
        _assert_matches(f + g, rf + rg, both, ("+", str(f), str(g)))
        _assert_matches(f - g, rf - rg, both, ("-", str(f), str(g)))
        _assert_matches(-f, -rf, gf, ("neg", str(f)))
        _assert_matches(f * g, rf * rg, both, ("*", str(f), str(g)))
        for s in (0, 3, Fraction(-2, 7), GaussianRational(Fraction(1, 2), Fraction(-3))):
            _assert_matches(f * s, rf.scale(s), gf or isinstance(s, GaussianRational), ("scale", str(f), s))
            if not isinstance(s, GaussianRational):  # a GaussianRational on the left does not defer
                _assert_matches(s * f, rf.scale(s), gf, ("rscale", str(f), s))
        assert (f == g) == (rf == rg) and (f == f) and (f == -(-f))
        k = rng.randint(0, 3)
        _assert_matches(f.shift_up(k), rf.shift_up(k), gf, ("up", str(f), k))
        _assert_matches(f.shift_up(k).shift_down(k), rf, gf, ("down", str(f), k))
        cut = rng.randint(1, f.order + 2)
        _assert_matches(f.truncate(cut), rf.truncate(cut), gf, ("truncate", str(f), cut))
        u, ru = _unit_constant(f, rf)
        _assert_matches(u.inverse(), ru.inverse(), gf, ("inverse", str(u)))
        inner, r_inner = g.shift_up(1), rg.shift_up(1)
        _assert_matches(f.compose(inner), rf.compose(r_inner), both, ("compose", str(f), str(inner)))
        sigma, r_sigma = u.shift_up(1), ru.shift_up(1)
        _assert_matches(sigma.reversion(), r_sigma.reversion(), gf, ("reversion", str(sigma)))


def _form(f):
    return f.den, f.terms, f.order


def test_tps_equal_values_have_one_stored_form():
    rng = random.Random(SEED + 8)
    cases = list(_carrier_cases(rng))
    for (f, rf, _), (g, _, _) in zip(cases, cases[1:] + cases[:1]):
        m = min(f.order, g.order)
        f_m = f.truncate(m)
        assert _form((f + g) - g) == _form(f_m) == _form(f_m * 1)
        assert _form(f.shift_up(2).shift_down(2)) == _form(f)
        assert _form(f * 3 * Fraction(1, 3)) == _form(TruncatedPowerSeries(list(rf.c), f.order))
        assert _form(f - f) == _form(TruncatedPowerSeries([], f.order)) == (1, ([], []), f.order)
        u, _ = _unit_constant(f, rf)
        assert _form(u * u.inverse()) == _form(TruncatedPowerSeries([1], u.order))
        if u.order > 1:
            sigma = u.shift_up(1)
            assert _form(sigma.compose(sigma.reversion())) == _form(TruncatedPowerSeries([0, 1], sigma.order))
