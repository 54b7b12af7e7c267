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
    exact_product,
    gaussian_tps,
    integer_parts,
    is_zero_scalar,
    parse_gaussian,
    primitive_integer_poly,
    rational_tps,
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


def test_tps_mul_matches_reference_loop():
    for f, g in _tps_cases():
        ours, ref = f * g, _reference_tps_mul(f, g)
        assert ours.order == ref.order == min(f.order, g.order)
        assert ours.coeffs == ref.coeffs, (str(f), str(g))
        want = _expected_type(f.coeffs, g.coeffs)
        assert all(type(c) is want for c in ours.coeffs), (str(f), str(g))


def test_exact_product_keeps_bounds_and_types():
    rng = random.Random(SEED + 6)
    for kind_a, kind_b in ((k, rng.choice(KINDS)) for k in KINDS for _ in range(6)):
        a = {e: _random_coeff(rng, kind_a, 0.3) for e in rng.sample(range(-9, 10), rng.randint(0, 8))}
        b = {e: _random_coeff(rng, kind_b, 0.3) for e in rng.sample(range(-9, 10), rng.randint(0, 8))}
        lo, hi = rng.choice([None, -6, 0]), rng.choice([None, 1, 7])
        terms, zero = exact_product(a, b, lo, hi)
        want = {}
        for e1, x in a.items():
            for e2, y in b.items():
                e = e1 + e2
                if (lo is None or e >= lo) and (hi is None or e < hi):
                    want[e] = want.get(e, 0) + GaussianRational.of(x) * GaussianRational.of(y)
        assert terms == {e: c for e, c in want.items() if c}
        rule = _expected_type(a.values(), b.values())
        assert type(zero) is rule and not zero
        assert all(type(c) is rule and c for c in terms.values())
    assert exact_product({0: PAdic.from_int(3, 5, 4)}, {0: Fraction(1)}) is None


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

