"""Exact scalar arithmetic: Gaussian rationals, p-adics, truncated series."""

import random
from fractions import Fraction

import pytest

from curvecoh.errors import DivisionByZero, NotAUnit, PrecisionExhausted
from curvecoh.scalars import (
    GAUSSIAN_I,
    GAUSSIAN_ONE,
    GaussianRational,
    PAdic,
    TruncatedPowerSeries,
    gaussian_tps,
    parse_gaussian,
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
