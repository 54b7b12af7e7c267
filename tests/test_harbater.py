"""The convergent integer Laurent series ring: radii, evaluation, division."""

import math
import random
from fractions import Fraction

import pytest

from curvecoh.errors import (
    NotDivisible,
    NotMemberError,
    PoleAtPoint,
    RadiusNotCertified,
)
from curvecoh.harbater import (
    CertifiedSeries,
    Interval,
    RationalFn,
    _inverse_envelope,
    _quadratic_root_data,
    divide_exact,
    evaluate,
    kernel_generator,
    local_completion,
    membership,
    parse_element,
    poly_parse,
    poly_str,
    ptrim,
    radius_lower_bound,
)
from curvecoh.scalars import GaussianRational, TruncatedPowerSeries, parse_gaussian, series_quotient

SEED = 653
R = Fraction(1, 2)

GEOM = RationalFn([1], [1, -1])        # 1/(1-T)
GEOM2 = RationalFn([1], [1, -2])       # 1/(1-2T)
QUAD = RationalFn([1], [1, 0, 4])      # 1/(1+4T^2)


def test_radius_exact_roots():
    cert = radius_lower_bound(GEOM)
    assert cert.method == "exact-roots" and cert.modulus_squared == 1 and cert.s == 1
    cert = radius_lower_bound(GEOM2)
    assert cert.modulus_squared == Fraction(1, 4) and cert.s == Fraction(1, 2)
    cert = radius_lower_bound(QUAD)
    assert cert.modulus_squared == Fraction(1, 4)
    assert cert.witness == parse_gaussian("i/2") or cert.witness == parse_gaussian("-i/2")


def test_radius_classical_bound():
    e = RationalFn([1], [1, 1, 1, 1])  # cubic denominator: classical bound only
    cert = radius_lower_bound(e)
    assert cert.method == "classical-bound"
    assert cert.s == Fraction(1, 2)  # |d0| / (|d0| + max|d_i|)


def test_membership_verdicts():
    assert membership(GEOM, R).status == "member"
    verdict = membership(GEOM2, R)
    assert verdict.status == "not_member"
    assert verdict.witness == Fraction(1, 2)
    poly = RationalFn.from_poly([-7, 0, 0, 1])  # T^3 - 7 is entire
    assert membership(poly, R).status == "member"
    assert membership(poly, Fraction(99, 100)).status == "member"


def test_membership_strictness():
    # radius exactly r is NOT enough (convergence beyond r is required)
    assert membership(GEOM2, Fraction(1, 2)).status == "not_member"
    assert membership(GEOM2, Fraction(1, 3)).status == "member"


def test_membership_unknown_for_weak_bound():
    e = RationalFn([1], [1, 2, 2, 2])  # classical bound 1/3 <= r
    assert membership(e, Fraction(1, 2)).status == "unknown"


def test_evaluate_examples():
    assert evaluate(GEOM, Fraction(1, 3), R) == Fraction(3, 2)
    with pytest.raises(PoleAtPoint):
        evaluate(QUAD, parse_gaussian("i/2"), R)
    got = evaluate(RationalFn.from_poly([0, 1, 1]), parse_gaussian("i/2"), R)
    assert got == parse_gaussian("-1/4+1/2*i")
    with pytest.raises(NotMemberError):
        evaluate(GEOM2, Fraction(1, 3), R)  # not a member at r = 1/2, no pole at 1/3
    with pytest.raises(ValueError):
        evaluate(GEOM, Fraction(2), R)


def test_kernel_generators():
    from math import gcd

    assert kernel_generator(Fraction(1, 3)) == [-1, 3]
    assert kernel_generator(parse_gaussian("i/2")) == [1, 0, 4]
    assert kernel_generator(1) == [-1, 1]
    # g(x) = 0 and primitivity
    for x in (Fraction(1, 3), parse_gaussian("i/2"), parse_gaussian("1/2+1/2*i")):
        g = kernel_generator(x)
        z = GaussianRational.of(x)
        val = GaussianRational.of(0)
        for c in reversed(g):
            val = val * z + c
        assert not val
        content = 0
        for c in g:
            content = gcd(content, abs(int(c)))
        assert content == 1


def test_divide_exact_factorization():
    q = divide_exact(RationalFn.from_poly([-1, 0, 9]), [-1, 3], R)
    assert q == RationalFn.from_poly([1, 3])
    assert q.is_integral


def test_divide_exact_kernel_element():
    f = GEOM - Fraction(3, 2)
    q = divide_exact(f, [-1, 3], R)
    # q = 1/(2(1-T)), radius 1, rational (non-integer) coefficients
    assert q == RationalFn([Fraction(1, 2)], [1, -1])
    assert radius_lower_bound(q).modulus_squared == 1
    assert not q.is_integral
    assert f.is_integral is False  # subtraction of 3/2 already left Z
    # round trip on 50 coefficients
    back = q * RationalFn.from_poly([-1, 3])
    assert back.series_prefix(50) == f.series_prefix(50)


def test_divide_exact_not_divisible():
    with pytest.raises(NotDivisible) as info:
        divide_exact(GEOM, [-1, 3], R)
    assert "3/2" in str(info.value)  # the nonzero value at the root


def test_divide_exact_quadratic_generator():
    g = kernel_generator(parse_gaussian("i/2"))
    f = RationalFn.from_poly([1, 0, 5, 0, 4])  # (4T^2+1)(T^2+1)
    q = divide_exact(f, g, R)
    assert q == RationalFn.from_poly([1, 0, 1])
    back = q * RationalFn.from_poly(g)
    assert back.series_prefix(50) == f.series_prefix(50)


def test_divide_certified_series():
    # f = (3T-1) * geometric series, known to 40 terms
    coeffs = [Fraction(-1)] + [Fraction(2)] * 39
    f = CertifiedSeries(coeffs, 0, C=2, s=1)
    q = divide_exact(f, [-1, 3], R)
    assert [q.coefficient(k) for k in range(5)] == [1, 1, 1, 1, 1]
    with pytest.raises(RadiusNotCertified):
        # roots of modulus sqrt(2)/2: no exact rational envelope
        divide_exact(f, [2, 2, 2], R)


def test_recurrence_matches_closed_forms_200():
    # oracles first: the closed forms
    ones = [Fraction(1)] * 200
    powers2 = [Fraction(2) ** k for k in range(200)]
    alt4 = [Fraction(-4) ** (k // 2) if k % 2 == 0 else Fraction(0) for k in range(200)]
    assert GEOM.series_prefix(200) == ones
    assert GEOM2.series_prefix(200) == powers2
    assert QUAD.series_prefix(200) == alt4


def test_coefficients_bounded_below_certificate():
    for e, cert_s in ((GEOM, Fraction(1)), (GEOM2, Fraction(1, 2))):
        s = cert_s * Fraction(49, 50)  # slightly below the certificate
        coeffs = e.series_prefix(200)
        values = [abs(c) * s**k for k, c in enumerate(coeffs)]
        assert max(values) <= 1  # stays bounded (decreasing geometric)


def test_ring_laws_and_radius_combination():
    rng = random.Random(SEED)
    for _ in range(100):
        den1 = [1, Fraction(rng.randint(-2, 2))]
        den2 = [1, Fraction(rng.randint(-2, 2))]
        f = RationalFn([rng.randint(-3, 3), rng.randint(-3, 3)], den1)
        g = RationalFn([rng.randint(-3, 3), rng.randint(-3, 3)], den2)
        prod = f * g
        total = f + g
        n = 30
        fp, gp = f.series_prefix(n), g.series_prefix(n)
        assert total.series_prefix(n) == [a + b for a, b in zip(fp, gp)]
        conv = [sum(fp[i] * gp[k - i] for i in range(k + 1)) for k in range(n)]
        assert prod.series_prefix(n) == conv
        rf = radius_lower_bound(f)
        rg = radius_lower_bound(g)
        rp = radius_lower_bound(prod)
        bound = min(x.s for x in (rf, rg) if x.s is not None) if (rf.s or rg.s) else None
        if bound is not None and rp.s is not None:
            assert rp.s >= bound


def test_certified_series_radius_combination():
    f = CertifiedSeries([1, 1, 1], 0, C=1, s=Fraction(3, 4))
    g = CertifiedSeries([2, -1], 0, C=2, s=Fraction(2, 3))
    assert radius_lower_bound(f * g).s == Fraction(2, 3)
    assert radius_lower_bound(f + g).s == Fraction(2, 3)


def test_evaluate_multiplicativity_within_intervals():
    rng = random.Random(SEED + 1)
    r = Fraction(1, 2)
    for _ in range(200):
        hf = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        hg = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        f = CertifiedSeries(hf, 0, C=3, s=1)
        g = CertifiedSeries(hg, 0, C=3, s=1)
        x = GaussianRational(Fraction(rng.randint(-2, 2), 8), Fraction(rng.randint(-2, 2), 8))
        vf, vg, vfg = evaluate(f, x, r), evaluate(g, x, r), evaluate(f * g, x, r)
        assert vfg.overlaps(vf * vg)


def test_certified_series_tail_interval():
    cs = CertifiedSeries([1] * 8, 0, C=1, s=1)
    iv = evaluate(cs, Fraction(1, 3), R)
    assert isinstance(iv, Interval)
    assert iv.contains(Fraction(3, 2))  # the true value of the full geometric series
    assert iv.radius < Fraction(1, 20)


def test_laurent_tail_evaluation():
    cs = CertifiedSeries([Fraction(2), Fraction(1), Fraction(1)], 1, C=2, s=1)  # 2T^-1 + 1 + T
    iv = evaluate(cs, Fraction(1, 4), R)
    assert iv.center == Fraction(2) / Fraction(1, 4) + 1 + Fraction(1, 4)
    with pytest.raises(PoleAtPoint):
        evaluate(cs, Fraction(0), R)


def _per_term_sum(e: CertifiedSeries, x: GaussianRational) -> GaussianRational:
    """sum of a_k * x^k over the stored coefficients, one power at a time."""
    acc = GaussianRational.of(0)
    for j, c in enumerate(e.coeffs):
        term = GaussianRational.of(c)
        for _ in range(abs(j - e.offset)):
            term = term * x if j >= e.offset else term / x
        acc = acc + term
    return acc


def test_evaluate_equals_the_per_term_sum():
    rng = random.Random(SEED + 3)
    cases = [CertifiedSeries([1, 2, 3], 2) * CertifiedSeries([1, 2, 3], 2)]  # head_top = -2
    for _ in range(150):
        offset = rng.randint(0, 5)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(0, 8))]
        e = CertifiedSeries(coeffs, offset, C=1, s=Fraction(rng.randint(3, 6), 4))
        if rng.random() < 0.3:
            e = e * CertifiedSeries(coeffs[:3] or [1], rng.randint(0, 2), C=2, s=1)
        cases.append(e)
    assert any(e.head_top < -1 for e in cases) and any(e.offset == 0 for e in cases)
    for e in cases:
        x = GaussianRational(Fraction(rng.randint(1, 2), 8), Fraction(rng.randint(-2, 2), 8))
        if e.offset == 0 and rng.random() < 0.2:
            x = GaussianRational.of(0)
        value = evaluate(e, x, R)
        assert isinstance(value.center, GaussianRational)
        assert value.center == _per_term_sum(e, x), str(e)


def test_local_completion_inverts_the_kernel_generator():
    # substituting T = x + delta(xi) into g gives xi back: g(T) is the coordinate
    for point in ("1/3", "-1/4", "0", "i/2", "1/3+1/3*i", "1/5-2/5*i"):
        for M in (1, 2, 7, 16):
            lc = local_completion(parse_gaussian(point), R, M)
            back = lc._poly_in_xi(lc.g)
            assert back.order == M
            assert back == TruncatedPowerSeries.variable(GaussianRational.of(1), M), (point, M)


def test_local_completion_head():
    lc = local_completion(Fraction(1, 3), R, 8)
    series = lc.expand(GEOM)
    assert list(series.coeffs[:3]) == [
        GaussianRational.of(Fraction(3, 2)),
        GaussianRational.of(Fraction(3, 4)),
        GaussianRational.of(Fraction(3, 8)),
    ]


def test_local_completion_theta_consistency():
    rng = random.Random(SEED + 2)
    lc = local_completion(Fraction(1, 3), R, 6)
    for _ in range(50):
        num = [rng.randint(-4, 4) for _ in range(3)]
        den = [1, Fraction(rng.randint(-1, 1), 2)]
        e = RationalFn(num, den)
        if not any(num):
            continue
        exp = lc.expand(e)
        assert exp.coeffs[0] == GaussianRational.of(e.evaluate(Fraction(1, 3)))


def test_local_completion_at_gaussian_point():
    lc = local_completion(parse_gaussian("i/2"), R, 8)
    assert lc.g == [1, 0, 4]
    series = lc.expand(GEOM)
    assert series.coeffs[0] == parse_gaussian("4/5+2/5*i")
    # the expansion really inverts xi = g(T): composing back gives e
    assert lc.delta_of_xi.coeffs[0] == GaussianRational.of(0)


def test_local_completion_pole_rejected():
    lc = local_completion(parse_gaussian("i/2"), R, 6)
    with pytest.raises(PoleAtPoint):
        lc.expand(QUAD)


def test_local_completion_simple_root_required():
    # x = 0 gives g = T with g'(0) = 1, fine; a contrived double root cannot
    # come from kernel_generator, so check the guard via the API contract
    lc = local_completion(Fraction(0), R, 4)
    assert lc.g == [0, 1]


def test_element_grammar_roundtrip():
    el = parse_element("1 / 1 - T")
    assert el == GEOM
    el = parse_element("9*T^2 - 1 / 3*T - 1")
    assert el == RationalFn.from_poly([1, 3])  # reduced on construction
    cs = parse_element("-1:2 ; 1 2 3 ; bound 2 3/4")
    assert cs.offset == 1 and cs.coefficient(-1) == 2 and cs.coefficient(1) == 2
    cs2 = parse_element(str(cs))
    assert cs2.coeffs == cs.coeffs and cs2.s == cs.s
    assert poly_parse("T^3 - 7") == [-7, 0, 0, 1]
    assert poly_str([-7, 0, 0, 1]) == "T^3 - 7"


@pytest.mark.parametrize("parse, text", [
    (poly_parse, "2+T^-1"),
    (poly_parse, "T^-1+2"),
    (poly_parse, "T^-1"),
    (parse_element, "1 / 2+T^-1"),
])
def test_negative_exponents_are_rejected(parse, text):
    # T^-1 once landed at the last list index: lost, written over the constant, or IndexError
    with pytest.raises(ValueError, match=r"^bad polynomial term 'T\^-1'$"):
        parse(text)


def test_str_lists_the_stored_coefficients():
    # T^-2 (1 + 2T + 3T^2) squared: the known head ends at T^-2, below T^0
    sq = CertifiedSeries([1, 2, 3], 2) * CertifiedSeries([1, 2, 3], 2)
    assert (sq.offset, sq.coeffs, sq.head_top) == (4, (1, 4, 10), -2)
    assert str(sq).startswith("-4:1,-3:4,-2:10 ;  ; bound ")
    cs = CertifiedSeries([5, 6], 1)
    assert str(cs).startswith("-1:5 ; 6 ; bound ")


def test_base_presentation_plugs_into_pipeline():
    from curvecoh.periodic import hfp_degree_zero, tate_degree_zero

    lc = local_completion(Fraction(1, 3), R, 8)
    pres = lc.base_presentation()
    model = tate_degree_zero(pres, 8)
    assert model.jump_index == 1
    assert hfp_degree_zero(pres, 8).image_equals_fil0()


def test_peval_starts_horner_at_the_leading_coefficient(monkeypatch):
    from curvecoh.harbater import peval

    x = TruncatedPowerSeries([Fraction(1, 3), Fraction(1), Fraction(-2, 5)], 6)
    products = []
    mul = TruncatedPowerSeries.__mul__

    def counted(self, other):
        if isinstance(other, TruncatedPowerSeries):
            products.append(other)
        return mul(self, other)

    monkeypatch.setattr(TruncatedPowerSeries, "__mul__", counted)
    for p in ([Fraction(2)], [1, Fraction(-1, 2)], [3, 0, Fraction(1, 7), GaussianRational.of(2), -1]):
        products.clear()
        got = peval(p, x)
        assert len(products) == len(p) - 1
        want, power = TruncatedPowerSeries([Fraction(0)], 6), TruncatedPowerSeries([Fraction(1)], 6)
        for c in p:
            want, power = want + power * c, mul(power, x)
        assert got == want and got.order == 6
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert peval([], x) == TruncatedPowerSeries([Fraction(0)], 6)
    assert peval([1, 2], Fraction(1, 2)) == 2 and peval([], Fraction(1, 2)) == 0


# ---------------------------------------------------------------------------
# root data, envelopes and quotients against the routines they replaced
# ---------------------------------------------------------------------------


def _ref_sqrt_lower(m2):
    if m2 <= 0:
        return Fraction(0)
    return Fraction(math.isqrt(m2.numerator * m2.denominator), m2.denominator)


def _ref_roots_of(g):
    g = ptrim([Fraction(c) for c in g])
    if len(g) == 2:
        return [GaussianRational.of(-g[0] / g[1])]
    c0, c1, c2 = g
    disc = c1 * c1 - 4 * c0 * c2
    sq = _ref_sqrt_lower(abs(disc))
    if sq * sq != abs(disc):
        return None
    if disc < 0:
        re, im = -c1 / (2 * c2), sq / (2 * c2)
        return [GaussianRational(re, im), GaussianRational(re, -im)]
    return [GaussianRational.of((-c1 + sq) / (2 * c2)), GaussianRational.of((-c1 - sq) / (2 * c2))]


def _ref_quadratic_root_data(den):
    """The root data of a denominator of degree 1 or 2, solved on its own discriminant."""
    den = ptrim(list(den))
    if len(den) == 2:
        root = -den[0] / den[1]
        return root * root, root
    c0, c1, c2 = den
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        sq = _ref_sqrt_lower(-disc)
        witness = GaussianRational(-c1 / (2 * c2), sq / (2 * c2)) if sq * sq == -disc else None
        return c0 / c2, witness
    sq = _ref_sqrt_lower(disc)
    if sq * sq == disc:
        r1, r2 = (-c1 + sq) / (2 * c2), (-c1 - sq) / (2 * c2)
        near = r1 if abs(r1) <= abs(r2) else r2
        return near * near, near
    return None


def _ref_inverse_envelope(g):
    """(C, s) for 1/g from partial fractions, the modulus and imaginary part solved on their own."""
    g = ptrim([Fraction(c) for c in g])
    if len(g) == 2:
        return Fraction(1) / abs(g[0]), abs(g[0] / g[1])
    c0, c1, c2 = g
    disc = c1 * c1 - 4 * c0 * c2
    if disc >= 0:
        roots = _ref_roots_of(g)
        if roots is None or 0 in [r.re for r in roots] or roots[0].re == roots[1].re:
            return None
        r1, r2 = roots[0].re, roots[1].re
        A = 1 / (c2 * (r1 - r2))
        return abs(A) / abs(r1) + abs(A) / abs(r2), min(abs(r1), abs(r2))
    m2 = c0 / c2
    s = _ref_sqrt_lower(m2)
    im2 = -disc / (4 * c2 * c2)
    im = _ref_sqrt_lower(im2)
    if s * s != m2 or im * im != im2:
        return None
    return 2 * (1 / (2 * abs(c2) * im)) / s, s


def _random_denominators(rng, count):
    """Degree 1 and 2 denominators: rational, Gaussian-rational and irrational roots, c2 of either sign."""
    def q(lo=-9, hi=9, nonzero=True):
        while True:
            x = Fraction(rng.randint(lo, hi), rng.randint(1, 6))
            if x or not nonzero:
                return x

    for k in range(count):
        c2 = q()
        kind = k % 4
        if kind == 0:
            yield [q(), q()]
        elif kind == 1:  # rational roots, a double or zero root now and then
            r1, r2 = q(nonzero=False), q(nonzero=False)
            yield [c2 * r1 * r2, -c2 * (r1 + r2), c2]
        elif kind == 2:  # conjugate pair a +- b*i, of rational modulus when (a, b) is a Pythagorean pair
            a, b = (q(), q()) if rng.random() < 0.5 else (Fraction(3, 5) * q(), Fraction(4, 5) * q())
            yield [c2 * (a * a + b * b), -2 * c2 * a, c2]
        else:  # any coefficients: irrational roots of either kind, mostly
            yield [q(), q(nonzero=False), c2]


def test_root_data_and_envelopes_match_the_replaced_routines():
    rng = random.Random(SEED + 3)
    seen = set()
    for den in _random_denominators(rng, 4000):
        want = _ref_quadratic_root_data(den)
        got = _quadratic_root_data(den)
        assert got == want, den
        if got is not None:
            assert type(got[1]) is type(want[1]), den
        if den[0]:
            cert = radius_lower_bound(RationalFn([1], den))
            data = _ref_quadratic_root_data(RationalFn([1], den).den)
            if data is None:
                assert cert.method == "classical-bound" and cert.modulus_squared is None
            else:
                assert (cert.modulus_squared, cert.witness) == data
                assert type(cert.witness) is type(data[1])
        env = _inverse_envelope(den)
        assert env == _ref_inverse_envelope(den), den
        seen.add((len(den), want is None, want is not None and type(want[1]).__name__, env is None))
    # every branch was reached: linear, real and conjugate pairs with and without witnesses and envelopes
    assert len(seen) >= 7, seen


@pytest.mark.parametrize("count", [0, 1, 200])
def test_series_quotients_match_the_recurrence(count):
    rng = random.Random(SEED + count)
    for _ in range(12):
        num = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 4))]
        den = [Fraction(1)] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        e = RationalFn(num, den)
        got = e.series_prefix(count)
        assert got == series_quotient(list(e.num), list(e.den), count)
        assert all(type(c) is Fraction for c in got)
    generators = [[-1, 3], [0, -2, 5], kernel_generator(GaussianRational(Fraction(3, 5), Fraction(4, 5)))]
    for g in generators:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(count)]
        f = CertifiedSeries(coeffs, 0, C=10, s=Fraction(1, 2))
        q = divide_exact(f, g, R)
        stripped = ptrim(g)[next(k for k, c in enumerate(g) if c):]
        assert list(q.coeffs) == series_quotient(coeffs, [Fraction(c) for c in stripped], count)
        assert q.offset == g.index(next(c for c in g if c))
