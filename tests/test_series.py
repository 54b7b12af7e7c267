"""Laurent windows: precision rules, pole order, the filtration."""

import random
from fractions import Fraction

import pytest

from curvecoh.errors import IndeterminateTop, ZeroInverse
from curvecoh.scalars import GaussianRational
from curvecoh.series import MINUS_INFINITY, LaurentWindow, gaussian_window

SEED = 911


def naive_poly_mul(a: dict, b: dict) -> dict:
    """Independent oracle: dict convolution for exact Laurent polynomials."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def test_mul_polynomials_exact():
    a = gaussian_window({1: 1, 0: 1})
    b = gaussian_window({1: 1, 0: -1})
    prod = a * b
    assert prod.is_exact
    assert prod == gaussian_window({2: 1, 0: -1})


def test_t_times_t_inverse():
    assert gaussian_window({1: 1}) * gaussian_window({-1: 1}) == gaussian_window({0: 1})


def test_uv_image_product():
    # u = (t - t^-1)/2, v = -(i/2)(t + t^-1); oracle by hand expansion
    u = {1: Fraction(1, 2), -1: Fraction(-1, 2)}
    v = {1: Fraction(-1, 2), -1: Fraction(-1, 2)}  # imaginary parts
    expect = naive_poly_mul(u, v)  # imaginary part of the product is u*v values
    u_window = gaussian_window({e: GaussianRational(c, Fraction(0)) for e, c in u.items()})
    v_window = gaussian_window({e: GaussianRational(Fraction(0), c) for e, c in v.items()})
    w = u_window * v_window
    assert w == gaussian_window(
        {e: GaussianRational(Fraction(0), c) for e, c in expect.items()}
    )
    assert w == gaussian_window({2: GaussianRational(Fraction(0), Fraction(-1, 4)),
                                 -2: GaussianRational(Fraction(0), Fraction(1, 4))})


def test_mul_cutoff_rule():
    a = LaurentWindow({2: Fraction(1), 0: Fraction(3)}, cutoff=0)      # + O(t^-1)
    b = LaurentWindow({1: Fraction(1), -1: Fraction(2)}, cutoff=-1)    # + O(t^-2)
    prod = a * b
    # rule: cutoff = max(cutoff_a + top_b, cutoff_b + top_a)
    assert prod.cutoff == max(0 + 1, -1 + 2)
    assert prod.coefficient(3) == 1


def test_inverse_examples():
    t = gaussian_window({1: 1})
    assert t.inverse(-5) == gaussian_window({-1: 1})
    geom = gaussian_window({0: 1, -1: -1}).inverse(-3)
    assert geom.cutoff == -3
    for e in (0, -1, -2, -3):
        assert geom.coefficient(e) == 1
    inv = gaussian_window({1: 1, 0: -1}).inverse(-2)
    assert inv.coefficient(-1) == 1 and inv.coefficient(-2) == 1
    # round trip within the guaranteed window
    assert (inv * gaussian_window({1: 1, 0: -1})).coefficient(0) == 1


def test_inverse_round_trip_random():
    rng = random.Random(SEED)
    one = gaussian_window({0: 1})
    for _ in range(200):
        coeffs = {e: Fraction(rng.randint(-4, 4)) for e in range(rng.randint(-2, 1), rng.randint(2, 4))}
        coeffs[max(coeffs) + 1] = Fraction(rng.randint(1, 4))
        a = gaussian_window(coeffs)
        prec = -rng.randint(2, 6)
        inv = a.inverse(prec)
        prod = a * inv
        assert prod.agrees_with(one)
        assert inv.pole_order() == -a.pole_order()


def test_inverse_errors():
    with pytest.raises(ZeroInverse):
        LaurentWindow.zero().inverse(-2)
    with pytest.raises(IndeterminateTop):
        LaurentWindow({}, cutoff=0).inverse(-2)


def test_pole_order():
    assert gaussian_window({3: 1, 1: 1}).pole_order() == 3
    assert LaurentWindow.zero().pole_order() == MINUS_INFINITY
    v_minus = gaussian_window({-1: -1})
    assert v_minus.pole_order() == -1
    with pytest.raises(IndeterminateTop):
        LaurentWindow({}, cutoff=-4).pole_order()


def test_fil_member():
    t2 = gaussian_window({2: 1})
    assert t2.fil_member(2)
    assert not t2.fil_member(1)
    u_minus_iv = gaussian_window({-1: -1})  # the image of u - i*v
    assert u_minus_iv.fil_member(0)
    assert u_minus_iv.fil_member(0)


def test_ring_laws_random_windows():
    rng = random.Random(SEED + 1)

    def rand_window():
        lo = rng.randint(-4, 0)
        hi = rng.randint(0, 4)
        coeffs = {e: Fraction(rng.randint(-3, 3)) for e in range(lo, hi + 1)}
        cutoff = None if rng.random() < 0.5 else lo
        if cutoff is not None:
            coeffs = {e: c for e, c in coeffs.items() if e >= cutoff}
        return LaurentWindow(coeffs, cutoff)

    for _ in range(200):
        a, b, c = rand_window(), rand_window(), rand_window()
        assert ((a * b) * c).agrees_with(a * (b * c))
        assert (a * (b + c)).agrees_with(a * b + a * c)
        assert (a + b).agrees_with(b + a)


def test_pole_order_is_valuation():
    rng = random.Random(SEED + 2)
    for _ in range(200):
        a = gaussian_window({rng.randint(-3, 3): rng.randint(1, 5)})
        b = gaussian_window({rng.randint(-3, 3): rng.randint(1, 5)})
        assert (a * b).pole_order() == a.pole_order() + b.pole_order()
        s = a + b
        if s.coeffs:
            assert s.pole_order() <= max(a.pole_order(), b.pole_order())
        if a.pole_order() != b.pole_order():
            assert s.pole_order() == max(a.pole_order(), b.pole_order())


def test_fil_multiplicative_random():
    rng = random.Random(SEED + 3)
    for _ in range(200):
        n, m = rng.randint(-3, 3), rng.randint(-3, 3)
        a = gaussian_window({e: 1 for e in range(rng.randint(-5, n), n + 1)})
        b = gaussian_window({e: 1 for e in range(rng.randint(-5, m), m + 1)})
        assert a.fil_member(n) and b.fil_member(m)
        assert (a * b).fil_member(n + m)


def test_str_and_json():
    w = LaurentWindow({2: Fraction(3), 0: Fraction(-1, 2)}, cutoff=-1)
    assert str(w) == "3*t^2 + -1/2 + O(t^-2)"
    data = w.to_json()
    assert data["cutoff"] == -1
    back = LaurentWindow.from_json(data)
    assert back == LaurentWindow({2: GaussianRational.of(3), 0: GaussianRational.of(Fraction(-1, 2))}, cutoff=-1)
    assert str(LaurentWindow.zero()) == "0"


# -- window products through the integer kernel ----------------------------------

KINDS = ("rational", "gaussian", "real_gaussian", "mixed")


def _random_coeff(rng, kind):
    re = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 4, 9, 16, 49]))
    im = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 5, 7]))
    if kind == "mixed":
        kind = rng.choice(("int", "rational", "gaussian", "real_gaussian"))
    if kind == "int":
        return re.numerator
    if kind == "rational":
        return re
    return GaussianRational(re, im if kind == "gaussian" else Fraction(0))


def _random_window(rng, kind, cutoff, zero_share):
    low = -8 if cutoff is None else cutoff
    exps = [e for e in range(low, 9) if rng.random() >= zero_share]
    return LaurentWindow({e: _random_coeff(rng, kind) for e in exps}, cutoff)


def _reference_window_mul(a, b):
    """The generic loop under the convolution-precision cutoff rule."""
    if a.is_certified_zero or b.is_certified_zero:
        return LaurentWindow.zero()
    cutoff = None
    if a.cutoff is not None:
        cutoff = a.cutoff + b._effective_top()
    if b.cutoff is not None:
        c2 = b.cutoff + a._effective_top()
        cutoff = c2 if cutoff is None else max(cutoff, c2)
    if cutoff == MINUS_INFINITY:
        cutoff = None
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if cutoff is not None and e < cutoff:
                continue
            out[e] = out.get(e, c1 * 0) + c1 * c2
    return LaurentWindow(out, None if cutoff is None else int(cutoff))


def _window_cases():
    rng = random.Random(SEED + 4)
    cutoff_pairs = [(None, None), (None, -3), (-2, None), (-4, -4), (-6, 1), (2, -7)]
    for kind_a in KINDS:
        for kind_b in KINDS:
            for cut_a, cut_b in cutoff_pairs:
                for zero_share in (0.0, 0.5, 0.9, 1.0):
                    yield (_random_window(rng, kind_a, cut_a, zero_share),
                           _random_window(rng, kind_b, cut_b, zero_share))


def test_window_mul_matches_reference_loop():
    for a, b in _window_cases():
        ours, ref = a * b, _reference_window_mul(a, b)
        assert ours.cutoff == ref.cutoff, (str(a), str(b))
        assert ours.coeffs == ref.coeffs, (str(a), str(b))
        gaussian = any(isinstance(c, GaussianRational) for w in (a, b) for c in w.coeffs.values())
        want = GaussianRational if gaussian else Fraction
        assert all(type(c) is want for c in ours.coeffs.values()), (str(a), str(b))
        if ours.cutoff is not None:
            assert all(e >= ours.cutoff for e in ours.coeffs)


def test_window_mul_keeps_cutoff_rule_on_empty_windows():
    unknown = LaurentWindow({}, cutoff=-2)  # zero above O(t^-3), not certified zero
    b = LaurentWindow({3: Fraction(2), -1: Fraction(1, 3)}, cutoff=-1)
    prod = unknown * b
    assert prod == _reference_window_mul(unknown, b)
    assert prod.cutoff == max(-2 + 3, -1 + (-3)) and not prod.coeffs
    assert unknown * LaurentWindow.zero() == LaurentWindow.zero()


def test_window_mul_rejects_coefficients_outside_q_i():
    with pytest.raises(TypeError, match="0.5"):
        LaurentWindow({0: Fraction(1), 1: 0.5}) * LaurentWindow({0: Fraction(2)})


@pytest.mark.parametrize("gaussian", [False, True])
def test_window_mul_matches_sympy(gaussian):
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.rings import ring

    domain = QQ_I if gaussian else QQ
    R, x = ring("x", domain)

    def to_sympy(w, low):
        p = R.zero
        for e, c in w.coeffs.items():
            c = GaussianRational.of(c)
            p += x ** (e - low) * (domain(c.re, c.im) if gaussian else domain(c.re))
        return p

    def frac(q):
        return Fraction(int(q.numerator), int(q.denominator))

    for a, b in _window_cases():
        if not (a.is_exact and b.is_exact):
            continue
        if not gaussian and any(GaussianRational.of(c).im for w in (a, b) for c in w.coeffs.values()):
            continue
        low_a, low_b = min(a.coeffs, default=0), min(b.coeffs, default=0)
        prod = to_sympy(a, low_a) * to_sympy(b, low_b)
        want = {}
        for (k,), c in prod.terms():
            want[k + low_a + low_b] = GaussianRational(frac(c.x), frac(c.y)) if gaussian else frac(c)
        assert (a * b).coeffs == want, (str(a), str(b))



# -- the integer carrier against plain {exponent: coefficient} dicts -------------


class _Ref:
    """A window as a plain dict of Fraction/GaussianRational values and a cutoff."""

    def __init__(self, coeffs, cutoff):
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0 and (cutoff is None or e >= cutoff)}
        self.cutoff = cutoff

    def zero(self):
        return self.cutoff is None and not self.coeffs

    def top(self):
        if self.coeffs:
            return max(self.coeffs)
        return MINUS_INFINITY if self.cutoff is None else self.cutoff - 1


def _merged(a, b):
    cuts = [c for c in (a, b) if c is not None]
    return max(cuts) if cuts else None


def _ref_add(a, b):
    out = dict(a.coeffs)
    for e, c in b.coeffs.items():
        out[e] = out.get(e, 0) + c
    return _Ref(out, _merged(a.cutoff, b.cutoff))


def _ref_scale(a, s):
    return _Ref({e: c * s for e, c in a.coeffs.items()}, a.cutoff)


def _ref_mul(a, b):
    if a.zero() or b.zero():
        return _Ref({}, None)
    cutoff = None
    if a.cutoff is not None:
        cutoff = a.cutoff + b.top()
    if b.cutoff is not None:
        cutoff = _merged(cutoff, b.cutoff + a.top())
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _Ref(out, cutoff)


def _ref_clip(a, cutoff):
    return a if a.zero() else _Ref(a.coeffs, _merged(a.cutoff, cutoff))


def _ref_inverse(a, prec):
    """The geometric series of the lead's inverse, in dict arithmetic."""
    m = max(a.coeffs)
    prec = min(prec, -m)
    c = a.coeffs[m]
    lead_inv = _Ref({-m: Fraction(1) / c}, None)
    one = _Ref({0: GaussianRational.of(1) if isinstance(c, GaussianRational) else Fraction(1)}, None)
    r = _ref_add(one, _ref_scale(_ref_mul(a, lead_inv), -1))
    acc = term = one
    while True:
        term = _ref_clip(_ref_mul(term, r), prec + m)
        acc = _ref_add(acc, term)
        if not term.coeffs:
            break
    result = _ref_mul(lead_inv, acc)
    return result if acc.cutoff is None else _ref_clip(result, prec)


def _ref_agrees(a, b):
    cutoff = _merged(a.cutoff, b.cutoff)
    return all(a.coeffs.get(e, 0) == b.coeffs.get(e, 0)
               for e in a.coeffs.keys() | b.coeffs.keys() if cutoff is None or e >= cutoff)


def _carrier_pair(rng, kind, cutoff, zero_share):
    """(LaurentWindow, _Ref) built from the same random dict."""
    low = -6 if cutoff is None else cutoff
    coeffs = {e: _random_coeff(rng, kind) for e in range(low, 7) if rng.random() >= zero_share}
    return LaurentWindow(coeffs, cutoff), _Ref(coeffs, cutoff)


def _assert_same(w, ref):
    assert w.cutoff == ref.cutoff, (str(w), ref.coeffs)
    assert w.coeffs == ref.coeffs, (str(w), ref.coeffs)
    assert w.to_json() == {
        "terms": [[e, str(ref.coeffs[e])] for e in sorted(ref.coeffs, reverse=True)],
        "cutoff": ref.cutoff,
    }
    try:
        assert w.pole_order() == ref.top()
    except IndeterminateTop:
        assert not ref.coeffs and ref.cutoff is not None


def _carrier_cases():
    rng = random.Random(SEED + 5)
    for kind_a in KINDS:
        for kind_b in KINDS:
            for cut_a, cut_b in ((None, None), (None, -2), (-3, None), (-1, -4), (2, 0)):
                for zero_share in (0.0, 0.6, 1.0):
                    yield (rng, _carrier_pair(rng, kind_a, cut_a, zero_share),
                           _carrier_pair(rng, kind_b, cut_b, zero_share))


def test_window_carrier_matches_dict_reference():
    scalars = [0, 3, Fraction(-2, 9), GaussianRational(Fraction(1, 4), Fraction(-5, 6)),
               GaussianRational(Fraction(0), Fraction(7))]
    for rng, (a, ra), (b, rb) in _carrier_cases():
        _assert_same(a, ra)
        _assert_same(a + b, _ref_add(ra, rb))
        _assert_same(a - b, _ref_add(ra, _ref_scale(rb, -1)))
        _assert_same(-a, _ref_scale(ra, -1))
        _assert_same(a * b, _ref_mul(ra, rb))
        s = rng.choice(scalars)
        _assert_same(a.scale(s), _ref_scale(ra, s))
        _assert_same(a * s, _ref_scale(ra, s))
        cut = rng.randint(-5, 5)
        _assert_same(a.clip(cut), _ref_clip(ra, cut))
        assert a.agrees_with(b) == _ref_agrees(ra, rb)
        assert a.agrees_with(a.clip(cut)) and a.clip(cut).agrees_with(a)
        assert (a == b) == (ra.cutoff == rb.cutoff and ra.coeffs == rb.coeffs)
        assert LaurentWindow.from_json(a.to_json()) == a
        if ra.coeffs:
            prec = rng.randint(-8, 0)
            _assert_same(a.inverse(prec), _ref_inverse(ra, prec))
        else:
            with pytest.raises(ZeroInverse if ra.cutoff is None else IndeterminateTop):
                a.inverse(-3)


def test_window_carrier_reads_back_typed_coefficients():
    for _, (a, ra), (b, rb) in _carrier_cases():
        gaussian = any(isinstance(c, GaussianRational) for c in (*ra.coeffs.values(), *rb.coeffs.values()))
        want = GaussianRational if gaussian else Fraction
        for w in (a + b, a * b):
            assert all(type(c) is want for c in w.coeffs.values())
            assert all(type(w.coefficient(e)) is want for e in w.coeffs)


def test_window_carrier_is_one_lowest_terms_form():
    half = LaurentWindow({1: Fraction(1, 2), -1: Fraction(3)})
    routes = [
        LaurentWindow({1: GaussianRational.of(Fraction(1, 2)), -1: GaussianRational.of(3)}),
        LaurentWindow.from_integers(12, {1: 6, -1: 36, 4: 0}, {}),
        half.scale(Fraction(3, 7)).scale(Fraction(7, 3)),
        (half + gaussian_window({5: Fraction(1, 3)})) - gaussian_window({5: Fraction(1, 3)}),
        half * LaurentWindow.monomial(0, Fraction(1)),
        (half * gaussian_window({2: 6})) * gaussian_window({-2: Fraction(1, 6)}),
        LaurentWindow({1: Fraction(1, 2), -1: Fraction(3), -9: Fraction(1, 8)}, cutoff=-9).clip(-2),
        half.inverse(-12).inverse(-12),
    ]
    for w in routes[:-2]:
        assert w == half and (w.den, w.terms) == (2, ([(-1, 6), (1, 1)], []))
    assert routes[-2] == LaurentWindow({1: Fraction(1, 2), -1: Fraction(3)}, cutoff=-2)
    assert routes[-2].den == 2
    assert routes[-1].agrees_with(half)
    with pytest.raises(TypeError):
        hash(half)
    assert LaurentWindow.zero() == LaurentWindow({0: 0, 3: GaussianRational.of(0)})


def test_window_carrier_refuses_coefficients_outside_q_i():
    w = gaussian_window({1: 1, 0: Fraction(1, 3)})
    for bad in (0.5, None, 0.0):
        def odd():
            return LaurentWindow({0: Fraction(1), 2: bad})

        with pytest.raises(TypeError, match="must be int, Fraction or GaussianRational"):
            odd() * w
        with pytest.raises(TypeError, match="must be int, Fraction or GaussianRational"):
            w * odd()
        with pytest.raises(TypeError):
            odd() + w
        with pytest.raises(TypeError, match="must be int, Fraction or GaussianRational"):
            w.scale(bad)
    # zeros inside Q(i) are dropped, and leave the window's type alone
    t = LaurentWindow({1: Fraction(1)})
    for zero in (0, Fraction(0), GaussianRational.of(0)):
        ours = LaurentWindow({0: zero, 1: Fraction(1)})
        assert (ours.den, ours.terms, ours.gaussian) == (t.den, t.terms, False)
        assert type(ours.coefficient(1)) is Fraction


def test_monomial_is_the_window_of_its_one_coefficient():
    scalars = [0, 1, -3, Fraction(3, 4), Fraction(-7, 6), GaussianRational.of(0),
               GaussianRational.of(2), GaussianRational(Fraction(0), Fraction(1)),
               GaussianRational(Fraction(1, 2), Fraction(-1, 3)), GaussianRational(Fraction(4, 6), 2)]
    for e in (-5, 0, 7):
        for c in scalars:
            ours, theirs = LaurentWindow.monomial(e, c), LaurentWindow({e: c})
            assert (ours.den, ours.terms, ours.gaussian, ours.cutoff) == \
                (theirs.den, theirs.terms, theirs.gaussian, theirs.cutoff), (e, c)
            assert str(ours) == str(theirs)
    with pytest.raises(TypeError):
        LaurentWindow.monomial(1, 1.5)
