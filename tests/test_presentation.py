"""Built-in curve presentations and the declarative loader."""

import random
from fractions import Fraction
from math import lcm

import pytest

from curvecoh.errors import EmbeddingNotRingMap
from curvecoh.presentation import (
    AffinePresentation,
    load_presentation,
    p1_presentation,
    twistor_presentation,
)
from curvecoh.scalars import GAUSSIAN_I, GaussianRational, parse_gaussian
from curvecoh.series import LaurentWindow, gaussian_window


@pytest.fixture(scope="module")
def p1():
    return p1_presentation()


@pytest.fixture(scope="module")
def tw():
    return twistor_presentation()


def test_p1_embeds(p1):
    assert p1.embed_basis(2) == gaussian_window({2: 1})
    assert [p1.label(i) for i in p1.basis_up_to(3)] == ["1", "t", "t^2", "t^3"]
    assert p1.mul_basis(1, 1) == {2: GaussianRational.of(1)}


def test_twistor_solves_the_linear_system(tw):
    u, v = tw.embed_basis(1), tw.embed_basis(2)
    assert u + v.scale(GAUSSIAN_I) == gaussian_window({1: 1})
    assert u - v.scale(GAUSSIAN_I) == gaussian_window({-1: -1})
    # forced by the defining relation
    assert u * u + v * v == gaussian_window({0: -1})


def test_embed_element(tw, p1):
    # the defining relation u^2 + v^2 + 1 embeds to the certified zero:
    # 1 + u^2 plus the window of v*v
    one_plus_u2 = tw.embed_element({0: Fraction(1), 3: Fraction(1)})
    v2 = tw.embed_basis(2) * tw.embed_basis(2)
    assert (one_plus_u2 + v2).is_certified_zero
    assert tw.embed_element({2: Fraction(1)}) == gaussian_window(
        {1: GaussianRational(Fraction(0), Fraction(-1, 2)),
         -1: GaussianRational(Fraction(0), Fraction(-1, 2))}
    )
    got = p1.embed_element({0: GaussianRational.of(3), 1: GaussianRational.of(1)})
    assert got == gaussian_window({0: 3, 1: 1})


def test_basis_counts(tw, p1):
    for D in range(0, 7):
        assert len(tw.basis_up_to(D)) == 2 * D + 1
        assert len(p1.basis_up_to(D)) == D + 1
    assert [tw.label(i) for i in tw.basis_up_to(2)] == ["1", "u", "v", "u^2", "u*v"]
    assert p1.basis_up_to(0) == [0]


def test_ring_map_and_leading_exact(tw, p1):
    tw.verify_ring_map(6)
    tw.verify_leading_exact(6)
    p1.verify_ring_map(6)
    p1.verify_leading_exact(6)


def test_degree_additivity(tw):
    for i in tw.basis_up_to(3):
        for j in tw.basis_up_to(3):
            prod = tw.mul_basis(i, j)
            degs = [tw.degree_of(k) for k in prod]
            total = tw.degree_of(i) + tw.degree_of(j)
            assert max(degs) == total  # top term present
            assert all(d <= total for d in degs)


RESCALED_P1 = """
# p1 in the coordinate 2t: same curve, different embedding scale
fields gaussian gaussian
flags leading_exact
basis one 0
basis a 1
basis a2 2
basis a3 3
basis a4 4
mul one one = 1*one
mul one a = 1*a
mul one a2 = 1*a2
mul one a3 = 1*a3
mul one a4 = 1*a4
mul a a = 1*a2
mul a a2 = 1*a3
mul a a3 = 1*a4
mul a2 a2 = 1*a4
embed one = 1*t^0
embed a = 2*t^1
embed a2 = 4*t^2
embed a3 = 8*t^3
embed a4 = 16*t^4
"""


def test_load_presentation():
    pres = load_presentation(RESCALED_P1, name="p1-rescaled")
    assert pres.leading_exact
    assert [pres.label(i) for i in pres.basis_up_to(2)] == ["one", "a", "a2"]
    assert pres.embed_basis(1) == gaussian_window({1: 2})


def test_load_presentation_rejects_bad_table():
    bad = RESCALED_P1.replace("mul a a = 1*a2", "mul a a = 1*a3")
    with pytest.raises(EmbeddingNotRingMap):
        load_presentation(bad)


def test_load_presentation_requires_fields():
    with pytest.raises(ValueError):
        load_presentation("basis one 0\nembed one = 1*t^0")


# what the file does wrong -> (line of RESCALED_P1 replaced, or None to append; new lines;
# the start of the message, after "line N: "). The last new line is the one refused.
_MALFORMED = {
    "repeated_embed_exponent": ("embed a = 2*t^1", ["embed a = 1*t^1 + 1*t^1"], "exponent 1 repeated"),
    "repeated_mul_symbol": ("mul a a = 1*a2", ["mul a a = 1/2*a2 + 1/2*a2"], "symbol 'a2' repeated"),
    "second_embed_line": (None, ["embed a = 2*t^1"], "second embedding of 'a'"),
    "second_mul_line": (None, ["mul a a = 1*a2"], "second rule for a * a"),
    "undeclared_embed_symbol": (None, ["embed b = 1*t^1"], "embed names undeclared symbol 'b'"),
    "undeclared_mul_symbol": (None, ["mul b a = 1*a2"], "mul names undeclared symbol 'b'"),
    "negative_basis_degree": ("basis a4 4", ["embed b = 1*t^-1", "basis a4 4", "basis b -1"],
                              "negative degree -1 for 'b'"),
    "repeated_basis_line": ("basis a4 4", ["basis a4 4", "basis a 1"], "basis symbol 'a' declared twice"),
    "malformed_mul_constant": ("mul a a = 1*a2", ["mul a a = 1/0*a2"], "zero denominator"),
    # one fields line and one flags line, with known flags only
    "second_fields_line": (None, ["fields rational gaussian"], "second 'fields' line"),
    "second_flags_line": (None, ["flags"], "second 'flags' line"),
    "unknown_flag": ("flags leading_exact", ["flags leading_exat"],
                     "unknown flag 'leading_exat', expected 'leading_exact'"),
    # a directive without its form is told the form
    "basis_without_degree": (None, ["basis t1"], "expected 'basis <symbol> <degree>', got 'basis t1'"),
    "basis_degree_not_an_integer": (None, ["basis t1 x"], "expected 'basis <symbol> <degree>', got 'basis t1 x'"),
    "fields_with_one_field": ("fields gaussian gaussian", ["fields gaussian"],
                              "expected 'fields rational|gaussian gaussian', got 'fields gaussian'"),
    "mul_with_one_symbol": (None, ["mul one = 1*a"], "expected 'mul <symbol> <symbol> = "),
    "mul_without_equals": (None, ["mul one a 1*a"], "expected 'mul <symbol> <symbol> = "),
    "mul_with_three_symbols": (None, ["mul one a a = 1*a"], "expected 'mul <symbol> <symbol> = "),
    "embed_without_equals": (None, ["embed a 1*t^1"], "expected 'embed <symbol> = "),
    "embed_exponent_not_an_integer": ("embed a = 2*t^1", ["embed a = 2*t^x"],
                                      "bad embed monomial 't^x', expected"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_load_presentation_refuses_malformed_lines(case, tmp_path, capsys):
    import re

    old, new, why = _MALFORMED[case]
    lines = RESCALED_P1.splitlines()
    if old is None:
        lines += new
    else:
        k = lines.index(old)
        lines[k:k + 1] = new
    number = len(lines) - lines[::-1].index(new[-1])
    _assert_refused("\n".join(lines) + "\n", number, re.escape(why), tmp_path, capsys)


def test_a_fields_line_after_the_rules_still_reads_them_in_its_pair(tmp_path, capsys):
    last = [line for line in RESCALED_P1.splitlines() if not line.startswith("fields")]
    last.append("fields gaussian gaussian")
    assert load_presentation("\n".join(last)).mul_basis(1, 1) == {2: GaussianRational.of(1)}
    # over (Q, Q(i)) an i constant is still refused at its rule's line
    last[-1] = "fields rational gaussian"
    assert load_presentation("\n".join(last)).mul_basis(1, 1) == {2: Fraction(1)}
    number = last.index("mul a a2 = 1*a3") + 1
    last[number - 1] = "mul a a2 = 1/2*i*a3"
    _assert_refused("\n".join(last) + "\n", number, r"structure constant '1/2\*i' is not rational",
                    tmp_path, capsys)


@pytest.mark.parametrize("constant", ["0.5", "1e0", "1/2*i"])
def test_a_rational_pair_reads_constants_in_the_gaussian_grammar(constant, tmp_path, capsys):
    # one grammar for every coefficient of a file, as an embed line reads it;
    # a rational pair then refuses an imaginary part, naming the constant
    lines = RESCALED_P1.replace("fields gaussian gaussian", "fields rational gaussian").splitlines()
    assert load_presentation("\n".join(lines)).mul_basis(0, 1) == {1: Fraction(1)}
    number = lines.index("mul one a = 1*a") + 1
    lines[number - 1] = f"mul one a = {constant}*a"
    why = r"structure constant '1/2\*i' is not rational" if "i" in constant else "cannot parse"
    _assert_refused("\n".join(lines) + "\n", number, why, tmp_path, capsys)


def _assert_refused(text, number, why, tmp_path, capsys):
    """The loader refuses line ``number`` of ``text`` (message starting ``why``); the CLI exits 2."""
    from curvecoh.cli import main

    with pytest.raises(ValueError, match=rf"^line {number}: {why}"):
        load_presentation(text)
    (tmp_path / "curve.pres").write_text(text)
    with pytest.raises(SystemExit) as info:
        main(["cohomology", "--curve", str(tmp_path / "curve.pres"), "--n", "0"])
    assert info.value.code == 2
    assert f"line {number}: " in capsys.readouterr().err


def test_twistor_presentations_share_power_windows(capsys):
    import hashlib

    from curvecoh.cli import main

    a, b = twistor_presentation(), twistor_presentation()
    assert a is b and p1_presentation() is p1_presentation()
    windows = [a.embed_basis(i) for i in range(40)]
    # u^p (odd indices) and u^p*v (even indices) are built once and then read back
    assert all(b.embed_basis(i) is w for i, w in enumerate(windows))
    # every twistor job reads the shared windows; the JSON is the one recorded before sharing
    assert main(["cohomology", "--curve", "twistor", "--n", "-6..16", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "382fc5b41fa2ce38b6053f4de59a30501229173ac125f8684a55d7294b4e3936"


def test_twistor_windows_fill_once_under_concurrent_embeddings():
    import sys
    import threading

    from curvecoh import presentation

    u, v = presentation._TWISTOR_U, presentation._TWISTOR_V
    pres = presentation.twistor_presentation.__wrapped__()  # a fresh value, its cache empty
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so concurrent fills interleave
    start = threading.Barrier(6)
    seen = []

    def worker(order):
        start.wait()
        seen.extend((i, pres.embed_basis(i)) for i in order)

    orders = [range(1, 81), range(80, 0, -1)] * 3
    threads = [threading.Thread(target=worker, args=(o,)) for o in orders]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)

    def expected(i):
        p, has_v = presentation._twistor_decode(i)
        return u.power(p) * v if has_v else u.power(p)

    assert sorted(pres._embed_cache) == list(range(81))
    assert all(w == expected(i) for i, w in pres._embed_cache.items())
    assert len(seen) == 6 * 80 and all(w == expected(i) for i, w in seen)


def test_formal_embeddings_hand_back_the_shared_windows():
    from curvecoh import cohomology as coh
    from curvecoh.periodic import TwoPeriodicPresentation, tate_degree_zero
    from curvecoh.scalars import gaussian_tps

    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 8)), 8)
    for pres, factory in ((twistor_presentation(), coh.twistor_formal_embedding),
                          (p1_presentation(), coh.p1_formal_embedding)):
        embed = factory(model)
        assert all(embed(i) is pres.embed_basis(i) for i in pres.basis_up_to(12))


def _random_coefficient(rng):
    """(text, value): a coefficient in the file grammar (no '*', which ends it) and its value.

    Real and imaginary terms with signs and slashes, "i/d" and bare "i"; the
    value is summed term by term in Fractions, not by the parser.
    """
    def magnitude():
        n, d = rng.randint(0, 40), rng.randint(1, 12) if rng.random() < 0.6 else None
        return (f"{n}/{d}", Fraction(n, d)) if d else (str(n), Fraction(n))

    text, re, im = "", Fraction(0), Fraction(0)
    for k in range(rng.randint(1, 3)):
        sign = rng.choice(["", "-"] if k == 0 else ["+", "-"])
        form = rng.randrange(4)
        if form == 0:
            t, v = magnitude()
        elif form == 1:
            t, v = magnitude()
            t += "i"
        elif form == 2:
            d = rng.randint(1, 9)
            t, v = f"i/{d}", Fraction(1, d)
        else:
            t, v = "i", Fraction(1)
        v = -v if sign == "-" else v
        if form == 0:
            re += v
        else:
            im += v
        text += sign + t
    return text, GaussianRational(re, im)


def test_embed_coefficients_read_into_integer_windows():
    rng = random.Random(11)
    for _ in range(60):
        exps = rng.sample(range(-4, 5), rng.randint(1, 5))  # a repeated exponent is refused
        coeffs = [_random_coefficient(rng) for _ in exps]
        rhs = " + ".join(f"{c}*t^{e}" for (c, _), e in zip(coeffs, exps))
        text = ("fields gaussian gaussian\nbasis one 0\nbasis b 1\nmul one one = 1*one\n"
                f"mul one b = 1*b\nembed one = 1*t^0\nembed b = {rhs}\n")
        window = load_presentation(text).embed_basis(1)
        assert window == LaurentWindow({e: v for (_, v), e in zip(coeffs, exps)}), rhs
        assert window.gaussian and all(type(c) is GaussianRational for c in window.coeffs.values())
        assert all(parse_gaussian(c) == v for c, v in coeffs)


GAUSSIAN_SCALED = """
# a Q(i)-coefficient variant: basis (i*t)^k, structure constants in Q(i)
fields gaussian gaussian
flags leading_exact
basis one 0
basis w 1
basis w2 2
mul one one = 1*one
mul one w = 1*w
mul one w2 = 1*w2
mul w w = 1*w2
embed one = 1*t^0
embed w = i*t^1
embed w2 = -1*t^2
"""


def test_load_gaussian_coefficient_presentation():
    pres = load_presentation(GAUSSIAN_SCALED, name="gauss-scaled")
    from curvecoh import cohomology as coh

    res = coh.h0(pres, 1, D=1)
    assert res.h0_dim == 2  # same curve slice as p1 in a rotated coordinate


def test_certification_extends_leading_exact_check_to_the_degrees_read(p1_file):
    from curvecoh import cohomology as coh

    good = load_presentation(p1_file(10, lambda k: k))
    assert good.verified_degree == 6
    res = coh.compute(good, 4)  # cutoff 8; H^1 stabilization reads degree 10
    assert res.dims == (5, 0) and res.certified
    assert good.verified_degree == 10

    # t8 -> t^7 breaks leading_exact at degree 8, past the load-time checks
    bad = load_presentation(p1_file(10, lambda k: 7 if k == 8 else k))
    assert coh.compute(bad, 2, D=4).certified  # reads degrees <= 6 only
    with pytest.raises(EmbeddingNotRingMap):
        coh.compute(bad, 4)
    with pytest.raises(EmbeddingNotRingMap):
        coh.h0(bad, 4, D=8)


# ---------------------------------------------------------------------------
# the integer ring-map check against window products and ``combine``
# ---------------------------------------------------------------------------


def _reference_check_ring_map(pres, window, max_degree, above=-1):
    """Every ordered basis product in degrees (above, max_degree] as a window product, against ``combine``."""
    from curvecoh.presentation import combine

    basis = pres.basis_up_to(max_degree)
    for i in basis:
        for j in basis:
            if not above < pres.degree_of(i) + pres.degree_of(j) <= max_degree:
                continue
            lhs = window(i) * window(j)
            rhs = combine(window, pres.mul_basis(i, j))
            if not lhs.agrees_with(rhs):
                raise EmbeddingNotRingMap(
                    f"{pres.name}: embed({pres.label(i)})*embed({pres.label(j)}) "
                    f"!= embed of the product: {lhs} vs {rhs}"
                )


def _outcome(check, pres, window, max_degree, above=-1):
    try:
        check(pres, window, max_degree, above)
    except EmbeddingNotRingMap as exc:
        return str(exc)
    return None


def _same_outcome(pres, window, max_degree, above=-1):
    from curvecoh.presentation import check_ring_map

    ours = _outcome(check_ring_map, pres, window, max_degree, above)
    assert ours == _outcome(_reference_check_ring_map, pres, window, max_degree, above)
    return ours


def _perturbed(window, k, e, delta):
    def perturbed(i):
        w = window(i)
        if i != k:
            return w
        coeffs = dict(w.coeffs)
        coeffs[e] = coeffs.get(e, 0) + delta
        return LaurentWindow(coeffs, w.cutoff)

    return perturbed


def _integer_rule(coeffs: dict) -> tuple:
    """{index: k0 value} in integer form (den, {index: (re, im)}), lowest terms, zeros kept."""
    values = {k: GaussianRational.of(c) for k, c in coeffs.items()}
    den = lcm(*(q.denominator for z in values.values() for q in (z.re, z.im)))
    return den, {k: (int(z.re * den), int(z.im * den)) for k, z in values.items()}


def _gaussian_constants_presentation(max_degree=8):
    """Basis b_k = c^k t^k over (Q(i), Q(i)): b_i * b_j = (c^i c^j / c^(i+j)) b_(i+j), c^k varying."""
    from curvecoh.scalars import GAUSSIAN_PAIR

    scales = [GaussianRational(Fraction(k + 1, 3), Fraction(1 - k, 2)) for k in range(max_degree + 1)]
    return AffinePresentation(
        name="gaussian-constants",
        pair=GAUSSIAN_PAIR,
        degree_fn=lambda i: i,
        indices_of_degree_fn=lambda d: [d],
        embed_fn=lambda i: LaurentWindow({i: scales[i]}, None),
        mul_fn=lambda i, j: _integer_rule({i + j: scales[i] * scales[j] / scales[i + j]}),
        label_fn=lambda i: f"b{i}",
        leading_exact=True,
        max_degree=max_degree,
    )


def test_integer_ring_map_check_matches_window_products(tw, p1, rescaled_twistor_file):
    from curvecoh.scalars import GAUSSIAN_I

    rng = random.Random(9)
    curves = [tw, p1, load_presentation(rescaled_twistor_file(8, Fraction(3, 2))),
              _gaussian_constants_presentation()]
    failures = set()
    for pres in curves:
        assert _same_outcome(pres, pres.embed_basis, 8) is None
        for _ in range(12):
            k = rng.choice(pres.basis_up_to(4))
            w = pres.embed_basis(k)
            e = rng.choice(sorted(w.coeffs) + [min(w.coeffs) - 1])
            # a real part, then an imaginary part
            for delta in (Fraction(rng.choice([-1, 1]), rng.randint(1, 5)), GAUSSIAN_I * rng.randint(1, 3)):
                failures.add(_same_outcome(pres, _perturbed(pres.embed_basis, k, e, delta), 8) is None)
    assert failures == {False}


def _plus_i_over(rule: tuple, m: int) -> tuple:
    """An integer-form rule with i/m added to each constant."""
    den, constants = rule
    return m * den, {k: (m * u, m * v + den) for k, (u, v) in constants.items()}


def test_integer_ring_map_check_matches_with_gaussian_constants():
    # a presentation's rules are fixed once it is built (each rule is kept once
    # asked for), so each perturbation gets a fresh presentation
    for i, j in ((1, 2), (3, 3), (0, 5), (4, 4)):
        pres = _gaussian_constants_presentation()
        rules = pres._mul

        def perturbed(a, b, i=i, j=j, rules=rules):
            rule = rules(a, b)
            return _plus_i_over(rule, 7) if (a, b) == (i, j) else rule

        pres._mul = perturbed
        message = _same_outcome(pres, pres.embed_basis, 8)
        assert message.startswith(f"gaussian-constants: embed(b{i})*embed(b{j}) != ")


def test_ring_map_check_reads_the_rules_integer_product_cleared():
    from curvecoh.presentation import integer_element

    tw = twistor_presentation.__wrapped__()  # a fresh value, its rules read by integer_product only
    basis = tw.basis_up_to(8)
    for i in basis:
        for j in basis:
            tw.integer_product(integer_element({i: 1}), integer_element({j: 1}))
    assert len(tw._rule_cache) == len(basis) ** 2
    # the twistor line's rules commute: each pair of orders holds one tuple, checked once
    assert all(tw._rule_cache[i, j] is tw._rule_cache[j, i] for i in basis for j in basis)
    rng = random.Random(19)
    for _ in range(6):
        k = rng.choice(tw.basis_up_to(4))
        e = rng.choice(sorted(tw.embed_basis(k).coeffs))
        message = _same_outcome(tw, _perturbed(tw.embed_basis, k, e, Fraction(rng.choice([-1, 1]), 3)), 8)
        assert message.startswith("twistor: embed(") and " != embed of the product: " in message


def test_ring_map_check_clears_each_rule_once_per_presentation():
    from curvecoh import presentation

    tw = twistor_presentation.__wrapped__()
    rules, calls = tw._mul, []
    tw._mul = lambda i, j: calls.append((i, j)) or rules(i, j)
    presentation.check_ring_map(tw, tw.embed_basis, 8)
    # a cold cache: one mul_fn call per ordered pair; the twistor line's rules
    # commute, so each pair of orders keeps one tuple
    basis = tw.basis_up_to(8)
    pairs = [(i, j) for i in basis for j in basis if tw.degree_of(i) + tw.degree_of(j) <= 8]
    assert calls == pairs
    assert all(tw._rule_cache[i, j] is tw._rule_cache[j, i] for i, j in pairs)
    calls.clear()
    presentation.check_ring_map(tw, tw.embed_basis, 8)
    assert calls == []


def test_ring_map_check_reads_both_orders_of_an_asymmetric_rule():
    # b_2 * b_1 differs from b_1 * b_2: the check must not take one for the other,
    # whether the rules are cleared cold or were cleared before by integer_product
    from curvecoh.presentation import integer_element

    for warm in (False, True):
        pres = _gaussian_constants_presentation()
        rules = pres._mul
        pres._mul = lambda a, b: _plus_i_over(rules(a, b), 1) if (a, b) == (2, 1) else rules(a, b)
        if warm:
            for i in pres.basis_up_to(8):
                for j in pres.basis_up_to(8 - i):
                    pres.integer_product(integer_element({i: 1}), integer_element({j: 1}))
        message = _same_outcome(pres, pres.embed_basis, 8)
        assert message.startswith("gaussian-constants: embed(b2)*embed(b1) != ")


def test_cleared_rules_keep_the_indices_named_with_zero_coefficients():
    from curvecoh.presentation import integer_element

    # b_1 * b_1 = 0*b_2, the rule (1, {2: (0, 0)}): b_2's cutoff still bounds
    # the comparison when the rule was first read by integer_product
    h = 5
    w1 = LaurentWindow.from_integers(1, {1: h}, {})
    for cut, holds in ((3, True), (2, False)):
        windows = {0: LaurentWindow.from_integers(1, {0: 1}, {}), 1: w1, 2: LaurentWindow({}, cut)}
        pres = _clipped_square_presentation(windows, 0)
        assert pres.integer_product(integer_element({1: 1}), integer_element({1: 1})) == (1, {})
        assert pres._rule_cache[1, 1] == (1, {2: (0, 0)})
        assert (_same_outcome(pres, windows.get, 2) is None) == holds


def test_integer_ring_map_check_matches_on_windows_with_cutoffs(tw, p1):
    from curvecoh import cohomology as coh
    from curvecoh.periodic import TwoPeriodicPresentation, tate_degree_zero
    from curvecoh.scalars import GAUSSIAN_I, gaussian_tps

    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 8)), 8)
    rng = random.Random(4)
    outcomes = set()
    for pres, embed in ((tw, coh.twistor_formal_embedding(model)), (p1, coh.p1_formal_embedding(model))):
        for cut in (-2, -1, 0):
            def staggered(i, embed=embed, cut=cut):
                return embed(i).clip(cut + i % 3)

            # products are known down to other cutoffs than their right-hand
            # sides: only the exponents above both can be compared
            assert _same_outcome(pres, staggered, 6) is None
            for _ in range(10):
                k = rng.choice(pres.basis_up_to(3))
                w = staggered(k)
                e = rng.randint(w.cutoff, (w.top if w.top is not None else w.cutoff) + 1)
                window = _perturbed(staggered, k, e, GAUSSIAN_I * rng.choice([-1, 1]) + 1)
                outcomes.add(_same_outcome(pres, window, 6) is None)
    assert outcomes == {False}


def test_ring_map_is_certified_through_the_degrees_read(p1_file, tmp_path, capsys):
    from curvecoh import cohomology as coh
    from curvecoh.cli import main
    from curvecoh.section_ring import build_section_ring

    # a wrong product rule in degree 7, past the load-time checks
    text = p1_file(10, lambda k: k).replace("mul t1 t6 = 1*t7", "mul t1 t6 = 1*t6")
    bad = load_presentation(text)
    assert bad.verified_degree == 6
    assert coh.compute(bad, 1, D=4).certified  # reads degrees <= 6 only
    with pytest.raises(EmbeddingNotRingMap, match=r"embed\(t1\)\*embed\(t6\) != embed of the product"):
        build_section_ring(bad, 8)
    curve = tmp_path / "bad.pres"
    curve.write_text(text)
    assert main(["section-ring", "--curve", str(curve), "--max-degree", "8"]) == 1
    assert "EmbeddingNotRingMap" in capsys.readouterr().err

    # a perturbed constant at the top degree read: compute(pres, 4) reads D + 2 = 10
    top = load_presentation(p1_file(10, lambda k: k).replace("mul t4 t6 = 1*t10", "mul t4 t6 = 2*t10"))
    assert coh.compute(top, 4, D=7).certified  # reads degree 9
    with pytest.raises(EmbeddingNotRingMap, match=r"embed\(t4\)\*embed\(t6\)"):
        coh.compute(top, 4)
    good = load_presentation(p1_file(10, lambda k: k))
    assert coh.compute(good, 4).certified and good.verified_degree == 10


def test_ring_map_extension_checks_each_product_degree_once(p1_file, monkeypatch):
    from curvecoh import presentation

    calls = []
    check = presentation.check_ring_map

    def recording(pres, window, max_degree, above=-1):
        calls.append((above, max_degree))
        return check(pres, window, max_degree, above)

    monkeypatch.setattr(presentation, "check_ring_map", recording)
    pres = load_presentation(p1_file(10, lambda k: k))
    for degree in (5, 8, 8, 10, 12):
        assert pres.certified_through(degree)
    assert calls == [(-1, 6), (6, 8), (8, 10)]


def test_leading_exact_extension_scans_each_degree_once(monkeypatch):
    from curvecoh import cohomology as coh
    from curvecoh import presentation

    scanned = []
    rows = presentation.gluing_rows

    def recording(pair, windows, top, low, identity=False):
        scanned.append(top)  # leading_exact_failure reads one degree's leading row per call
        return rows(pair, windows, top, low, identity)

    monkeypatch.setattr(presentation, "gluing_rows", recording)
    pres = load_presentation(_benchmark_curve_text())
    assert scanned == list(range(7))
    res = coh.compute(pres, 11)  # cutoff 12: H^0 reads degree 12, H^1 degree 14
    assert res.certified and res.cutoff_used == 12
    assert scanned == list(range(15))


def test_ring_map_checks_both_orders_when_the_rules_differ(p1_file):
    # t1*t2 and t2*t1 share the window product but not the rule
    with pytest.raises(EmbeddingNotRingMap, match=r"embed\(t2\)\*embed\(t1\) != "):
        load_presentation(p1_file(6, lambda k: k) + "\nmul t2 t1 = 1*t2")
    # the same when the file lists b * a before a * b, and no failure when both agree
    lines = p1_file(6, lambda k: k).splitlines()
    k = lines.index("mul t1 t2 = 1*t3")
    with pytest.raises(EmbeddingNotRingMap, match=r"embed\(t2\)\*embed\(t1\) != "):
        load_presentation("\n".join(lines[:k] + ["mul t2 t1 = 1*t2"] + lines[k:]))
    load_presentation("\n".join(lines[:k] + ["mul t2 t1 = 1*t3"] + lines[k:]))


def _cli_json(argv, text, tmp_path, capsys):
    """(exit code, stdout, stderr) of ``main(argv)`` on ``text`` written as the curve file."""
    from curvecoh.cli import main

    (tmp_path / "curve.pres").write_text(text)
    try:
        code = main([*argv, "--curve", str(tmp_path / "curve.pres")])
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_a_symbol_may_be_used_above_its_basis_line(p1_file, tmp_path, capsys):
    # every basis line last: each mul right-hand side, left-hand side and embed names a
    # symbol declared further down, and the curve is the one declared first
    lines = p1_file(8, lambda k: k).splitlines()
    last = [line for line in lines if not line.startswith("basis ")] + [
        line for line in lines if line.startswith("basis ")]
    assert last[2].startswith("mul t0 t0 = ") and last[-1] == "basis t8 8"
    for argv in (["cohomology", "--n", "-2..6", "--format", "json"],
                 ["section-ring", "--max-degree", "8", "--format", "json"]):
        first, later = (_cli_json(argv, "\n".join(t) + "\n", tmp_path, capsys) for t in (lines, last))
        assert first[0] == 0 and first[1] and later == first


def test_a_product_inside_the_declared_degrees_needs_a_rule(tmp_path, capsys):
    text = _workloads().rescaled_twistor_text(Fraction(3, 2), 10)
    gap = "".join(line + "\n" for line in text.splitlines() if not line.startswith("mul u3 u4 "))
    assert len(gap) < len(text) and "mul u4 u3 " not in text
    assert _cli_json(["cohomology", "--n", "0"], text, tmp_path, capsys)[0] == 0
    with pytest.raises(ValueError, match=r"^no product rule for u3 \* u4 in either order$"):
        load_presentation(gap)
    code, out, err = _cli_json(["cohomology", "--n", "0"], gap, tmp_path, capsys)
    assert (code, out) == (2, "") and "no product rule for u3 * u4" in err
    # the mirror rule covers the gap
    mirrored = text.replace("mul u3 u4 ", "mul u4 u3 ")
    pres = load_presentation(mirrored)
    u3, u4 = (next(i for i in pres.basis_up_to(10) if pres.label(i) == s) for s in ("u3", "u4"))
    assert pres._rule_cache[u3, u4] is pres._rule_cache[u4, u3]
    assert _cli_json(["cohomology", "--n", "0..6"], mirrored, tmp_path, capsys) == _cli_json(
        ["cohomology", "--n", "0..6"], text, tmp_path, capsys)


def test_a_product_past_the_top_degree_may_be_left_out(p1_file):
    from curvecoh.errors import CutoffTooLarge

    # the file lists t_i * t_j for i + j <= 6 only
    pres = load_presentation(p1_file(6, lambda k: k))
    assert all(pres.degree_of(i) + pres.degree_of(j) <= 6 for i, j in pres._rule_cache)
    assert pres.certified_through(6) and pres.mul_elements({3: 1}, {3: 1}) == {6: GaussianRational.of(1)}
    with pytest.raises(CutoffTooLarge, match=r"t3 \* t4 has degree 7"):
        pres.mul_elements({3: 1}, {4: 1})


def _file_rules(text: str, gaussian: bool) -> dict:
    """{(a, b): {symbol: k0 value}} of a file's ``mul`` lines read with ``parse_gaussian``, b * a filled in."""
    rules = {}
    for line in text.splitlines():
        if line.startswith("mul "):
            lhs, rhs = line[4:].split("=")
            values = {}
            for term in rhs.strip().split(" + "):
                coeff, sym = term.rsplit("*", 1)
                z = parse_gaussian(coeff)
                values[sym] = z if gaussian else z.re
            rules[tuple(lhs.split())] = values
    return {**{(b, a): v for (a, b), v in rules.items()}, **rules}


@pytest.mark.parametrize("kind", ["rational", "gaussian", "unreduced"])
def test_mul_basis_reads_the_rules_back_as_k0_values(kind, rescaled_twistor_file):
    # one form per rule: the rule is the file's constants over their least common
    # denominator (lowest terms, named zeros kept), and mul_basis reads it back with
    # the types a k0 value has
    zs = [GaussianRational(Fraction(k + 2, 3), Fraction(1 - 2 * k, 5)) for k in range(9)]
    text = {"rational": lambda: rescaled_twistor_file(8, Fraction(3, 2)),
            "gaussian": lambda: _scaled_line_text(zs, True),
            "unreduced": lambda: RESCALED_P1.replace("= 1*a2", "= 6/6*a2 + 0/4*a4").replace(
                "= 1*a3", "= 2/2+0*i*a3")}[kind]()
    pres = load_presentation(text)
    rules = _file_rules(text, kind != "rational")
    top = pres.max_degree
    basis = pres.basis_up_to(top)
    index = {pres.label(i): i for i in basis}
    assert len(rules) == sum(pres.degree_of(i) + pres.degree_of(j) <= top for i in basis for j in basis)
    for (a, b), values in rules.items():
        expected = {index[s]: v for s, v in values.items()}
        assert pres.rule(index[a], index[b]) == _integer_rule(expected)
        got = pres.mul_basis(index[a], index[b])
        assert got == expected
        assert {type(v) for v in got.values()} == {Fraction if kind == "rational" else GaussianRational}


def test_a_loaded_curve_reads_its_rules_in_one_form(monkeypatch, rescaled_twistor_file):
    from curvecoh import presentation
    from curvecoh.section_ring import build_section_ring, degree_one_generation

    pres = load_presentation(rescaled_twistor_file(14, Fraction(3, 2)))
    read, asked = [], []
    read_back, rules = AffinePresentation.mul_basis, pres._mul
    monkeypatch.setattr(AffinePresentation, "mul_basis",
                        lambda self, i, j: read.append((i, j)) or read_back(self, i, j))
    pres._mul = lambda i, j: asked.append((i, j)) or rules(i, j)
    presentation.check_ring_map(pres, pres.embed_basis, 14)
    sr = build_section_ring(pres, 9)
    report = degree_one_generation(sr)
    assert report.kernel_dims[2] == 1 and all(report.surjective.values())
    # every rule was in the cache from load, and none is read back as k0 values
    assert read == [] and asked == []
    # a rule the file lists once serves both orders as one tuple
    assert pres._rule_cache[1, 2] is pres._rule_cache[2, 1]


def _sparse_tail_text(G: int, top: int = 8) -> str:
    """p1 with t_k embedded as (t + t^-G)^k: windows of k + 1 terms spanning k*(G + 1) exponents."""
    from math import comb

    lines = ["fields gaussian gaussian", "flags leading_exact"]
    lines += [f"basis t{k} {k}" for k in range(top + 1)]
    lines += [f"mul t{i} t{j} = 1*t{i + j}" for i in range(top + 1) for j in range(i, top + 1 - i)]
    lines += [f"embed t{k} = " + " + ".join(f"{comb(k, m)}*t^{k - m * (G + 1)}" for m in range(k + 1))
              for k in range(top + 1)]
    return "\n".join(lines) + "\n"


def test_sparse_tail_checks_term_by_term(tmp_path, capsys, monkeypatch):
    import json

    from curvecoh import presentation
    from curvecoh.cli import main

    # a product check_ring_map does not pack is compared on its windows, by agrees_with
    term_by_term = []
    agrees_with = presentation.LaurentWindow.agrees_with

    def recording(self, other):
        term_by_term.append(self)
        return agrees_with(self, other)

    monkeypatch.setattr(presentation.LaurentWindow, "agrees_with", recording)
    # the load checks through degree 6: a packed frame would span 6*(G + 1) exponents
    for G in (10**3, 10**9):  # the smaller tail first, whose packed frames would still fit
        term_by_term.clear()
        pres = load_presentation(_sparse_tail_text(G))
        assert term_by_term
    curve = tmp_path / "tail.pres"
    curve.write_text(_sparse_tail_text(G))
    assert main(["cohomology", "--curve", str(curve), "--n", "0..2", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)
    assert [(r["n"], r["h0"], r["h1"], r["certified"]) for r in results] == [
        (0, 1, 0, True), (1, 2, 0, True), (2, 3, 0, True)]

    assert _same_outcome(pres, pres.embed_basis, 8) is None
    for k, e in ((8, 8 - 4 * (G + 1)), (5, -5 * G), (3, 3 - 3 * (G + 1)), (8, 8)):
        assert _same_outcome(pres, _perturbed(pres.embed_basis, k, e, Fraction(1, 3)), 8) is not None


def test_ring_map_check_is_exact_on_numerators_of_200_bits(rescaled_twistor_file):
    # b<k> stands for (7/5)^k times the built-in element: structure constants over 5^m and 7^m
    pres = load_presentation(rescaled_twistor_file(14, Fraction(97, 89), lambda k: Fraction(7, 5) ** k))
    basis = pres.basis_up_to(14)
    windows = [pres.embed_basis(i) for i in basis]
    delta = lcm(*(w.den for w in windows))
    assert max(abs(x) * delta // w.den for w in windows for part in w.terms for _, x in part).bit_length() >= 200
    assert _same_outcome(pres, pres.embed_basis, 14) is None
    # 1/den at a window's lowest exponent; above = 13 reaches the degree-7 ones only
    # through products of degree 14, whose differences have the largest coefficients
    for above, degree in ((-1, 14), (13, 7), (13, 14), (9, 5)):
        for k in pres.indices_of_degree(degree):
            w = pres.embed_basis(k)
            for part in (0, 1):
                lowest = min(e for p in w.terms for e, _ in p)
                bad = _numerator_plus_one(w, lowest, part)
                window = lambda i, k=k, bad=bad: bad if i == k else pres.embed_basis(i)  # noqa: E731
                assert _same_outcome(pres, window, 14, above) is not None


def _clipped_square_presentation(windows, square=1):
    """b_0, b_1, b_2 of degrees 0, 1, 2 with b_i * b_j = b_(i+j), but b_1 * b_1 = square*b_2."""
    from curvecoh.scalars import GAUSSIAN_PAIR

    return AffinePresentation(
        name="clipped", pair=GAUSSIAN_PAIR, degree_fn=lambda i: i, indices_of_degree_fn=lambda d: [d],
        embed_fn=windows.__getitem__,
        mul_fn=lambda i, j: (1, {i + j: (square if (i, j) == (1, 1) else 1, 0)}),
        label_fn=lambda i: f"b{i}", max_degree=2,
    )


@pytest.mark.parametrize("unit", [(1, 0), (-1, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("signs", ["equal", "alternating"])
def test_ring_map_check_is_exact_at_the_comparison_cutoff(unit, signs):
    from curvecoh.presentation import check_ring_map

    # w1 = sum h*t^e over e = -20..1 with |h| of 150 bits, integral so that a right-hand
    # side off by one leaves D one unit at the cutoff; below it D holds w1^2's coefficients,
    # up to 22*h^2, of either sign, so the packed D borrows across the cutoff
    h = (1 << 150) - 1
    x, y = unit
    span = range(-20, 2)
    re = {e: x * h * (-1) ** (e % 2 * (signs == "alternating")) for e in span}
    im = {e: y * h * (-1) ** (e % 2 * (signs == "alternating")) for e in span}
    w1 = LaurentWindow.from_integers(1, re, {e: v for e, v in im.items() if v})
    square = w1 * w1
    one = LaurentWindow.from_integers(1, {0: 1}, {})
    for cut in (-19, -18, -5, 2):
        outcomes = {}
        for delta in (0, 1, -1, GAUSSIAN_I):
            for at in (cut, cut + 1):
                # the right-hand side clipped at the cutoff, off by delta at t^at
                coeffs = dict(square.coeffs)
                coeffs[at] = coeffs.get(at, 0) + delta
                windows = {0: one, 1: w1, 2: LaurentWindow({e: c for e, c in coeffs.items() if e >= cut}, cut)}
                outcomes[delta, at] = _same_outcome(_clipped_square_presentation(windows), windows.get, 2)
            # the factors clipped instead: the product is known from cut + 1 up
            coeffs = dict(square.coeffs)
            coeffs[cut] = coeffs.get(cut, 0) + delta
            clipped = w1.clip(cut - 1)
            windows = {0: one, 1: clipped, 2: LaurentWindow(coeffs, None)}
            assert (clipped * clipped).cutoff == cut
            outcomes[delta, "factors"] = _same_outcome(_clipped_square_presentation(windows), windows.get, 2)
            if delta:
                with pytest.raises(EmbeddingNotRingMap, match=r"^clipped: embed\(b1\)\*embed\(b1\)"):
                    check_ring_map(_clipped_square_presentation(windows), windows.get, 2)
        assert {key for key, message in outcomes.items() if message is None} == {
            (0, cut), (0, cut + 1), (0, "factors")}


@pytest.mark.parametrize("x, y", [(1, 0), (-1, 0), (1, 1), (1, -1)])
def test_ring_map_check_at_the_height_bound(x, y):
    # b_1 * b_1 = 0*b_2 with b_1 -> h*(x + i*y)*t and b_2 known to be zero from t^cut up:
    # D = rho*N_1^2 is one coefficient at t^2 of height exactly rho*w*H^2, the bound that
    # fixes B, and it lies just below the comparison cutoff 3 or at the cutoff 2
    for h in (1, 3, (1 << 61) - 1, (1 << 200) + 1):
        w1 = LaurentWindow.from_integers(1, {1: h * x}, {1: h * y} if y else {})
        for cut, holds in ((3, True), (2, False)):
            windows = {0: LaurentWindow.from_integers(1, {0: 1}, {}), 1: w1,
                       2: LaurentWindow({}, cut)}
            outcome = _same_outcome(_clipped_square_presentation(windows, 0), windows.get, 2)
            assert (outcome is None) == holds


def test_ring_map_check_packs_each_window_once(tw, monkeypatch):
    from collections import Counter

    from curvecoh import presentation, series

    curves = [(tw, 12), (load_presentation(_benchmark_curve_text()), 14)]
    for pres, top in curves:
        for i in pres.basis_up_to(top):
            pres.embed_basis(i)

    def refused(*args, **kwargs):
        raise AssertionError("a passing ring-map check built a window or multiplied term by term")

    monkeypatch.setattr(series.LaurentWindow, "from_integers", refused)
    monkeypatch.setattr(series, "linear_combination", refused)
    monkeypatch.setattr(presentation, "linear_combination", refused)
    for pres, top in curves:
        reads = Counter()

        def window(i, pres=pres, reads=reads):
            reads[i] += 1
            return pres.embed_basis(i)

        presentation.check_ring_map(pres, window, top)
        assert reads == Counter(pres.basis_up_to(top))


# ---------------------------------------------------------------------------
# mutation: one perturbed window numerator at the top degree a result reads
# ---------------------------------------------------------------------------


def _workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses look their module up by name
    return workloads


def _benchmark_curve_text() -> str:
    """The rescaled twistor file of the benchmark's seed-1 cohomology sweep (degrees 0..14)."""
    return _workloads().build("cohomology-sweep", 1).curve_text


def _gaussian_line_text(top: int, c: GaussianRational) -> str:
    """p1 in the coordinate c*t over (Q(i), Q(i)): w_k embeds as c^k * t^k."""
    lines = ["fields gaussian gaussian", "flags leading_exact"]
    lines += [f"basis w{k} {k}" for k in range(top + 1)]
    lines += [f"mul w{i} w{j} = 1*w{i + j}" for i in range(top + 1) for j in range(i, top + 1 - i)]
    z = GaussianRational.of(1)
    for k in range(top + 1):
        sign = "+" if z.im >= 0 else ""
        lines.append(f"embed w{k} = {z.re}{sign}{z.im}i*t^{k}")
        z = z * c
    return "\n".join(lines)


def _numerator_plus_one(w: LaurentWindow, e: int, part: int) -> LaurentWindow:
    """w with 1 added to its real (part 0) or imaginary (part 1) numerator at t^e."""
    re, im = (dict(p) for p in w.terms)
    num = (re, im)[part]
    num[e] = num.get(e, 0) + 1
    return LaurentWindow.from_integers(w.den, re, im, w.cutoff, w.gaussian)


# (curve text, twist whose H^1 reads the file's top degree, label, exponent, part)
_MUTATIONS = [
    *((_benchmark_curve_text, 10, label, e, part)
      for label, e, part in (("u14", 12, 0), ("u14", 0, 1), ("u13v", 2, 1), ("u13v", -14, 0))),
    *((lambda: _gaussian_line_text(10, GaussianRational(Fraction(1, 2), Fraction(1, 3))), 6, "w10", e, part)
      for e, part in ((10, 0), (10, 1), (3, 1))),
]


@pytest.mark.parametrize("text, n, label, e, part", _MUTATIONS)
def test_perturbed_window_numerator_fails_the_top_degree_read(text, n, label, e, part, tmp_path,
                                                              capsys, monkeypatch):
    from curvecoh import cli
    from curvecoh import cohomology as coh

    def perturbed_load(*args, **kwargs):
        pres = load_presentation(*args, **kwargs)
        k = next(i for i in pres.basis_up_to(pres.max_degree) if pres.label(i) == label)
        assert pres.degree_of(k) == pres.max_degree == coh.resolved_default_cutoff(pres, n) + 2
        assert k not in pres._embed_cache  # above the load-time checks
        pres._embed_cache[k] = _numerator_plus_one(pres.embed_basis(k), e, part)
        return pres

    curve = tmp_path / "curve.txt"
    curve.write_text(text())
    argv = ["cohomology", "--curve", str(curve), "--n", str(n), "--format", "json"]
    assert cli.main(argv) == 0 and '"certified": true' in capsys.readouterr().out
    monkeypatch.setattr(cli, "load_presentation", perturbed_load)
    with pytest.raises(EmbeddingNotRingMap):
        coh.compute(perturbed_load(text()), n)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "EmbeddingNotRingMap" in err


def _scaled_line_text(zs, star: bool) -> str:
    """Q(i)[w] with w_k -> z_k*t^k: Gaussian embed coefficients and structure constants.

    Imaginary parts are written "c/d*i" when ``star`` is set, else "c/di".
    """
    def coeff(z):
        if z.im == 0:
            return str(z.re)
        imag = f"{z.im}*i" if star else f"{z.im}i"
        return imag if z.re == 0 else f"{z.re}{'+' if z.im > 0 else ''}{imag}"

    top = len(zs) - 1
    lines = ["fields gaussian gaussian", "flags leading_exact"]
    lines += [f"basis w{k} {k}" for k in range(top + 1)]
    lines += [f"mul w{i} w{j} = {coeff(zs[i] * zs[j] / zs[i + j])}*w{i + j}"
              for i in range(top + 1) for j in range(i, top + 1 - i)]
    lines += [f"embed w{k} = {coeff(z)}*t^{k}" for k, z in enumerate(zs)]
    return "\n".join(lines) + "\n"


def test_star_i_coefficients_load_like_the_short_form(tmp_path, capsys, rescaled_twistor_file):
    import re

    from curvecoh.cli import main

    rng = random.Random(17)
    zs = [GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                           Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7)))
          for _ in range(9)]
    twistor = rescaled_twistor_file(8, Fraction(3, 2))
    for short, star in [(_scaled_line_text(zs, False), _scaled_line_text(zs, True)),
                        (twistor, re.sub(r"(\d+(?:/\d+)?)i\*", r"\1*i*", twistor))]:
        assert "*i*" in star and "*i*" not in short
        a, b = load_presentation(short), load_presentation(star)
        basis = a.basis_up_to(8)
        assert b.basis_up_to(8) == basis
        for i in basis:
            assert b.embed_basis(i) == a.embed_basis(i)
            for j in basis:
                if a.degree_of(i) + a.degree_of(j) <= 8:
                    assert b.mul_basis(i, j) == a.mul_basis(i, j)
        outputs = []
        for text in (short, star):
            (tmp_path / "curve.pres").write_text(text)
            code = main(["cohomology", "--curve", str(tmp_path / "curve.pres"), "--n", "-3..5",
                         "--format", "json"])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0][0] == 0 and outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# the loader's work per line
# ---------------------------------------------------------------------------


def test_each_right_hand_side_is_parsed_once_and_plain_embed_terms_in_one_match(monkeypatch):
    from curvecoh import presentation, scalars

    text = _workloads().rescaled_twistor_text(Fraction(5, 2), 14)
    sides = [line.split("=", 1)[1] for line in text.splitlines() if line.startswith("mul ")]
    assert (len(sides), len(set(sides))) == (218, 42)
    cut, split = [], []
    parse_term, split_terms = presentation._parse_term, scalars.split_terms
    monkeypatch.setattr(presentation, "_parse_term", lambda term, read: cut.append(term) or parse_term(term, read))
    monkeypatch.setattr(scalars, "split_terms", lambda s: split.append(s) or split_terms(s))
    load_presentation(text)
    # the terms of the 42 distinct right-hand sides, each cut once, and no embed term
    assert sorted(cut) == sorted(term for rhs in set(sides) for term in rhs.strip().split(" + "))
    assert split == []
    # a coefficient "a/b*i" takes the general path
    load_presentation(text.replace("/4i*t^1 ", "/4*i*t^1 "))
    assert len(split) == 1


#: t0 and s both embed as 1, b and c as t^6; one*c, s*b and s*c have one right-hand side
_SHARED_SIDES = """fields gaussian gaussian
basis t0 0
basis s 0
basis b 6
basis c 6
mul t0 t0 = 1*t0
mul t0 s = 1*s
mul t0 b = 1*b
mul t0 c = 1*c
mul s s = 1*t0
mul s b = 1*c
mul s c = 1*c
embed t0 = 1*t^0
embed s = 1*t^0
embed b = 1*t^6
embed c = 1*t^6
"""


def test_products_that_share_a_right_hand_side_are_each_checked():
    pres = load_presentation(_SHARED_SIDES)
    t0, s, b, c = pres.basis_up_to(6)
    assert pres.rule(t0, c) is pres.rule(s, b) is pres.rule(s, c)
    # s*b is the one product that reads b's window against another: a term added to b
    # leaves t0*b = b true, so only s*b, whose rule is t0*c's tuple, can refuse it
    with pytest.raises(EmbeddingNotRingMap, match=r"embed\(s\)\*embed\(b\) != "):
        load_presentation(_SHARED_SIDES.replace("embed b = 1*t^6", "embed b = 1*t^6 + 1*t^5"))
