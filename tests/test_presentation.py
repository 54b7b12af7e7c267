"""Built-in curve presentations and the declarative loader."""

import random
from fractions import Fraction

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
    pres = load_presentation(RESCALED_P1, name="p1-rescaled", verify_degree=4)
    assert pres.leading_exact
    assert [pres.label(i) for i in pres.basis_up_to(2)] == ["one", "a", "a2"]
    assert pres.embed_basis(1) == gaussian_window({1: 2})


def test_load_presentation_rejects_bad_table():
    bad = RESCALED_P1.replace("mul a a = 1*a2", "mul a a = 1*a3")
    with pytest.raises(EmbeddingNotRingMap):
        load_presentation(bad, verify_degree=4)


def test_load_presentation_requires_fields():
    with pytest.raises(ValueError):
        load_presentation("basis one 0\nembed one = 1*t^0")


def test_twistor_presentations_share_power_windows(capsys):
    import hashlib

    from curvecoh.cli import main

    a, b = twistor_presentation(), twistor_presentation()
    for i in range(40):
        assert a.embed_basis(i) == b.embed_basis(i)
    # u^p (odd indices) is the one shared window, not an equal copy
    assert all(a.embed_basis(i) is b.embed_basis(i) for i in range(1, 40, 2))
    # every twistor job reads the shared powers; the JSON is the one recorded before sharing
    assert main(["cohomology", "--curve", "twistor", "--n", "-6..16", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "382fc5b41fa2ce38b6053f4de59a30501229173ac125f8684a55d7294b4e3936"


def test_twistor_powers_extend_once_under_concurrent_embeddings(monkeypatch):
    import sys
    import threading

    from curvecoh import presentation

    u = presentation._TWISTOR_U
    monkeypatch.setattr(presentation, "_TWISTOR_POWERS", [u.power(0)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so unguarded appends would interleave
    start = threading.Barrier(6)
    seen = []

    def worker(order):
        embed = presentation.twistor_embedding()
        start.wait()
        seen.extend((i, embed(i)) for i in order)

    orders = [range(1, 80, 2), range(79, 0, -2)] * 3
    threads = [threading.Thread(target=worker, args=(o,)) for o in orders]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    powers = presentation._TWISTOR_POWERS
    assert len(powers) == 41
    assert all(w == u.power(p) for p, w in enumerate(powers))
    assert len(seen) == 6 * 40 and all(w is powers[(i + 1) // 2] for i, w in seen)


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
        exps = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]  # repeats: the last one wins
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
    pres = load_presentation(GAUSSIAN_SCALED, name="gauss-scaled", verify_degree=2)
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


def _reference_check_ring_map(pres, window, max_degree):
    """Every ordered basis product as a window product, compared with ``combine``."""
    from curvecoh.presentation import combine

    basis = pres.basis_up_to(max_degree)
    for i in basis:
        for j in basis:
            if pres.degree_of(i) + pres.degree_of(j) > max_degree:
                continue
            lhs = window(i) * window(j)
            rhs = combine(window, pres.mul_basis(i, j))
            if not lhs.agrees_with(rhs):
                raise EmbeddingNotRingMap(
                    f"{pres.name}: embed({pres.label(i)})*embed({pres.label(j)}) "
                    f"!= embed of the product: {lhs} vs {rhs}"
                )


def _outcome(check, pres, window, max_degree):
    try:
        check(pres, window, max_degree)
    except EmbeddingNotRingMap as exc:
        return str(exc)
    return None


def _same_outcome(pres, window, max_degree):
    from curvecoh.presentation import check_ring_map

    ours = _outcome(check_ring_map, pres, window, max_degree)
    assert ours == _outcome(_reference_check_ring_map, pres, window, max_degree)
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
        mul_fn=lambda i, j: {i + j: scales[i] * scales[j] / scales[i + j]},
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


def test_integer_ring_map_check_matches_with_gaussian_constants():
    pres = _gaussian_constants_presentation()
    rules = pres._mul
    for i, j in ((1, 2), (3, 3), (0, 5), (4, 4)):
        def perturbed(a, b, i=i, j=j):
            rule = rules(a, b)
            if (a, b) == (i, j):
                return {k: s + GaussianRational(Fraction(0), Fraction(1, 7)) for k, s in rule.items()}
            return rule

        pres._mul = perturbed
        message = _same_outcome(pres, pres.embed_basis, 8)
        assert message.startswith(f"gaussian-constants: embed(b{i})*embed(b{j}) != ")
    pres._mul = rules


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


def test_ring_map_checks_both_orders_when_the_rules_differ(p1_file):
    # t1*t2 and t2*t1 share the window product but not the rule
    with pytest.raises(EmbeddingNotRingMap, match=r"embed\(t2\)\*embed\(t1\) != "):
        load_presentation(p1_file(6, lambda k: k) + "\nmul t2 t1 = 1*t2")


# ---------------------------------------------------------------------------
# mutation: one perturbed window numerator at the top degree a result reads
# ---------------------------------------------------------------------------


def _benchmark_curve_text() -> str:
    """The rescaled twistor file of the benchmark's seed-1 cohomology sweep (degrees 0..14)."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses look their module up by name
    return workloads.build("cohomology-sweep", 1).curve_text


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
