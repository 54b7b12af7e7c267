"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line with its runtime; budgets are the
stated per-criterion wall-clock limits. All comparisons are exact
equality (the library has no floating point anywhere).
"""

import random
import time
from fractions import Fraction

from curvecoh import cohomology as coh
from curvecoh.harbater import (
    CertifiedSeries,
    RationalFn,
    divide_exact,
    evaluate,
    membership,
)
from curvecoh.periodic import (
    TwoPeriodicPresentation,
    hfp_degree_zero,
    rebase_round_trip,
    tate_degree_zero,
)
from curvecoh.presentation import p1_presentation, twistor_presentation
from curvecoh.scalars import (
    GaussianRational,
    parse_gaussian,
    rational_tps,
    theta,
)
from curvecoh.section_ring import build_section_ring, degree_one_generation, hilbert_function
from curvecoh.series import LaurentWindow, gaussian_window
from curvecoh.harbater import local_completion

from conftest import intervals_overlap

SEED = 20250811  # fixed seed for every randomized suite below


def _report(num: int, label: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"PASS criterion {num}: {label} ({elapsed:.3f}s < {budget}s)")


def test_criterion_1_projective_line_tables():
    start = time.perf_counter()
    p1 = p1_presentation()
    for n in range(-5, 6):
        res = coh.compute(p1, n)
        assert res.dims == (max(n + 1, 0), max(-n - 1, 0))
        if n >= 0:
            labels = sorted(p1.element_label(v) for v in res.h0_basis)
            expected = sorted(["1"] + [f"t^{i}" if i > 1 else "t" for i in range(1, n + 1)])
            assert labels == expected
        else:
            reps = sorted(str(w) for w in res.h1_basis)
            assert reps == sorted(f"t^{m}" for m in range(-1, n, -1))
    _report(1, "P^1 H^0/H^1 tables with monomial bases, n in [-5, 5]", start, 1.0)


def test_criterion_2_twistor_tables():
    start = time.perf_counter()
    tw = twistor_presentation()
    for n in range(-5, 6):
        res = coh.compute(tw, n)
        assert res.dims == (2 * n + 1 if n >= 0 else 0, -2 * n - 1 if n < 0 else 0)
        graded = coh.graded_pieces(res)
        if n >= 0:
            expected = {0: (1, 0), **{m: (2, 0) for m in range(1, n + 1)}}
        else:
            expected = {**{m: (0, 2) for m in range(n + 1, 0)}, 0: (0, 1)}
        assert graded == expected
    _report(2, "twistor H^0/H^1 dimensions and graded pieces, n in [-5, 5]", start, 2.0)


def test_criterion_3_section_rings():
    start = time.perf_counter()
    sr_p1 = build_section_ring(p1_presentation(), 8)
    sr_tw = build_section_ring(twistor_presentation(), 8)
    assert hilbert_function(sr_p1) == [n + 1 for n in range(9)]
    assert hilbert_function(sr_tw) == [2 * n + 1 for n in range(9)]
    rep_p1 = degree_one_generation(sr_p1)
    rep_tw = degree_one_generation(sr_tw)
    assert all(rep_p1.surjective[n] for n in range(1, 9))
    assert all(rep_tw.surjective[n] for n in range(1, 9))
    assert all(d == 0 for d in rep_p1.kernel_dims.values())
    assert rep_tw.kernel_dims[2] == 1
    assert rep_tw.kernel_generators[2] == [{"u*u": "1", "v*v": "1", "1*1": "1"}]
    _report(3, "section rings: Hilbert functions, generation, the quadric (D = 8)", start, 5.0)


def test_criterion_4_pipeline():
    cases = {
        "1": (rational_tps([1], 16), 1),
        "1+xi": (rational_tps([1, 1], 16), 1),
        "2": (rational_tps([2], 16), 1),
        "xi": (rational_tps([0, 1], 16), 2),
        "xi*(1+xi)": (rational_tps([0, 1, 1], 16), 2),
    }
    for name, (f, jump) in cases.items():
        start = time.perf_counter()
        pres = TwoPeriodicPresentation(f=f)
        model = tate_degree_zero(pres, 16)
        image = hfp_degree_zero(pres, 16)
        assert model.jump_index == jump, name
        assert image.image_equals_fil0(), name
        assert image.injective(), name
        ident = rebase_round_trip(model)
        for j in range(13):  # identity up to O(xi^12) and beyond
            assert ident.coeffs[j] == (1 if j == 1 else 0), (name, j)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"pipeline case {name} exceeded 1s"
    print("PASS criterion 4: pipeline image/injectivity/jump/rebase for all five f (each < 1s)")


def test_criterion_5_dream_assembly():
    start = time.perf_counter()
    tw, p1 = twistor_presentation(), p1_presentation()
    for x in (Fraction(1, 3), parse_gaussian("i/2")):
        completion = local_completion(x, Fraction(1, 2), 16)
        model = tate_degree_zero(completion.base_presentation(), 16)
        for pres, embed in (
            (tw, coh.twistor_formal_embedding(model)),
            (p1, coh.p1_formal_embedding(model)),
        ):
            ns = range(-3, 4)
            for n, assembled in zip(ns, coh.curve_from_parts(pres, model, embed, ns), strict=True):
                direct = coh.compute(pres, n)
                assert assembled.dims == direct.dims, (str(x), pres.name, n)
                assert assembled.graded == direct.graded, (str(x), pres.name, n)
    _report(5, "dream assembly reproduces both curves for x in {1/3, i/2}, n in [-3, 3]", start, 5.0)


def test_criterion_6_harbater_suite():
    start = time.perf_counter()
    geom = RationalFn([1], [1, -1])
    geom2 = RationalFn([1], [1, -2])
    quad = RationalFn([1], [1, 0, 4])
    r = Fraction(1, 2)
    assert membership(geom, r).status == "member"
    assert membership(geom2, r).status == "not_member"
    for poly in ([-7, 0, 0, 1], [1], [0, 1], [5, -3, 0, 0, 2]):
        assert membership(RationalFn(poly), r).status == "member"
    # divisions with 50-coefficient round trips
    q = divide_exact(RationalFn([-1, 0, 9]), [-1, 3], r)
    assert q == RationalFn([1, 3])
    assert (q * RationalFn([-1, 3])).series_prefix(50) == RationalFn(
        [-1, 0, 9]
    ).series_prefix(50)
    f = geom - Fraction(3, 2)
    q = divide_exact(f, [-1, 3], r)
    assert q == RationalFn([Fraction(1, 2)], [1, -1])
    assert (q * RationalFn([-1, 3])).series_prefix(50) == f.series_prefix(50)
    try:
        divide_exact(geom, [-1, 3], r)
        raise AssertionError("expected NotDivisible")
    except Exception as exc:
        assert type(exc).__name__ == "NotDivisible"
    # recurrence coefficients match closed forms for 200 terms
    assert geom.series_prefix(200) == [Fraction(1)] * 200
    assert geom2.series_prefix(200) == [Fraction(2) ** k for k in range(200)]
    assert quad.series_prefix(200) == [
        Fraction(-4) ** (k // 2) if k % 2 == 0 else Fraction(0) for k in range(200)
    ]
    _report(6, "Harbater membership, divisions, 200-term recurrences", start, 2.0)


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = random.Random(SEED)

    def rand_window():
        lo = rng.randint(-4, 0)
        hi = rng.randint(0, 3)
        return LaurentWindow(
            {e: Fraction(rng.randint(-3, 3)) for e in range(lo, hi + 1)}, None
        )

    for _ in range(200):  # series ring laws
        a, b, c = rand_window(), rand_window(), rand_window()
        assert ((a * b) * c).agrees_with(a * (b * c))
        assert (a * (b + c)).agrees_with(a * b + a * c)

    for _ in range(200):  # valuation law for pole_order
        a = gaussian_window({rng.randint(-3, 3): rng.randint(1, 5)})
        b = gaussian_window({rng.randint(-3, 3): rng.randint(1, 5)})
        assert (a * b).pole_order() == a.pole_order() + b.pole_order()
        s = a + b
        if s.coeffs:
            assert s.pole_order() <= max(a.pole_order(), b.pole_order())

    for _ in range(200):  # Fil multiplicativity
        n, m = rng.randint(-3, 3), rng.randint(-3, 3)
        a = gaussian_window({e: 1 for e in range(rng.randint(-4, n), n + 1)})
        b = gaussian_window({e: 1 for e in range(rng.randint(-4, m), m + 1)})
        assert (a * b).fil_member(n + m)

    for _ in range(200):  # theta multiplicativity
        f = rational_tps([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)], 5)
        g = rational_tps([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)], 5)
        assert theta(f * g) == theta(f) * theta(g)

    r = Fraction(1, 2)
    for _ in range(200):  # evaluate multiplicativity within intervals
        f = CertifiedSeries([Fraction(rng.randint(-3, 3)) for _ in range(6)], 0, C=3, s=1)
        g = CertifiedSeries([Fraction(rng.randint(-3, 3)) for _ in range(6)], 0, C=3, s=1)
        x = GaussianRational(
            Fraction(rng.randint(-2, 2), 8), Fraction(rng.randint(-2, 2), 8)
        )
        assert intervals_overlap(evaluate(f * g, x, r), evaluate(f, x, r) * evaluate(g, x, r))

    _report(7, f"property suites, 200 cases each, seed {SEED}", start, 10.0)
