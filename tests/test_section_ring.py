"""Graded section rings: Hilbert functions, generation, the quadric."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

import curvecoh.linalg as linalg
import curvecoh.section_ring as section_ring
from curvecoh.cohomology import h0
from curvecoh.errors import CutoffTooLarge, EmbeddingNotRingMap, NotInSpan, NotStabilized
from curvecoh.linalg import kernel_basis
from curvecoh.presentation import integer_element, load_presentation, p1_presentation, twistor_presentation
from curvecoh.scalars import GaussianRational
from curvecoh.section_ring import (
    build_section_ring,
    degree_one_generation,
    hilbert_function,
)


def projective_line_reference(D: int) -> list:
    """dim of degree-n forms in two variables: n+1."""
    return [n + 1 for n in range(D + 1)]


def quadric_quotient_reference(D: int) -> list:
    """dim_n of a polynomial ring in three variables modulo one quadric.

    binomial(n+2, 2) - binomial(n, 2) = 2n+1.
    """

    def binom2(k):
        return k * (k - 1) // 2

    return [binom2(n + 2) - binom2(n) for n in range(D + 1)]


@pytest.fixture(scope="module")
def sr_p1():
    return build_section_ring(p1_presentation(), 8)


@pytest.fixture(scope="module")
def sr_tw():
    return build_section_ring(twistor_presentation(), 8)


def _real_t_file(top: int) -> str:
    """Q[t] + i*t^2*Q[t] inside Q(i)[t] up to degree ``top``: p<d> = t^d, and q<d> = i*t^d for d >= 2.

    Degree 1 is {t} alone, so every monomial in P_1 = {1, t} is real and
    they span Q[t] only: the leading-coefficient certificate falls short in
    every degree from 2 on, and so does surjectivity.
    """
    basis = [("p", d) for d in range(top + 1)] + [("q", d) for d in range(2, top + 1)]
    lines = ["fields rational gaussian", "flags leading_exact"]
    lines += [f"basis {s}{d} {d}" for s, d in basis]
    for k, (s, a) in enumerate(basis):
        for r, b in basis[k:]:
            if a + b <= top:  # i*i = -1
                lines.append(f"mul {s}{a} {r}{b} = {'-1' if s == r == 'q' else '1'}*{'p' if s == r else 'q'}{a + b}")
    lines += [f"embed {s}{d} = {'1i' if s == 'q' else '1'}*t^{d}" for s, d in basis]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def sr_real_t():
    return build_section_ring(load_presentation(_real_t_file(8), name="real-t"), 8)


def _gaussian_scale(k):
    """lambda_k = (k+1) + i/(k+2): b_i*b_j = lambda_i*lambda_j/lambda_(i+j) * b_(i+j)."""
    return GaussianRational(Fraction(k + 1), Fraction(1, k + 2))


def _rational_scale(k):
    return Fraction(k + 2, 2 * k + 3)


@pytest.fixture(scope="module")
def rings(rescaled_twistor_file, p1_file):
    """The twistor line, p1 and three file curves, at the bench degrees.

    "file" has Gaussian embedding coefficients and structure constants +-1;
    "gaussian-p1" (k0 = Q(i)) and "rescaled-twistor" (k0 = Q) have rescaled
    bases, so their structure constants are non-unit Gaussian rationals and
    fractions.
    """
    file_curve = load_presentation(rescaled_twistor_file(10, Fraction(3, 2)), name="file")
    gaussian_p1 = load_presentation(p1_file(12, lambda k: k, _gaussian_scale), name="gaussian-p1")
    rescaled = load_presentation(
        rescaled_twistor_file(10, Fraction(3, 2), _rational_scale), name="rescaled-twistor"
    )
    return {
        "twistor": build_section_ring(twistor_presentation(), 9),
        "p1": build_section_ring(p1_presentation(), 14),
        "file": build_section_ring(file_curve, 8),
        "gaussian-p1": build_section_ring(gaussian_p1, 10),
        "rescaled-twistor": build_section_ring(rescaled, 8),
    }


def test_hilbert_functions(sr_p1, sr_tw):
    assert hilbert_function(sr_p1) == [n + 1 for n in range(9)]
    assert hilbert_function(sr_tw) == [2 * n + 1 for n in range(9)]


def test_reference_sequences_agree():
    assert projective_line_reference(8) == [n + 1 for n in range(9)]
    # binomial(n+2,2) - binomial(n,2) = 2n+1
    assert quadric_quotient_reference(8) == [2 * n + 1 for n in range(9)]


def test_degree_zero_is_spanned_by_one(sr_p1, sr_tw):
    for sr in (sr_p1, sr_tw):
        assert sr.dim(0) == 1
        assert sr.element_label(0, 0) == "1"


def test_p1_multiplication(sr_p1):
    # t in P_1 times t in P_1 lands on t^2 in P_2
    idx_t = [sr_p1.element_label(1, j) for j in range(sr_p1.dim(1))].index("t")
    coords = sr_p1.multiply(1, idx_t, 1, idx_t)
    labels = [sr_p1.element_label(2, j) for j in range(sr_p1.dim(2))]
    assert {l: str(c) for l, c in zip(labels, coords) if c != 0} == {"t^2": "1"}


def test_graded_commutativity_and_associativity(sr_tw):
    sr = sr_tw
    for m, n in itertools.product(range(3), repeat=2):
        if m + n > 6:
            continue
        for a in range(sr.dim(m)):
            for b in range(sr.dim(n)):
                assert sr.multiply(m, a, n, b) == sr.multiply(n, b, m, a)
    # associativity on degree-1 triples
    pres = sr.pres
    for a, b, c in itertools.product(range(sr.dim(1)), repeat=3):
        va, vb, vc = (sr.bases[1][k] for k in (a, b, c))
        left = pres.mul_elements(pres.mul_elements(va, vb), vc)
        right = pres.mul_elements(va, pres.mul_elements(vb, vc))
        assert sr.express(3, left) == sr.express(3, right)


def test_p1_generation_free_on_two_generators(sr_p1):
    report = degree_one_generation(sr_p1)
    assert all(report.surjective.values())
    assert all(d == 0 for d in report.kernel_dims.values())


def test_twistor_generation_one_quadric(sr_tw):
    report = degree_one_generation(sr_tw)
    assert all(report.surjective.values())
    for n in range(1, 9):
        assert report.kernel_dims[n] == n * (n - 1) // 2
    gens = report.kernel_generators[2]
    assert gens == [{"u*u": "1", "v*v": "1", "1*1": "1"}]


def test_generation_report_json(sr_tw):
    data = degree_one_generation(sr_tw).to_json()
    assert data["kernel_dims"]["2"] == 1
    assert data["surjective"]["8"] is True
    assert data["kernel_generators"]["2"] == [{"u*u": "1", "v*v": "1", "1*1": "1"}]


def test_express_outside_span_raises(sr_p1):
    one = sr_p1.pres.pair.base_one()
    with pytest.raises(NotInSpan, match=r"indices \[2\] outside the slice"):
        # t^2 does not lie in P_1
        sr_p1.express(1, {2: one})
    # a basis that misses an element of the slice: 1 is not in the span of t
    partial = section_ring.SectionRing(pres=sr_p1.pres, D=1, bases=[[{0: one}], [{1: one}]])
    assert partial.express(1, {1: one * 3}) == [one * 3]
    with pytest.raises(NotInSpan, match=r"^product does not lie in P_1 \(presentation bug\): 3\+i\*1$"):
        partial.express(1, {0: GaussianRational(Fraction(3), Fraction(1))})


# sha256 of the reports of earlier implementations: the first three of one
# that rebuilt every monomial product from scratch, the last two of the
# Fraction products and the dense kernel_basis elimination per degree
GENERATION_DIGESTS = {
    "twistor": "5f8addaecfbc6c3ba05a2bcabf017fb6b80f38a6ed6c17f5b55ad6fec85f4dd6",
    "p1": "63329bc79783df67030ed82965afddd47b4a079b25363beadacdac9ff2084fdf",
    "file": "4a16ca15eb9fb5c2b1d09d006390d61e7e91b50a1c46a344be5e7340131b431b",
    "gaussian-p1": "c0084d80812721e44997c32587cbe8f2443ba743947cd6d652b585302c4cb2b7",
    "rescaled-twistor": "64625e6fbabc80036fec65306834498deb328b0e280e4edec0f2bc2c845396c5",
}


def _generation_digest(sr) -> str:
    report = degree_one_generation(sr)
    data = {"report": report.to_json(), "monomials": {str(n): m for n, m in report.monomials.items()}}
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_generation_reports_are_unchanged(rings):
    assert rings.keys() == GENERATION_DIGESTS.keys()
    for name, sr in rings.items():
        assert _generation_digest(sr) == GENERATION_DIGESTS[name], name


def _fraction_product(pres, a, b):
    """The product as the three-fold loop over structure constants in Fraction/GaussianRational arithmetic."""
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            for k, s in pres.mul_basis(i, j).items():
                out[k] = out.get(k, ca * 0) + ca * cb * s
    return {k: c for k, c in out.items() if c != 0}


def _seeded_element(rng, pres, top):
    """Up to four basis elements of degree <= top with seeded k0 coefficients (some zero).

    Over Q(i) a third of the elements have real coefficients, so some
    products are real and must still come back as GaussianRational.
    """
    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    indices = rng.sample(pres.basis_up_to(top), min(4, len(pres.basis_up_to(top))))
    one = pres.pair.base_one()
    real = pres.pair.split or rng.random() < 1 / 3
    return {i: one * (q() if real else GaussianRational(q(), q())) for i in indices}


def test_integer_products_match_the_fraction_loop(rings):
    rng = random.Random(13)
    outcomes = set()
    for name, sr in rings.items():
        pres = sr.pres
        for _ in range(40):
            a, b = (_seeded_element(rng, pres, sr.D // 2) for _ in range(2))
            expected = _fraction_product(pres, a, b)
            got = pres.mul_elements(a, b)
            assert got == expected, name
            assert [type(got[k]) for k in expected] == [type(c) for c in expected.values()], name
            # the integer form itself, read back by hand
            den, terms = pres.integer_product(integer_element(a), integer_element(b))
            assert {k: GaussianRational(Fraction(x, den), Fraction(y, den))
                    for k, (x, y) in terms.items()} == expected, name
            outcomes.add(den > 1)
    assert True in outcomes  # products with a denominator occur


def test_rescaled_rings_carry_denominators(rings):
    # the structure constants and the kernel entries of the rescaled curves are not +-1
    gaussian, rational = rings["gaussian-p1"].pres, rings["rescaled-twistor"].pres
    lam = _gaussian_scale
    assert gaussian.integer_product((1, {1: (1, 0)}), (1, {1: (1, 0)})) == integer_element(
        {2: lam(1) * lam(1) / lam(2)})
    # b1*b1 = 81/125*b3 in the file; (2/5 + 0i)*b1 squared gives 4/25 of it
    assert rational.integer_product((5, {1: (2, 0)}), (5, {1: (2, 0)})) == (3125, {3: (324, 0)})
    relations = degree_one_generation(rings["rescaled-twistor"]).kernel_generators[2]
    assert relations == [{"b1*b1": "100/81", "b2*b2": "49/36", "b0*b0": "1"}]


def test_bases_equal_each_degree_h0(rings):
    # the rows of H^0(O(D)) supported in degrees <= n are H^0(O(n))'s own echelon basis
    for name, sr in rings.items():
        for n in range(sr.D + 1):
            own = h0(sr.pres, n, n).h0_basis
            assert [list(v.items()) for v in sr.bases[n]] == [list(v.items()) for v in own], (name, n)


def _reference_generation(sr):
    """(surjective, kernel dims, degree <= 3 generators), each product first expressed in P_n."""
    pres = sr.pres
    zero, one = pres.pair.base_zero(), pres.pair.base_one()
    surjective, dims, gens = {}, {}, {}
    for n in range(1, sr.D + 1):
        monos = list(itertools.combinations_with_replacement(range(sr.dim(1)), n))
        coords = []
        for mono in monos:
            prod = sr.bases[1][mono[0]]
            for j in mono[1:]:
                prod = pres.mul_elements(prod, sr.bases[1][j])
            coords.append(sr.express(n, prod))
        kern = kernel_basis(list(zip(*coords)), len(monos), zero, one)
        surjective[n] = len(monos) - len(kern) == sr.dim(n)
        dims[n] = len(kern)
        if n <= 3:
            gens[n] = [
                {"*".join(sr.element_label(1, j) for j in monos[k]): str(c)
                 for k, c in enumerate(v) if c != 0}
                for v in kern
            ]
    return surjective, dims, gens


def test_generation_kernels_match_expressing_in_p_n(rings):
    # the leading-coefficient certificate decides every degree >= 4 of the larger rings too
    larger = {"twistor D=12": build_section_ring(twistor_presentation(), 12),
              "p1 D=20": build_section_ring(p1_presentation(), 20)}
    for name, sr in {**rings, **larger}.items():
        report = degree_one_generation(sr)
        got = (report.surjective, report.kernel_dims, report.kernel_generators)
        assert got == _reference_generation(sr), name


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_h0_per_ring_and_one_elimination_per_degree(monkeypatch):
    h0_calls = _counting(monkeypatch, section_ring, "h0")
    kernels = _counting(monkeypatch, section_ring, "kernel_vectors")
    forward = _counting(monkeypatch, section_ring, "pivot_columns")
    dense = [_counting(monkeypatch, linalg, name) for name in ("rref", "kernel_basis", "solve_in_span")]
    sr = build_section_ring(twistor_presentation(), 6)
    assert [args[1:] for args in h0_calls] == [(6, 6)]
    degree_one_generation(sr)
    # degrees 1..3 list the kernel; in 4..6 the leading coefficients certify the rank
    assert len(kernels) == 3 and len(forward) == 0
    assert dense == [[], [], []]


def test_build_keeps_certification_errors(rescaled_twistor_file, p1_file):
    uncertified = load_presentation(
        rescaled_twistor_file(6, Fraction(3, 2)).replace("flags leading_exact", "")
    )
    with pytest.raises(NotStabilized, match=r"^H\^0\(O\(0\)\) is not certified; cannot build P_0$"):
        build_section_ring(uncertified, 4)
    # t8 -> t^7 breaks leading_exact at degree 8, past the load-time checks
    bad = load_presentation(p1_file(10, lambda k: 7 if k == 8 else k))
    assert hilbert_function(build_section_ring(bad, 7)) == [n + 1 for n in range(8)]
    with pytest.raises(EmbeddingNotRingMap, match=r"pole_order\(embed\(t8\)\) != 8 \(degree 8\)"):
        build_section_ring(bad, 8)


def test_build_rejects_degrees_past_the_declared_top(rescaled_twistor_file):
    pres = load_presentation(rescaled_twistor_file(6, Fraction(3, 2)))
    assert hilbert_function(build_section_ring(pres, 6)) == quadric_quotient_reference(6)
    with pytest.raises(CutoffTooLarge, match=r"declares degrees up to 6; .* got D=9$"):
        build_section_ring(pres, 9)


def test_generation_multiplies_once_per_monomial(sr_tw, sr_real_t, monkeypatch):
    # a monomial is its prefix times one more factor, in integer form, and only where
    # no certificate gives the rank: degrees 2..3 on twistor, every degree >= 2 on real-t
    for sr, top in ((sr_tw, 3), (sr_real_t, sr_real_t.D)):
        products = _counting(monkeypatch, sr.pres, "integer_product")
        fraction_products = _counting(monkeypatch, sr.pres, "mul_elements")
        report = degree_one_generation(sr)
        assert len(products) == sum(len(report.monomials[n]) for n in range(2, top + 1))
        assert fraction_products == []


def test_short_certificate_falls_back_to_the_forward_pass(sr_real_t, monkeypatch):
    assert hilbert_function(sr_real_t) == [1, 2, 4, 6, 8, 10, 12, 14, 16]
    forward = _counting(monkeypatch, section_ring, "pivot_columns")
    report = degree_one_generation(sr_real_t)
    assert len(forward) == sr_real_t.D - 3  # one per degree 4..D
    assert report.surjective == {n: n == 1 for n in range(1, 9)}
    assert report.kernel_dims == {n: 0 for n in range(1, 9)}
    assert (report.surjective, report.kernel_dims, report.kernel_generators) == _reference_generation(sr_real_t)


def test_degrees_outside_the_ring_raise():
    small = build_section_ring(p1_presentation(), 4)
    one = small.pres.pair.base_one()
    calls = {-1: (small.dim, -1), 5: (small.dim, 5), -2: (small.element_label, -2, 0),
             6: (small.express, 6, {0: one})}
    for degree, (call, *args) in calls.items():
        with pytest.raises(ValueError, match=rf"^degree {degree} outside the ring's degrees 0\.\.4$"):
            call(*args)
    with pytest.raises(ValueError, match=r"^degree -1 outside"):
        small.multiply(-1, 0, 1, 0)
    with pytest.raises(ValueError, match=r"^product degree 5 exceeds ring cutoff 4$"):
        small.multiply(2, 0, 3, 0)
