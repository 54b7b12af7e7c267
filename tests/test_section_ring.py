"""Graded section rings: Hilbert functions, generation, the quadric."""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from curvecoh.errors import NotInSpan
from curvecoh.presentation import load_presentation, p1_presentation, twistor_presentation
from curvecoh.scalars import GaussianRational
from curvecoh.section_ring import (
    build_section_ring,
    degree_one_generation,
    hilbert_function,
    projective_line_reference,
    quadric_quotient_reference,
)


@pytest.fixture(scope="module")
def sr_p1():
    return build_section_ring(p1_presentation(), 8)


@pytest.fixture(scope="module")
def sr_tw():
    return build_section_ring(twistor_presentation(), 8)


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
    with pytest.raises(NotInSpan):
        # t^2 does not lie in P_1
        sr_p1.express(1, {2: sr_p1.pres.pair.base_one()})


def _file_coeff(z: GaussianRational) -> str:
    """A Q(i) coefficient in the presentation file syntax (imaginary part as ``3/4i``)."""
    if z.im == 0:
        return str(z.re)
    imag = f"{z.im}i"
    return imag if z.re == 0 else f"{z.re}{'+' if z.im > 0 else ''}{imag}"


def _rescaled_twistor_file(top: int, c: Fraction) -> str:
    """The built-in twistor line up to degree ``top`` as a file, with t replaced by c*t."""
    tw = twistor_presentation()
    basis = tw.basis_up_to(top)
    lines = ["fields rational gaussian", "flags leading_exact"]
    lines += [f"basis b{i} {tw.degree_of(i)}" for i in basis]
    for a in basis:
        for b in basis:
            if a <= b and tw.degree_of(a) + tw.degree_of(b) <= top:
                rhs = " + ".join(f"{s}*b{k}" for k, s in tw.mul_basis(a, b).items())
                lines.append(f"mul b{a} b{b} = {rhs}")
    for i in basis:
        w = tw.embed_basis(i)
        terms = [f"{_file_coeff(w.coeffs[e] * c**e)}*t^{e}" for e in sorted(w.coeffs, reverse=True)]
        lines.append(f"embed b{i} = {' + '.join(terms)}")
    return "\n".join(lines)


# sha256 of the parent's reports (monomial products rebuilt from scratch)
GENERATION_DIGESTS = {
    "twistor": "5f8addaecfbc6c3ba05a2bcabf017fb6b80f38a6ed6c17f5b55ad6fec85f4dd6",
    "p1": "63329bc79783df67030ed82965afddd47b4a079b25363beadacdac9ff2084fdf",
    "file": "4a16ca15eb9fb5c2b1d09d006390d61e7e91b50a1c46a344be5e7340131b431b",
}


def _generation_digest(sr) -> str:
    report = degree_one_generation(sr)
    data = {"report": report.to_json(), "monomials": {str(n): m for n, m in report.monomials.items()}}
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_generation_reports_are_unchanged():
    file_curve = load_presentation(_rescaled_twistor_file(10, Fraction(3, 2)), name="file")
    for name, pres, D in (("twistor", twistor_presentation(), 9), ("p1", p1_presentation(), 14),
                          ("file", file_curve, 8)):
        assert _generation_digest(build_section_ring(pres, D)) == GENERATION_DIGESTS[name], name


def test_generation_multiplies_once_per_monomial(sr_tw, monkeypatch):
    calls = []
    mul_elements = sr_tw.pres.mul_elements

    def counting(a, b):
        calls.append(1)
        return mul_elements(a, b)

    monkeypatch.setattr(sr_tw.pres, "mul_elements", counting)
    report = degree_one_generation(sr_tw)
    # every monomial of degree >= 2 is its prefix times one more factor
    assert len(calls) == sum(len(report.monomials[n]) for n in range(2, sr_tw.D + 1))

