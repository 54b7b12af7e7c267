"""Graded section rings: Hilbert functions, generation, the quadric."""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

import curvecoh.section_ring as section_ring
from curvecoh.cohomology import h0
from curvecoh.errors import CutoffTooSmall, EmbeddingNotRingMap, NotInSpan, NotStabilized
from curvecoh.linalg import kernel_basis
from curvecoh.presentation import load_presentation, p1_presentation, twistor_presentation
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


@pytest.fixture(scope="module")
def rings(rescaled_twistor_file):
    """The twistor line, p1 and a file curve with Gaussian coefficients, at the bench degrees."""
    file_curve = load_presentation(rescaled_twistor_file(10, Fraction(3, 2)), name="file")
    return {
        "twistor": build_section_ring(twistor_presentation(), 9),
        "p1": build_section_ring(p1_presentation(), 14),
        "file": build_section_ring(file_curve, 8),
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
    with pytest.raises(NotInSpan):
        # t^2 does not lie in P_1
        sr_p1.express(1, {2: sr_p1.pres.pair.base_one()})


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


def test_generation_reports_are_unchanged(rings):
    for name, sr in rings.items():
        assert _generation_digest(sr) == GENERATION_DIGESTS[name], name


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
    for name, sr in rings.items():
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
    solves = _counting(monkeypatch, section_ring, "solve_in_span")
    kernels = _counting(monkeypatch, section_ring, "kernel_basis")
    sr = build_section_ring(twistor_presentation(), 6)
    assert [args[1:] for args in h0_calls] == [(6, 6)]
    degree_one_generation(sr)
    assert len(kernels) == 6 and solves == []


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
    with pytest.raises(CutoffTooSmall, match=r"declares degrees up to 6; .* got D=9$"):
        build_section_ring(pres, 9)


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

