"""Built-in curve presentations and the declarative loader."""

from fractions import Fraction

import pytest

from curvecoh.errors import EmbeddingNotRingMap
from curvecoh.presentation import (
    load_presentation,
    p1_presentation,
    twistor_presentation,
)
from curvecoh.scalars import GAUSSIAN_I, GaussianRational
from curvecoh.series import gaussian_window


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
