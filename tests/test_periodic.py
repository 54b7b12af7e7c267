"""The degree-zero extraction pipeline on two-periodic presentations."""

import random
from fractions import Fraction

import pytest

from curvecoh.errors import IndeterminateTop, PrecisionExhausted, ZeroBott
from curvecoh.linalg import rank
from curvecoh.periodic import (
    DegreeZeroImage,
    FilteredRingModel,
    TwoPeriodicPresentation,
    hfp_degree_zero,
    nygaard_fil,
    pipeline_trace,
    rebase_round_trip,
    tate_degree_zero,
    trivial_action_model,
)
from curvecoh.scalars import (
    GAUSSIAN_ONE,
    GaussianRational,
    TruncatedPowerSeries,
    gaussian_tps,
    rational_tps,
    theta,
)
from curvecoh.series import LaurentWindow

M = 16


def _cases():
    return {
        "1": rational_tps([1], M),
        "1+xi": rational_tps([1, 1], M),
        "2": rational_tps([2], M),
        "xi": rational_tps([0, 1], M),
        "xi*(1+xi)": rational_tps([0, 1, 1], M),
    }


def test_jump_index_is_valuation_plus_one():
    for a in (0, 1, 2):
        f = rational_tps([0] * a + [1, 1], M)
        model = tate_degree_zero(TwoPeriodicPresentation(f=f), M)
        assert model.jump_index == a + 1


def test_tau_equals_xi_for_f_one():
    model = tate_degree_zero(TwoPeriodicPresentation(f=rational_tps([1], M)), M)
    assert model.parameter_name == "tau"
    assert model.parameter_expression == rational_tps([0, 1], M + 1)
    assert model.reversion == rational_tps([0, 1], M + 1)


def test_reversion_for_one_plus_xi():
    # tau = xi + xi^2; oracle: substitute back and get the identity
    model = tate_degree_zero(TwoPeriodicPresentation(f=rational_tps([1, 1], M)), M)
    assert list(model.reversion.coeffs[:6]) == [0, 1, -1, 2, -5, 14]
    back = model.parameter_expression.compose(model.reversion)
    assert all(c == (1 if j == 1 else 0) for j, c in enumerate(back.coeffs))


def test_divided_bott_keeps_xi_carrier():
    model = tate_degree_zero(TwoPeriodicPresentation(f=rational_tps([0, 1], M)), M)
    assert model.jump_index == 2
    assert model.parameter_name == "xi"
    # tau = xi^2
    assert model.parameter_expression == rational_tps([0, 0, 1], M + 1)


def test_rebase_round_trip_identity():
    for name, f in _cases().items():
        model = tate_degree_zero(TwoPeriodicPresentation(f=f), M)
        rt = rebase_round_trip(model)
        for j in range(min(13, rt.order)):
            assert rt.coeffs[j] == (1 if j == 1 else 0), (name, j)


def test_hfp_image_equals_fil0_and_injective():
    for name, f in _cases().items():
        image = hfp_degree_zero(TwoPeriodicPresentation(f=f), M)
        assert image.image_equals_fil0(), name
        assert image.injective(), name


def test_injectivity_at_every_precision():
    for m in (2, 4, 8, 16):
        image = hfp_degree_zero(TwoPeriodicPresentation(f=rational_tps([1, 1], m)), m)
        assert image.injective()


def test_image_membership():
    image = hfp_degree_zero(TwoPeriodicPresentation(f=rational_tps([1], M)), M)
    # tau^-1 has a pole, so it is not in the image
    assert not image.contains(image.model.monomial(1))
    assert image.contains(image.model.monomial(0))
    assert image.contains(image.model.monomial(-3))


def test_residue_is_theta():
    image = hfp_degree_zero(TwoPeriodicPresentation(f=rational_tps([1, 1], M)), M)
    for coeffs in ([3, 5, 7], [1], [0, 2, 0, 4]):
        a = rational_tps(coeffs, M)
        assert image.model.residue(image.expand(a)) == theta(a)


def test_expand_base_of_geometric_series():
    # a = 1/(1-xi) expanded in tau for f = 1: coefficients stay 1
    model = tate_degree_zero(TwoPeriodicPresentation(f=rational_tps([1], M)), M)
    w = model.expand_base(rational_tps([1] * M, M))
    for j in range(M):
        assert w.coefficient(-j) == 1
    assert w.cutoff == -(M - 1)


def _non_coordinate_model(m):
    """A hand-built model whose coordinate series xi^2 has zero linear term."""
    xi2 = rational_tps([0, 0, 1], m + 1)
    return FilteredRingModel(
        M=m, prec=m, jump_index=1, parameter_expression=xi2, unit_parameter=xi2,
        reversion=xi2, one=Fraction(1),
    )


def test_image_checks_fail_for_non_coordinate():
    for m in (2, 4, 9):
        image = DegreeZeroImage(model=_non_coordinate_model(m))
        assert image.injective() is False
        assert image.image_equals_fil0() is False
    # the only diagonal entry at M = 1 is [xi^0] reversion^0 = 1
    image = DegreeZeroImage(model=_non_coordinate_model(1))
    assert image.injective() is True and image.image_equals_fil0() is True


def _reference_injective(image) -> bool:
    """Full rank of the M x M matrix of the images of xi^0 .. xi^(M-1)."""
    m = image.model.M
    rows = [[image.expand(rational_tps([0] * j + [1], m)).coefficient(-k) for k in range(m)]
            for j in range(m)]
    return rank(rows) == m


def test_injective_agrees_with_the_rank_of_the_coefficient_matrix():
    rng = random.Random(5)
    images = [DegreeZeroImage(model=_non_coordinate_model(m)) for m in (1, 2, 5)]
    for m in (1, 2, 3, 6):
        for f in ([1, 1], [-1, 2, 1], [0, 1, 1], [0, 0, 3])[: m + 1]:  # f = 0 mod xi^m left out
            images.append(hfp_degree_zero(TwoPeriodicPresentation(f=rational_tps(f, m)), m))
        for _ in range(3):
            r = rational_tps([0, rng.choice([0, 1, Fraction(-2, 3)])]
                             + [rng.randint(-3, 3) for _ in range(m)], m + 1)
            model = FilteredRingModel(
                M=m, prec=m, jump_index=1, parameter_expression=r, unit_parameter=r,
                reversion=r, one=Fraction(1),
            )
            images.append(DegreeZeroImage(model=model))
    verdicts = [image.injective() for image in images]
    assert verdicts == [_reference_injective(image) for image in images]
    assert True in verdicts and False in verdicts


def test_injective_names_a_reversion_with_a_constant_term():
    r = rational_tps([Fraction(2, 3), 1, 1], 6)
    model = FilteredRingModel(
        M=5, prec=5, jump_index=1, parameter_expression=r, unit_parameter=r,
        reversion=r, one=Fraction(1),
    )
    with pytest.raises(ValueError, match=r"^the reversion must have constant term 0, not 2/3$"):
        DegreeZeroImage(model=model).injective()


def test_injective_needs_a_reversion_as_long_as_m():
    r = rational_tps([0, 1, 1], 3)
    model = FilteredRingModel(
        M=5, prec=5, jump_index=1, parameter_expression=r, unit_parameter=r,
        reversion=r, one=Fraction(1),
    )
    image = DegreeZeroImage(model=model)
    with pytest.raises(IndeterminateTop, match=r"known to O\(xi\^3\), need xi\^4"):
        image.injective()
    with pytest.raises(IndeterminateTop):
        image.image_equals_fil0()


def test_expand_base_equals_compose():
    rng = random.Random(11)

    def coeff(gaussian):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return GaussianRational(c, Fraction(rng.randint(-3, 3))) if gaussian else c

    for m in (4, 9, 16):
        models = [(_non_coordinate_model(m), False)]
        for gaussian in (False, True):
            f = (gaussian_tps if gaussian else rational_tps)(
                [1, coeff(gaussian), coeff(gaussian)], m)
            models.append((tate_degree_zero(TwoPeriodicPresentation(f=f), m), gaussian))
        for model, gaussian in models:
            for order in (m - 1, m, m + 2):
                a = (gaussian_tps if gaussian else rational_tps)(
                    [coeff(gaussian) for _ in range(order)], order)
                series = a.compose(model.reversion)
                want = LaurentWindow({-j: c for j, c in enumerate(series.coeffs)},
                                     cutoff=-(series.order - 1))
                got = model.expand_base(a)
                assert (got.coeffs, got.cutoff) == (want.coeffs, want.cutoff), (m, order)


def test_trivial_action_model():
    pres = trivial_action_model(GAUSSIAN_ONE)
    assert pres.M == 1 and pres.even
    assert (pres.degree_u, pres.degree_v) == (2, -2)
    model = tate_degree_zero(pres, 8)
    assert model.jump_index == 1
    assert model.prec == 8
    fil0 = nygaard_fil(model, 0)
    assert [str(w) for w in fil0.basis()[:3]] == ["1", "t^-1", "t^-2"]
    # Fil multiplicativity spot check on monomials
    for e1 in range(-3, 1):
        for e2 in range(-3, 1):
            w = model.monomial(e1) * model.monomial(e2)
            assert model.fil_member(w, 0)


def test_nygaard_fil_examples():
    model = tate_degree_zero(TwoPeriodicPresentation(f=rational_tps([1], M)), M)
    fil2 = nygaard_fil(model, 2)
    assert fil2.contains(model.monomial(2))
    assert not fil2.contains(model.monomial(3))
    assert fil2.gr_dimension() == 1
    for n in range(-3, 4):
        assert nygaard_fil(model, n).gr_dimension() == 1


def test_nygaard_fil_monotone():
    model = tate_degree_zero(TwoPeriodicPresentation(f=rational_tps([1], M)), M)
    w = model.monomial(-1)
    memberships = [model.fil_member(w, n) for n in range(-3, 3)]
    assert memberships == sorted(memberships)  # once in, always in


def test_nygaard_fil_precision():
    model = tate_degree_zero(TwoPeriodicPresentation(f=rational_tps([1], M)), 4)
    with pytest.raises(PrecisionExhausted):
        nygaard_fil(model, 7)


def test_divided_bott_fil_jumps():
    model = tate_degree_zero(TwoPeriodicPresentation(f=rational_tps([0, 1], M)), M)
    # Fil_1 = tau^-1 * k[[xi]] reaches pole order 2
    assert model.fil_pole_bound(1) == 2
    assert nygaard_fil(model, 1).gr_dimension() == 2
    assert model.fil_member(model.monomial(2), 1)
    assert not model.fil_member(model.monomial(3), 1)


def test_unit_rescale_filtered_isomorphism():
    # f and f*(unit) give identical Fil dimension tables per tau-degree
    for f1, f2 in (
        (rational_tps([1], M), rational_tps([1, 1], M)),
        (rational_tps([0, 1], M), rational_tps([0, 1, 1], M)),
    ):
        m1 = tate_degree_zero(TwoPeriodicPresentation(f=f1), M)
        m2 = tate_degree_zero(TwoPeriodicPresentation(f=f2), M)
        assert m1.jump_index == m2.jump_index
        for n in range(-3, 4):
            assert nygaard_fil(m1, n).gr_dimension() == nygaard_fil(m2, n).gr_dimension()
            assert m1.fil_pole_bound(n) == m2.fil_pole_bound(n)


def test_zero_bott():
    with pytest.raises(ZeroBott):
        tate_degree_zero(TwoPeriodicPresentation(f=rational_tps([0], 4)))


def test_gaussian_coefficients_supported():
    image = hfp_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1, 1], 8)), 8)
    assert image.image_equals_fil0() and image.injective()


def test_pipeline_trace_shape():
    trace = pipeline_trace(TwoPeriodicPresentation(f=rational_tps([1, 1], 8)), 8)
    assert trace["jump_index"] == 1
    assert trace["hfp_image_equals_fil0"] is True
    assert trace["injective"] is True
    assert trace["presentation"]["relation"] == "u*v = xi"
    assert "fil" in trace and trace["fil"]["0"]["gr_dim"] == 1


def test_pipeline_trace_makes_at_most_2m_series_products(monkeypatch):
    # M - 1 for the reversion's power chain, M + 1 for the round trip's Horner
    # composition; injectivity reads the reversion's linear coefficient
    products = []
    mul = TruncatedPowerSeries.__mul__

    def counting(self, other):
        if isinstance(other, TruncatedPowerSeries):
            products.append(self.order)
        return mul(self, other)

    monkeypatch.setattr(TruncatedPowerSeries, "__mul__", counting)
    for m in (2, 8, 24, 32):
        for f in (rational_tps([1, 1], m), rational_tps([-1, 2, 1], m), gaussian_tps([1, 1], m)):
            products.clear()
            assert pipeline_trace(TwoPeriodicPresentation(f=f), m)["injective"]
            assert len(products) <= 2 * m, (m, str(f))


def test_trivial_action_carrier_field():
    model = tate_degree_zero(trivial_action_model(GAUSSIAN_ONE), 6)
    one = model.monomial(0).coefficient(0)
    from curvecoh.scalars import GaussianRational

    assert isinstance(one, GaussianRational) and one == 1
    # rational base field variant
    from fractions import Fraction

    model_q = tate_degree_zero(trivial_action_model(Fraction(1)), 6)
    assert isinstance(model_q.monomial(0).coefficient(0), Fraction)
