"""Degree-zero extraction from two-periodic graded ring presentations.

A ``TwoPeriodicPresentation`` is the mock homotopy-ring datum behind a
formal disc: a base ring A = k[[xi]] mod xi^M with evaluation theta
(xi -> 0), generators u (degree 2) and v (degree -2) with u*v = xi on
the fixed-point side and u = xi*v^-1 on the Tate side, and a Bott
coefficient f in A, beta = f*u. Everything sits in even degrees, so the
pipeline below is exact symbolic bookkeeping:

1. invert the Bott element (beta*v = f*xi becomes the local parameter
   tau; inverting beta also inverts f);
2. complete with respect to the Nygaard filtration (v-adic on the Tate
   side, which on degree zero becomes the xi-adic filtration);
3. extract the degree-0 filtered subring.

The output ``FilteredRingModel`` is the Laurent field over k in the
parameter tau = t^-1, carried by exact windows, filtered by pole order.
When f = xi^a * unit with a > 0 (a divided Bott element), tau = f*xi has
valuation a+1 and is not a coordinate: the carrier keeps the parameter
xi and the filtration jumps in steps of jump_index = a+1. The rebase
machinery then works through the unit-normalized parameter
sigma = xi * (f / xi^a), which equals tau exactly when f is a unit.

The fixed-point side's degree 0 is A, mapped into the carrier by
``expand_base``: a goes to a when the carrier keeps xi and to
a(reversion), one Horner composition, otherwise. Only exponents <= 0 are
written, so the image lies in Fil_0 by construction, and the map is
triangular: xi^j goes to reversion^j, whose diagonal entry is r_1^j for
the linear coefficient r_1 of the reversion. So the map is injective
exactly when r_1 != 0 (or M < 2).

Convention: the Nygaard indexing is v-adic as stated above; a different
(homological) normalization would uniformly rescale the Fil indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndeterminateTop, PrecisionExhausted, ZeroBott
from .scalars import TruncatedPowerSeries
from .series import LaurentWindow


@dataclass
class TwoPeriodicPresentation:
    """A[u,v]/(uv - xi) and A[v^(+-1)] with beta = f*u, |u| = 2, |v| = -2."""

    f: TruncatedPowerSeries

    degree_u = 2
    degree_v = -2
    even = True

    @property
    def M(self) -> int:
        return self.f.order

    @property
    def one(self):
        return self.f.zero_coeff + 1

    def to_json(self) -> dict:
        return {
            "base": f"k[[xi]] mod xi^{self.M}",
            "f": str(self.f),
            "relation": "u*v = xi",
            "degrees": {"u": self.degree_u, "v": self.degree_v},
            "even": self.even,
        }


def trivial_action_model(one) -> TwoPeriodicPresentation:
    """The trivial-action, even case: A = R0 (M = 1), f = 1.

    The pipeline sends this to the Laurent field R0((t^-1)) with the
    t-adic filtration and t^-1 = beta*v, jump_index 1; its working window
    is the ``prec`` passed to ``tate_degree_zero``.
    """
    return TwoPeriodicPresentation(f=TruncatedPowerSeries([one * 0 + 1], 1))


@dataclass
class FilteredRingModel:
    """k((tau)) with Fil_n = {pole order <= n*jump_index}, tau = t^-1.

    ``parameter_expression`` records tau = f*xi as a series in xi;
    ``reversion`` expresses xi as a series in the unit-normalized
    parameter sigma = tau / xi^(jump_index-1). For jump_index 1 the
    carrier is genuinely re-based to tau; otherwise the carrier keeps
    the parameter xi and only the filtration sees tau.
    """

    M: int
    prec: int
    jump_index: int
    parameter_expression: TruncatedPowerSeries
    unit_parameter: TruncatedPowerSeries
    reversion: TruncatedPowerSeries
    one: object

    @property
    def parameter_name(self) -> str:
        return "tau" if self.jump_index == 1 else "xi"

    def fil_pole_bound(self, n: int) -> int:
        """Largest carrier pole order allowed in Fil_n."""
        return n * self.jump_index

    def fil_member(self, w: LaurentWindow, n: int) -> bool:
        return w.fil_member(self.fil_pole_bound(n))

    def expand_base(self, a: TruncatedPowerSeries) -> LaurentWindow:
        """The image of an A-element in the carrier.

        A linear map. For a unit Bott coefficient the xi-coordinate is
        re-expressed in tau by the reversion series: the image is
        a.compose(reversion). Otherwise the carrier parameter is xi itself
        and the image is a. The window's cutoff records how deep the
        expansion is certified.
        """
        if self.jump_index == 1:
            a = a.compose(self.reversion)
        re, im = ({-j: x for j, x in part} for part in a.terms)
        return LaurentWindow.from_integers(a.den, re, im, -(a.order - 1), a.gaussian)

    def residue(self, w: LaurentWindow):
        """Reduction at tau = 0 (the residue field of Fil_0)."""
        return w.coefficient(0)

    def monomial(self, e: int) -> LaurentWindow:
        """t^e as an exact carrier window."""
        return LaurentWindow.monomial(e, self.one)


def tate_degree_zero(
    pres: TwoPeriodicPresentation, prec: int | None = None
) -> FilteredRingModel:
    """Run the three-step pipeline on the Tate side A[v^(+-1)].

    Degree-0 of A[v^(+-1)][beta^-1] is A[(f*xi)^-1]; the v-adic (=xi-adic)
    completion gives the Laurent field, re-based to tau = beta*v = f*xi
    by series reversion when f is a unit.
    """
    if prec is None:
        prec = pres.M
    if prec < 1:
        raise ValueError("prec must be >= 1")
    f = pres.f
    a = f.valuation()
    if a is None:
        raise ZeroBott("f = 0: inverting beta = f*u would annihilate the ring")
    unit_part = f.shift_down(a) if a else f
    tau = f.shift_up(1)
    sigma = unit_part.shift_up(1)
    return FilteredRingModel(
        M=pres.M,
        prec=prec,
        jump_index=a + 1,
        parameter_expression=tau,
        unit_parameter=sigma,
        reversion=sigma.reversion(),
        one=pres.one,
    )


@dataclass
class DegreeZeroImage:
    """The fixed-point side's degree-0 ring mapped into the Tate model.

    The image is the 0th Nygaard stage Fil_0; the map is injective in
    the even case, read off the diagonal of its triangular matrix.
    """

    model: FilteredRingModel

    def expand(self, a: TruncatedPowerSeries) -> LaurentWindow:
        return self.model.expand_base(a)

    def contains(self, w: LaurentWindow) -> bool:
        """Membership in the image ( = Fil_0) as far as the window certifies."""
        return self.model.fil_member(w, 0)

    def image_equals_fil0(self) -> bool:
        """Image saturates every tracked coordinate t^0 .. t^-(M-1) of Fil_0.

        The image lies in Fil_0 by construction (``expand_base`` writes only
        exponents <= 0), so the verdict is injectivity.
        """
        return self.injective()

    def injective(self) -> bool:
        """Zero kernel of the A -> carrier coefficient map at this precision.

        The diagonal entries are 1 when the carrier keeps xi, otherwise
        [xi^j] reversion^j = r_1^j for j < M, since the reversion has zero
        constant term; they are all nonzero iff M < 2 or r_1 != 0.
        """
        if self.model.jump_index > 1:
            return True
        r, M = self.model.reversion, self.model.M
        if r.coeffs[0]:
            raise ValueError(f"the reversion must have constant term 0, not {r.coeffs[0]}")
        if r.order < M:
            raise IndeterminateTop(f"reversion known to O(xi^{r.order}), need xi^{M - 1}")
        return M < 2 or r.coeffs[1] != 0


def hfp_degree_zero(
    pres: TwoPeriodicPresentation, prec: int | None = None
) -> DegreeZeroImage:
    """Degree-0 of the fixed-point side, as a sub-object of the Tate model."""
    return DegreeZeroImage(model=tate_degree_zero(pres, prec))


@dataclass
class FiltrationSlice:
    """Fil_n of a model, clipped to the working window."""

    n: int
    model: FilteredRingModel

    def contains(self, w: LaurentWindow) -> bool:
        return self.model.fil_member(w, self.n)

    def basis(self) -> list:
        """Monomial generators t^e within the window, highest first."""
        top = self.model.fil_pole_bound(self.n)
        if -top > self.model.prec:
            return []
        return [self.model.monomial(e) for e in range(top, -self.model.prec - 1, -1)]

    def gr_dimension(self) -> int:
        """dim Fil_n / Fil_{n-1} over k (the jump size of the filtration)."""
        return self.model.jump_index


def nygaard_fil(model: FilteredRingModel, n: int) -> FiltrationSlice:
    if abs(n) * model.jump_index > model.prec:
        raise PrecisionExhausted(
            f"Fil_{n} exceeds the working window (prec={model.prec})"
        )
    return FiltrationSlice(n=n, model=model)


def rebase_round_trip(model: FilteredRingModel) -> TruncatedPowerSeries:
    """xi(sigma(xi)): identity up to the tracked order when the rebase is sound."""
    return model.reversion.compose(model.unit_parameter)


def pipeline_trace(pres: TwoPeriodicPresentation, prec: int | None = None) -> dict:
    """JSON-serializable record of one pipeline run."""
    model = tate_degree_zero(pres, prec)
    image = DegreeZeroImage(model=model)
    fil_table = {}
    for n in range(-min(3, model.prec // model.jump_index), min(3, model.prec // model.jump_index) + 1):
        fil_table[str(n)] = {
            "pole_bound": model.fil_pole_bound(n),
            "gr_dim": model.jump_index,
        }
    roundtrip = rebase_round_trip(model)
    return {
        "presentation": pres.to_json(),
        "beta_v": str(model.parameter_expression),
        "jump_index": model.jump_index,
        "carrier": f"k(({model.parameter_name}))",
        "reversion": str(model.reversion),
        "rebase_round_trip": str(roundtrip),
        "hfp_image_equals_fil0": image.image_equals_fil0(),
        "injective": image.injective(),
        "fil": fil_table,
    }
