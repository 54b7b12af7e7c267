"""Windowed Laurent series in t^-1 over an exact field.

A ``LaurentWindow`` stores exact coefficients for t-exponents from some
cutoff up to its top; everything below the cutoff is unknown, error
O(t^(cutoff-1)). A window with cutoff None is fully exact (certified
zero below its stored terms). A window is a guarantee, never an
approximation: all stored coefficients are exact, unknownness lives only
below the cutoff, and that makes every comparison within windows
decidable.

Pole order at infinity (the top exponent) is the grading used everywhere
downstream: Fil_n is the set of windows with pole order <= n.

A window over Q(i) is stored as one integer form, the layout of FLINT's
``fmpq_poly``: a denominator ``den`` > 0 over integer numerators ``terms``
= (re, im), sorted lists [(exponent, int)] of the nonzero real and
imaginary parts, in lowest terms as ``scalars.cleared_terms`` gives them,
so equal windows have equal forms. Products convolve the numerators
(``scalars.integer_product``); sums, scalings and comparisons accumulate
them over one denominator (``linear_combination``). Coefficients are built
only when read (``coeffs``): GaussianRational when ``gaussian`` is set,
Fraction otherwise. A coefficient outside Q(i) is refused at construction
with a TypeError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IndeterminateTop, ZeroInverse
from .scalars import (GaussianRational, TruncatedPowerSeries, cleared_terms, form_combination,
                      form_values, format_term, integer_parts, integer_product, outside_q_i,
                      reduced_form)

#: pole order of the zero series
MINUS_INFINITY = float("-inf")


class LaurentWindow:
    """Exact coefficients c_e * t^e for cutoff <= e <= top, as integers over one denominator."""

    __slots__ = ("den", "terms", "gaussian", "cutoff", "_coeffs")

    def __init__(self, coeffs: dict, cutoff: int | None = None):
        clean = {}
        for e, c in coeffs.items():
            if cutoff is not None and e < cutoff:
                raise ValueError(f"coefficient at t^{e} below cutoff {cutoff}")
            if c != 0 or not isinstance(c, (int, Fraction, GaussianRational)):
                clean[int(e)] = c  # a zero outside Q(i) too, for cleared_terms to refuse
        form = cleared_terms(clean)
        if form is None:
            raise outside_q_i(clean.values())
        self.cutoff = cutoff
        self.den, self.terms, self.gaussian = form
        self._coeffs = None

    @classmethod
    def from_integers(cls, den: int, re: dict, im: dict, cutoff=None, gaussian=True):
        """The window (re[e] + i*im[e])/den (den > 0) at the exponents e >= cutoff, in lowest terms."""
        w = cls.__new__(cls)
        w.den, w.terms = reduced_form(den, re, im, lo=cutoff)
        w.gaussian = gaussian
        w.cutoff = cutoff
        w._coeffs = None
        return w

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentWindow":
        return cls({}, None)

    @classmethod
    def monomial(cls, e: int, c) -> "LaurentWindow":
        """c*t^e, exact: its integer form read off the one Q(i) scalar c."""
        if (parts := integer_parts([c])) is None:
            raise outside_q_i([c])
        den, (x,), (y,), gaussian = parts
        return cls.from_integers(den, {e: x}, {e: y}, None, gaussian and bool(x or y))

    # -- structure --------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """{exponent: coefficient}, GaussianRational for a Gaussian window, else Fraction.

        Built from the numerators on first read and kept.
        """
        if self._coeffs is None:
            self._coeffs = form_values(self.den, self.terms, self.gaussian)
        return self._coeffs

    @property
    def is_exact(self) -> bool:
        return self.cutoff is None

    @property
    def is_certified_zero(self) -> bool:
        return self.is_exact and self.top is None

    @property
    def top(self):
        """Largest stored exponent; None when no nonzero coefficient is tracked."""
        tops = [part[-1][0] for part in self.terms if part]
        return max(tops) if tops else None

    def _effective_top(self) -> int | float:
        """Sound upper bound for any nonzero exponent (known or not)."""
        top = self.top
        if top is not None:
            return top
        if self.cutoff is None:
            return MINUS_INFINITY
        return self.cutoff - 1

    def coefficient(self, e: int):
        if self.cutoff is not None and e < self.cutoff:
            raise IndeterminateTop(f"coefficient at t^{e} below cutoff {self.cutoff}")
        return self.coeffs.get(e, Fraction(0))

    def pole_order(self):
        """Top exponent, MINUS_INFINITY for certified zero.

        Raises IndeterminateTop when the window is zero down to a finite
        cutoff but not certified zero.
        """
        top = self.top
        if top is not None:
            return top
        if self.cutoff is None:
            return MINUS_INFINITY
        raise IndeterminateTop(
            f"window is zero above O(t^{self.cutoff - 1}) but not certified zero"
        )

    def fil_member(self, n: int) -> bool:
        """Membership in Fil_n = {pole order <= n}."""
        return self.pole_order() <= n

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentWindow):
            return NotImplemented
        return linear_combination([(1, self), (1, other)])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentWindow):
            return self.scale(other)
        if self.is_certified_zero or other.is_certified_zero:
            return LaurentWindow.zero()
        cutoff = self.product_cutoff(other)
        re, im = integer_product(self.terms, other.terms, cutoff)
        return LaurentWindow.from_integers(
            self.den * other.den, re, im, cutoff, self.gaussian or other.gaussian
        )

    def product_cutoff(self, other: "LaurentWindow"):
        """The cutoff of self * other, None when the product is exact.

        The unknown region of a factor reaches down to its cutoff plus the
        other factor's top, so the product is known from the larger such sum
        up; a certified-zero factor makes the product exact.
        """
        exact = self.cutoff is None and other.cutoff is None
        if exact or self.is_certified_zero or other.is_certified_zero:
            return None
        return max(a.cutoff + b._effective_top() for a, b in ((self, other), (other, self))
                   if a.cutoff is not None)

    def scale(self, c):
        return linear_combination([(c, self)])

    def __eq__(self, other):
        if not isinstance(other, LaurentWindow):
            return NotImplemented
        return (self.cutoff, self.den, self.terms) == (other.cutoff, other.den, other.terms)

    def __hash__(self):
        raise TypeError("LaurentWindow is unhashable")

    def agrees_with(self, other: "LaurentWindow") -> bool:
        """Equality of all coefficients on the common guaranteed window."""
        if self.cutoff is None and other.cutoff is None:
            return self == other
        return not any((self - other).terms)

    def power(self, k: int) -> "LaurentWindow":
        if k < 0:
            raise ValueError("use inverse() for negative powers")
        if k == 0:
            return LaurentWindow.from_integers(1, {0: 1}, {}, None, self.gaussian)
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    def inverse(self, prec: int) -> "LaurentWindow":
        """Multiplicative inverse, guaranteed for exponents >= prec.

        The leading term must be exactly known; the result has top equal
        to minus the top of self. With self = t^m * s(t^-1), the inverse is
        t^-m / s(t^-1): one ``TruncatedPowerSeries.inverse`` of s, whose
        coefficient at t^(-m-k) reads s down to t^(m-k), so a window cut
        at c determines it down to t^(c-2m). An exact monomial stays exact.
        """
        m = self.top
        if m is None:
            if self.is_certified_zero:
                raise ZeroInverse("inverse of the zero series")
            raise IndeterminateTop("leading term not exactly known")
        prec = min(prec, -m)  # the result's top is -m; never clip it away
        cutoff = prec if self.cutoff is None else max(prec, self.cutoff - 2 * m)
        re, im = ({m - e: x for e, x in part} for part in self.terms)
        s = TruncatedPowerSeries.from_integers(self.den, re, im, -m - cutoff + 1, self.gaussian)
        inv = s.inverse()
        if self.cutoff is None and {e for part in self.terms for e, _ in part} == {m}:
            cutoff = None
        return LaurentWindow.from_integers(
            inv.den, *({-m - k: x for k, x in part} for part in inv.terms), cutoff, inv.gaussian
        )

    def clip(self, cutoff: int) -> "LaurentWindow":
        """Forget everything below ``cutoff`` (weaker guarantee, same exactness)."""
        if self.is_certified_zero:
            return self
        new_cut = cutoff if self.cutoff is None else max(cutoff, self.cutoff)
        return LaurentWindow.from_integers(self.den, *map(dict, self.terms), new_cut, self.gaussian)

    # -- i/o -----------------------------------------------------------------

    def __str__(self):
        coeffs = self.coeffs
        parts = [format_term(coeffs[e], "t", e) for e in sorted(coeffs, reverse=True)]
        if self.cutoff is not None:
            parts.append(f"O(t^{self.cutoff - 1})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"LaurentWindow({self})"

    def to_json(self):
        coeffs = self.coeffs
        return {
            "terms": [[e, str(coeffs[e])] for e in sorted(coeffs, reverse=True)],
            "cutoff": self.cutoff,
        }

    @classmethod
    def from_json(cls, data) -> "LaurentWindow":
        from .scalars import parse_gaussian

        coeffs = {int(e): parse_gaussian(c) for e, c in data["terms"]}
        return cls(coeffs, data["cutoff"])


def linear_combination(pairs) -> LaurentWindow:
    """The sum of c * w over ``pairs`` [(c, w)], c in Q(i): one integer accumulation.

    The numerators add up by ``scalars.form_combination``; the result is
    known down to the largest cutoff of the windows.
    """
    cutoff = max((w.cutoff for _, w in pairs if w.cutoff is not None), default=None)
    den, re, im, gaussian = form_combination(pairs)
    return LaurentWindow.from_integers(den, re, im, cutoff, gaussian)


def gaussian_window(terms: dict) -> LaurentWindow:
    return LaurentWindow({e: GaussianRational.of(c) for e, c in terms.items()})
