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

Window products clear each factor's denominators once and convolve
Python ints (``scalars.exact_product``), keeping only the exponents the
convolution-precision rule certifies. Window coefficients are int,
Fraction or GaussianRational; a product of any other kind is a TypeError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IndeterminateTop, ZeroInverse
from .scalars import GaussianRational, exact_product, is_zero_scalar

#: pole order of the zero series
MINUS_INFINITY = float("-inf")


class LaurentWindow:
    """Exact coefficients c_e * t^e for cutoff <= e <= top."""

    __slots__ = ("coeffs", "cutoff")

    def __init__(self, coeffs: dict, cutoff: int | None = None):
        clean = {}
        for e, c in coeffs.items():
            if cutoff is not None and e < cutoff:
                raise ValueError(f"coefficient at t^{e} below cutoff {cutoff}")
            if not is_zero_scalar(c):
                clean[int(e)] = c
        self.coeffs = clean
        self.cutoff = cutoff

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentWindow":
        return cls({}, None)

    @classmethod
    def monomial(cls, e: int, c) -> "LaurentWindow":
        return cls({e: c}, None)

    @classmethod
    def constant(cls, c) -> "LaurentWindow":
        return cls({0: c}, None)

    # -- structure --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.cutoff is None

    @property
    def is_certified_zero(self) -> bool:
        return self.is_exact and not self.coeffs

    @property
    def top(self):
        """Largest stored exponent; None when no nonzero coefficient is tracked."""
        return max(self.coeffs) if self.coeffs else None

    def _effective_top(self) -> int | float:
        """Sound upper bound for any nonzero exponent (known or not)."""
        if self.coeffs:
            return max(self.coeffs)
        if self.cutoff is None:
            return MINUS_INFINITY
        return self.cutoff - 1

    def coefficient(self, e: int):
        if e in self.coeffs:
            return self.coeffs[e]
        if self.cutoff is not None and e < self.cutoff:
            raise IndeterminateTop(f"coefficient at t^{e} below cutoff {self.cutoff}")
        return Fraction(0)

    def pole_order(self):
        """Top exponent, MINUS_INFINITY for certified zero.

        Raises IndeterminateTop when the window is zero down to a finite
        cutoff but not certified zero.
        """
        if self.coeffs:
            return max(self.coeffs)
        if self.cutoff is None:
            return MINUS_INFINITY
        raise IndeterminateTop(
            f"window is zero above O(t^{self.cutoff - 1}) but not certified zero"
        )

    def fil_member(self, n: int) -> bool:
        """Membership in Fil_n = {pole order <= n}."""
        return self.pole_order() <= n

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _merge_cutoff(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return max(a, b)

    def __add__(self, other):
        if not isinstance(other, LaurentWindow):
            return NotImplemented
        cutoff = self._merge_cutoff(self.cutoff, other.cutoff)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, c * 0) + c
        if cutoff is not None:
            out = {e: c for e, c in out.items() if e >= cutoff}
        return LaurentWindow(out, cutoff)

    def __neg__(self):
        return LaurentWindow({e: -c for e, c in self.coeffs.items()}, self.cutoff)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentWindow):
            return self.scale(other)
        if self.is_certified_zero or other.is_certified_zero:
            return LaurentWindow.zero()
        cutoff = self.product_cutoff(other)
        product = exact_product(self.coeffs, other.coeffs, cutoff)
        if product is None:
            coeffs = (*self.coeffs.values(), *other.coeffs.values())
            bad = next(c for c in coeffs if not isinstance(c, (int, Fraction, GaussianRational)))
            raise TypeError(f"coefficients must be int, Fraction or GaussianRational: {bad!r}")
        return LaurentWindow(product[0], cutoff)

    def product_cutoff(self, other: "LaurentWindow"):
        """The cutoff of self * other (None: exact): unknown regions of a factor reach below it."""
        cutoff = None
        if self.cutoff is not None:
            cutoff = self.cutoff + other._effective_top()
        if other.cutoff is not None:
            c2 = other.cutoff + self._effective_top()
            cutoff = c2 if cutoff is None else max(cutoff, c2)
        return None if cutoff in (None, MINUS_INFINITY) else int(cutoff)

    def scale(self, c):
        return LaurentWindow({e: v * c for e, v in self.coeffs.items()}, self.cutoff)

    def __eq__(self, other):
        if not isinstance(other, LaurentWindow):
            return NotImplemented
        return self.cutoff == other.cutoff and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("LaurentWindow is unhashable")

    def agrees_with(self, other: "LaurentWindow") -> bool:
        """Equality of all coefficients on the common guaranteed window."""
        cutoff = self._merge_cutoff(self.cutoff, other.cutoff)
        exps = set(self.coeffs) | set(other.coeffs)
        for e in exps:
            if cutoff is not None and e < cutoff:
                continue
            if self.coeffs.get(e, 0) != other.coeffs.get(e, 0):
                return False
        return True

    def power(self, k: int) -> "LaurentWindow":
        if k < 0:
            raise ValueError("use inverse() for negative powers")
        if k == 0:
            if self.coeffs:
                c = next(iter(self.coeffs.values()))
                return LaurentWindow.constant(c / c)
            return LaurentWindow.constant(Fraction(1))
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    def inverse(self, prec: int) -> "LaurentWindow":
        """Multiplicative inverse, guaranteed for exponents >= prec.

        The leading term must be exactly known; the result has top equal
        to minus the top of self.
        """
        if not self.coeffs:
            if self.is_certified_zero:
                raise ZeroInverse("inverse of the zero series")
            raise IndeterminateTop("leading term not exactly known")
        m = max(self.coeffs)
        prec = min(prec, -m)  # the result's top is -m; never clip it away
        c = self.coeffs[m]
        lead_inv = LaurentWindow.monomial(-m, (c / c) / c)
        # r = 1 - a * lead_inv has top < 0; sum the geometric series,
        # letting clipped terms feed their uncertainty into the result
        r = LaurentWindow.constant(c / c) - self * lead_inv
        acc = LaurentWindow.constant(c / c)
        term = LaurentWindow.constant(c / c)
        while True:
            term = (term * r).clip(prec + m)
            acc = acc + term
            if not term.coeffs:
                break
        result = lead_inv * acc
        return result if acc.is_exact else result.clip(prec)

    def clip(self, cutoff: int) -> "LaurentWindow":
        """Forget everything below ``cutoff`` (weaker guarantee, same exactness)."""
        if self.is_certified_zero:
            return self
        new_cut = cutoff if self.cutoff is None else max(cutoff, self.cutoff)
        return LaurentWindow(
            {e: c for e, c in self.coeffs.items() if e >= new_cut}, new_cut
        )

    # -- i/o -----------------------------------------------------------------

    def __str__(self):
        if not self.coeffs and self.cutoff is None:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = str(self.coeffs[e])
            if any(op in c[1:] for op in "+-") or "*" in c:
                c = f"({c})"
            if e == 0:
                parts.append(c)
            elif e == 1:
                parts.append(f"{c}*t" if c != "1" else "t")
            else:
                parts.append(f"{c}*t^{e}" if c != "1" else f"t^{e}")
        if self.cutoff is not None:
            parts.append(f"O(t^{self.cutoff - 1})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"LaurentWindow({self})"

    def to_json(self):
        return {
            "terms": [[e, str(self.coeffs[e])] for e in sorted(self.coeffs, reverse=True)],
            "cutoff": self.cutoff,
        }

    @classmethod
    def from_json(cls, data) -> "LaurentWindow":
        from .scalars import parse_gaussian

        coeffs = {int(e): parse_gaussian(c) for e, c in data["terms"]}
        return cls(coeffs, data["cutoff"])


def pole_order(a: LaurentWindow):
    return a.pole_order()


def fil_member(a: LaurentWindow, n: int) -> bool:
    return a.fil_member(n)


def gaussian_window(terms: dict, cutoff: int | None = None) -> LaurentWindow:
    return LaurentWindow(
        {e: GaussianRational.of(c) for e, c in terms.items()}, cutoff
    )
