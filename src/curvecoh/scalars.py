"""Exact coefficient arithmetic.

Three scalar kinds are provided, all immutable and exact:

* Gaussian rationals ``GaussianRational`` (the field Q(i)), with plain
  ``fractions.Fraction`` playing the role of Q;
* p-adic numbers ``PAdic`` with capped relative precision (a value is a
  unit times p^v, known modulo p^(v+N));
* truncated power series ``TruncatedPowerSeries`` over either of the
  above, a_0 + a_1*xi + ... + a_{M-1}*xi^{M-1} + O(xi^M), with the
  evaluation map ``theta`` (xi -> 0).

A ``FieldPair`` records which subfield linear algebra is done over: the
twistor computations use Q inside Q(i) (coordinates split into real and
imaginary parts), the complex projective line uses Q(i) itself.

Products of truncated power series over Q and Q(i) run through
``exact_product``: each operand's denominators are cleared once
(``cleared_terms``, also the stored form of a Laurent window in ``series``
and the source of ``linalg``'s integer rows) and the numerators are
convolved as Python ints (``integer_product``, which window products call
on their stored numerators), schoolbook, with one division per output
coefficient. Series over the p-adics, or any other coefficient kind, use
the generic coefficient loop. Quotients of power series
(``TruncatedPowerSeries.inverse`` and the series expansions and divisions
in ``harbater``) run through one recurrence, ``series_quotient``, in the
coefficients' own arithmetic.
"""

from __future__ import annotations

import re as _re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .errors import DivisionByZero, NotAUnit, PrecisionExhausted


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    im = getattr(x, "im", None)
    if im is not None and im == 0:
        return x.re  # a Gaussian rational that happens to be real
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class GaussianRational:
    """An element a + b*i of Q(i), a and b exact rationals."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(as_fraction(x), Fraction(0))

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.of(other)
        n2 = o.norm_squared
        if n2 == 0:
            raise DivisionByZero("division by zero in Q(i)")
        return self * GaussianRational(o.re / n2, -o.im / n2)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    @property
    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def norm_squared(self) -> Fraction:
        """|z|^2 = re^2 + im^2, always an exact rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        return GaussianRational(Fraction(1), Fraction(0)) / self

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        imag = f"{abs(self.im)}*i" if abs(self.im) != 1 else "i"
        if self.re == 0:
            return imag if self.im > 0 else "-" + imag
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


GAUSSIAN_ZERO = GaussianRational(Fraction(0), Fraction(0))
GAUSSIAN_ONE = GaussianRational(Fraction(1), Fraction(0))
GAUSSIAN_I = GaussianRational(Fraction(0), Fraction(1))

_IMAG_TERM = _re.compile(r"^([+-]?)(?:(\d+(?:/\d+)?)\*?)?i(?:/(\d+))?$")
_REAL_TERM = _re.compile(r"^([+-]?\d+(?:/\d+)?)$")


def parse_gaussian(text: str) -> GaussianRational:
    """Parse "a/b", "a/b+c/d*i", "i/2", "-i", "3-2*i" into an exact Q(i) value."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Gaussian rational")
    # split into top-level terms at +/- signs (keeping the sign)
    terms, cur = [], ""
    for idx, ch in enumerate(s):
        if ch in "+-" and idx > 0 and s[idx - 1] not in "+-*/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    re_part, im_part = Fraction(0), Fraction(0)
    try:
        for term in terms:
            m = _IMAG_TERM.match(term)
            if m:
                sign = -1 if m.group(1) == "-" else 1
                mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
                if m.group(3):
                    mag /= int(m.group(3))
                im_part += sign * mag
                continue
            m = _REAL_TERM.match(term)
            if m:
                re_part += Fraction(m.group(1))
                continue
            raise ValueError(f"cannot parse Gaussian rational term {term!r} in {text!r}")
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in Gaussian rational {text!r}") from None
    return GaussianRational(re_part, im_part)


@dataclass(frozen=True)
class FieldPair:
    """A coefficient field pair k0 inside k1 = k0(i).

    ``split`` selects how a k1 scalar is written in k0 coordinates: the
    pair (Q, Q(i)) splits z into (re, im); the trivial pair (Q(i), Q(i))
    keeps z as a single coordinate. Everything downstream (kernels,
    ranks, dimensions) is k0-linear algebra.
    """

    name: str
    split: bool

    @property
    def coord_count(self) -> int:
        return 2 if self.split else 1

    def base_zero(self):
        return Fraction(0) if self.split else GAUSSIAN_ZERO

    def base_one(self):
        return Fraction(1) if self.split else GAUSSIAN_ONE


#: Q sitting inside Q(i): the "real inside complex" pair of the twistor line.
REAL_IN_GAUSSIAN = FieldPair("Q<Q(i)", split=True)
#: Q(i) over itself: the coefficient pair of the complex projective line.
GAUSSIAN_PAIR = FieldPair("Q(i)", split=False)


# ---------------------------------------------------------------------------
# p-adic numbers with capped relative precision
# ---------------------------------------------------------------------------


class PAdic:
    """u * p^v known modulo p^(v+n), u a unit modulo p.

    Zeros come in two flavours: the exact zero, and the inexact zero
    O(p^m) produced by cancellation, whose valuation is unknown.
    Arithmetic never reports digits beyond what the operands certify.
    """

    __slots__ = ("p", "v", "unit", "n")

    def __init__(self, p: int, v, unit, n: int):
        self.p = p
        self.v = v
        self.unit = unit
        self.n = n

    # -- constructors -------------------------------------------------

    @classmethod
    def exact_zero(cls, p: int) -> "PAdic":
        return cls(p, None, None, 0)

    @classmethod
    def inexact_zero(cls, p: int, abs_prec: int) -> "PAdic":
        return cls(p, abs_prec, None, 0)

    @classmethod
    def from_int(cls, value: int, p: int, prec: int) -> "PAdic":
        if value == 0:
            return cls.exact_zero(p)
        v = 0
        while value % p == 0:
            value //= p
            v += 1
        return cls(p, v, value % p**prec, prec)

    @classmethod
    def from_fraction(cls, value: Fraction, p: int, prec: int) -> "PAdic":
        value = as_fraction(value)
        return cls.from_int(value.numerator, p, prec) / cls.from_int(
            value.denominator, p, prec
        )

    # -- structure ----------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.unit is None and self.v is None

    @property
    def is_zero(self) -> bool:
        """No certified nonzero digit (exact or inexact zero)."""
        return self.unit is None

    @property
    def abs_prec(self):
        """Exponent m such that the value is known modulo p^m (None = exact)."""
        if self.is_exact_zero:
            return None
        if self.unit is None:
            return self.v
        return self.v + self.n

    def digits(self):
        """The n base-p digits of the unit part, lowest first."""
        if self.unit is None:
            return []
        u, out = self.unit, []
        for _ in range(self.n):
            out.append(u % self.p)
            u //= self.p
        return out

    # -- arithmetic ---------------------------------------------------

    def _check(self, other) -> "PAdic":
        if isinstance(other, int):
            other = PAdic.from_int(other, self.p, max(self.n, 1))
        if not isinstance(other, PAdic):
            raise TypeError("p-adic arithmetic requires both operands p-adic")
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")
        return other

    @classmethod
    def _normalize(cls, p: int, p_pow_num: int, v_shift: int, abs_prec: int) -> "PAdic":
        """Build from an integer numerator * p^v_shift known mod p^abs_prec."""
        m = abs_prec - v_shift
        if m <= 0:
            return cls.inexact_zero(p, abs_prec)
        val = p_pow_num % p**m
        if val == 0:
            return cls.inexact_zero(p, abs_prec)
        v = 0
        while val % p == 0:
            val //= p
            v += 1
        n = m - v
        return cls(p, v + v_shift, val % p**n, n)

    def __add__(self, other):
        other = self._check(other)
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        ap = min(self.abs_prec, other.abs_prec)
        shift = min(self.v, other.v)
        total = 0
        for x in (self, other):
            if x.unit is not None:
                total += x.unit * x.p ** (x.v - shift)
        return PAdic._normalize(self.p, total, shift, ap)

    def __neg__(self):
        if self.unit is None:
            return self
        return PAdic(self.p, self.v, (-self.unit) % self.p**self.n, self.n)

    def __sub__(self, other):
        other = self._check(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        if self.is_exact_zero or other.is_exact_zero:
            return PAdic.exact_zero(self.p)
        if self.unit is None or other.unit is None:
            # O(p^a) * (u*p^v + ...) = O(p^(a+v)); for two inexact zeros the bounds add
            return PAdic.inexact_zero(self.p, self.v + other.v)
        n = min(self.n, other.n)
        return PAdic(
            self.p, self.v + other.v, (self.unit * other.unit) % self.p**n, n
        )

    def __truediv__(self, other):
        other = self._check(other)
        if other.is_exact_zero:
            raise DivisionByZero("p-adic division by exact zero")
        if other.unit is None:
            raise PrecisionExhausted(
                "divisor is an inexact zero: valuation unknown, no certified digits"
            )
        if self.is_exact_zero:
            return self
        if self.unit is None:
            return PAdic.inexact_zero(self.p, self.v - other.v)
        n = min(self.n, other.n)
        inv = pow(other.unit, -1, self.p**n)
        return PAdic(self.p, self.v - other.v, (self.unit * inv) % self.p**n, n)

    def __rmul__(self, other):
        return self * other

    __radd__ = __add__

    def __eq__(self, other):
        """Indistinguishable at the coarser of the two precisions."""
        if isinstance(other, int):
            other = PAdic.from_int(other, self.p, max(self.n, 1) + abs(self.v or 0) + 1)
        if not isinstance(other, PAdic):
            return NotImplemented
        if self.p != other.p:
            return False
        diff = self - other
        return diff.unit is None

    def __hash__(self):
        raise TypeError("PAdic values compare up to precision and are unhashable")

    def __str__(self):
        if self.is_exact_zero:
            return "0"
        if self.unit is None:
            return f"O({self.p}^{self.v})"
        terms = []
        for j, d in enumerate(self.digits()):
            if d == 0:
                continue
            e = self.v + j
            if e == 0:
                terms.append(f"{d}")
            elif e == 1:
                terms.append(f"{d}*{self.p}")
            else:
                terms.append(f"{d}*{self.p}^{e}")
        terms.append(f"O({self.p}^{self.abs_prec})")
        return " + ".join(terms)

    def __repr__(self):
        return f"PAdic({self})"


# ---------------------------------------------------------------------------
# generic scalar helpers
# ---------------------------------------------------------------------------

Scalar = Union[Fraction, GaussianRational, PAdic]


def is_zero_scalar(c) -> bool:
    """Certified-exact zero test (an inexact p-adic zero is not 'zero')."""
    if isinstance(c, PAdic):
        return c.is_exact_zero
    if isinstance(c, GaussianRational):
        return not c
    return c == 0


def is_unit_scalar(c) -> bool:
    if isinstance(c, PAdic):
        return c.unit is not None
    return not is_zero_scalar(c)


# ---------------------------------------------------------------------------
# exact products over Python ints
# ---------------------------------------------------------------------------


def integer_parts(values):
    """Clear the denominators of a sequence of int, Fraction and GaussianRational.

    Returns (den, re, im, gaussian): ``den`` is the least common denominator
    of all real and imaginary parts, ``re[k] + i*im[k] == den*values[k]``
    with Python ints, and ``gaussian`` tells whether any value is a
    GaussianRational (which fixes the output type of ``linalg`` and of the
    series products). Returns None when some value is of another kind.
    """
    re, im = [], []
    gaussian = False
    for x in values:
        if isinstance(x, GaussianRational):
            gaussian = True
            re.append(x.re.as_integer_ratio())
            im.append(x.im.as_integer_ratio())
        elif isinstance(x, (Fraction, int)):
            re.append(x.as_integer_ratio())
            im.append((0, 1))
        else:
            return None
    den = lcm(*{d for _, d in re}, *{d for _, d in im})
    if den == 1:
        return 1, [n for n, _ in re], [n for n, _ in im], gaussian
    return (
        den,
        [n * (den // d) for n, d in re],
        [n * (den // d) for n, d in im],
        gaussian,
    )


def outside_q_i(values) -> TypeError:
    """A TypeError naming the first of ``values`` outside Q(i) (int, Fraction, GaussianRational)."""
    bad = next(x for x in values if not isinstance(x, (int, Fraction, GaussianRational)))
    return TypeError(f"coefficients must be int, Fraction or GaussianRational: {bad!r}")


def _convolve_into(out: dict, a: list, b: list, lo, hi) -> None:
    """out[e] += x*y over terms (e1, x) of a and (e2, y) of b with e = e1+e2 in [lo, hi).

    Both term lists hold nonzero ints; ``b`` is sorted by exponent, so the
    admissible partners of each term of ``a`` are one slice of it. A bound
    of None is no bound.
    """
    if not a or not b:
        return
    exps = [e for e, _ in b]
    get = out.get
    for e1, x in a:
        s = 0 if lo is None else bisect_left(exps, lo - e1)
        t = len(exps) if hi is None else bisect_left(exps, hi - e1)
        for e2, y in b[s:t]:
            e = e1 + e2
            out[e] = get(e, 0) + x * y


def cleared_terms(series: dict):
    """(den, (re, im), gaussian): ``integer_parts`` of a series {exponent: coefficient}.

    ``re`` and ``im`` hold the nonzero numerators as [(exponent, int)], sorted.
    """
    parts = integer_parts(series.values())
    if parts is None:
        return None
    den, re, im, gaussian = parts
    return den, tuple(sorted((e, x) for e, x in zip(series, p) if x) for p in (re, im)), gaussian


def integer_product(a, b, lo=None, hi=None, out=None):
    """(a_re + i*a_im) * (b_re + i*b_im) as (re, im) dicts {exponent: int}, for lo <= e < hi.

    ``a`` and ``b`` are term lists (re, im) as ``cleared_terms`` gives; ``out`` accumulates.
    """
    (a_re, a_im), (b_re, b_im) = a, b
    re, im = out or ({}, {})
    _convolve_into(re, a_re, b_re, lo, hi)
    _convolve_into(re, [(e, -x) for e, x in a_im], b_im, lo, hi)
    _convolve_into(im, a_re, b_im, lo, hi)
    _convolve_into(im, a_im, b_re, lo, hi)
    return re, im


def exact_product(a: dict, b: dict, lo=None, hi=None):
    """The product of two sparse series {exponent: coefficient}, kept for lo <= e < hi.

    Each operand's denominators are cleared once (``cleared_terms``) and the
    numerators convolved as Python ints (``integer_product``). Each output
    coefficient is built once, over the product of the two denominators. It
    is a GaussianRational when any input coefficient is one, a Fraction
    otherwise.

    Returns (terms, zero): the nonzero coefficients by exponent and the
    zero of the output type. Returns None when a coefficient is not an
    int, Fraction or GaussianRational.
    """
    pa = cleared_terms(a)
    pb = None if pa is None else cleared_terms(b)
    if pb is None:
        return None
    (da, ta, ga), (db, tb, gb) = pa, pb
    re, im = integer_product(ta, tb, lo, hi)
    den = da * db
    if not (ga or gb):
        return {e: Fraction(x, den) for e, x in re.items() if x}, Fraction(0)
    out = {}
    for e in re.keys() | im.keys():
        x, y = re.get(e, 0), im.get(e, 0)
        if x or y:
            out[e] = GaussianRational(Fraction(x, den), Fraction(y, den))
    return out, GAUSSIAN_ZERO


def series_quotient(num, den, count: int) -> list:
    """The first ``count`` coefficients of the power series num/den.

    ``num`` and ``den`` are coefficient sequences, lowest degree first, and
    den[0] must be invertible. Each coefficient comes from the recurrence
    q[k] = (num[k] - sum_{j>=1} den[j]*q[k-j]) / den[0], run in the
    coefficients' own arithmetic (p-adic series too), dividing by den[0]
    as a product with one/den[0].
    """
    one = den[0] / den[0]
    inv0 = one / den[0]
    zero = den[0] * 0
    out = []
    for k in range(count):
        acc = num[k] if k < len(num) else zero
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[j] * out[k - j]
        out.append(inv0 * acc)
    return out


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


class TruncatedPowerSeries:
    """a_0 + a_1*xi + ... + a_{M-1}*xi^{M-1} + O(xi^M) over an exact field.

    The order M is carried per value and shrinks under binary operations
    (min rule), so every stored coefficient is exact.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs)
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        if len(coeffs) < order:
            zero = coeffs[0] * 0 if coeffs else Fraction(0)
            coeffs += [zero] * (order - len(coeffs))
        self.coeffs = tuple(coeffs[:order])
        self.order = order

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, c, order: int) -> "TruncatedPowerSeries":
        return cls([c], order)

    @classmethod
    def variable(cls, one, order: int) -> "TruncatedPowerSeries":
        """The series xi, with 1 represented by ``one`` of the target field."""
        return cls([one * 0, one], order)

    # -- ring structure ---------------------------------------------------

    @property
    def zero_coeff(self):
        return self.coeffs[0] * 0

    def _binop_order(self, other):
        return min(self.order, other.order)

    def __add__(self, other):
        other = self._coerce(other)
        m = self._binop_order(other)
        return TruncatedPowerSeries(
            [self.coeffs[j] + other.coeffs[j] for j in range(m)], m
        )

    def __sub__(self, other):
        other = self._coerce(other)
        m = self._binop_order(other)
        return TruncatedPowerSeries(
            [self.coeffs[j] - other.coeffs[j] for j in range(m)], m
        )

    def __neg__(self):
        return TruncatedPowerSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if not isinstance(other, TruncatedPowerSeries):
            return TruncatedPowerSeries(
                [c * other for c in self.coeffs], self.order
            )
        m = self._binop_order(other)
        product = exact_product(dict(enumerate(self.coeffs)), dict(enumerate(other.coeffs)), 0, m)
        if product is not None:
            terms, zero = product
            return TruncatedPowerSeries([terms.get(j, zero) for j in range(m)], m)
        # coefficients outside Q(i), e.g. p-adic: the generic loop
        out = [self.zero_coeff] * m
        for j, a in enumerate(self.coeffs[:m]):
            if is_zero_scalar(a):
                continue
            for k, b in enumerate(other.coeffs[: m - j]):
                out[j + k] = out[j + k] + a * b
        return TruncatedPowerSeries(out, m)

    def __rmul__(self, other):
        return self * other

    def _coerce(self, other) -> "TruncatedPowerSeries":
        if isinstance(other, TruncatedPowerSeries):
            return other
        return TruncatedPowerSeries.constant(self.zero_coeff + other, self.order)

    def __eq__(self, other):
        if not isinstance(other, TruncatedPowerSeries):
            other = self._coerce(other)
        m = min(self.order, other.order)
        return all(self.coeffs[j] == other.coeffs[j] for j in range(m))

    def __hash__(self):
        raise TypeError("TruncatedPowerSeries compares up to order and is unhashable")

    # -- series operations ------------------------------------------------

    def inverse(self) -> "TruncatedPowerSeries":
        """Multiplicative inverse; requires the constant term to be a unit."""
        a0 = self.coeffs[0]
        if not is_unit_scalar(a0):
            raise NotAUnit("constant term is not a unit")
        return TruncatedPowerSeries(series_quotient([a0 / a0], self.coeffs, self.order), self.order)

    def valuation(self):
        """xi-adic valuation of the tracked part; None if all tracked coefficients vanish."""
        for j, c in enumerate(self.coeffs):
            if not is_zero_scalar(c):
                return j
        return None

    def shift_up(self, k: int) -> "TruncatedPowerSeries":
        """Multiply by the exact monomial xi^k (order grows by k)."""
        return TruncatedPowerSeries(
            [self.zero_coeff] * k + list(self.coeffs), self.order + k
        )

    def shift_down(self, k: int) -> "TruncatedPowerSeries":
        """Divide by xi^k; the first k coefficients must vanish."""
        if any(not is_zero_scalar(c) for c in self.coeffs[:k]):
            raise ValueError("series not divisible by xi^k")
        return TruncatedPowerSeries(list(self.coeffs[k:]), self.order - k)

    def truncate(self, order: int) -> "TruncatedPowerSeries":
        return TruncatedPowerSeries(list(self.coeffs[:order]), min(order, self.order))

    def compose(self, inner: "TruncatedPowerSeries") -> "TruncatedPowerSeries":
        """self(inner(x)); ``inner`` must have zero constant term."""
        if not is_zero_scalar(inner.coeffs[0]):
            raise ValueError("composition requires inner constant term 0")
        m = min(inner.order, self.order * max(inner.valuation() or 1, 1))
        inner_t = inner.truncate(m)
        acc = TruncatedPowerSeries.constant(self.zero_coeff, m)
        for c in reversed(self.coeffs):
            acc = acc * inner_t + c
        return acc.truncate(m)

    def reversion(self) -> "TruncatedPowerSeries":
        """The compositional inverse g with self(g(x)) = x + O(x^order).

        Requires zero constant term and unit linear coefficient. Lagrange
        inversion: with h = xi/self = self.shift_down(1).inverse(),
        [xi^n] g = (1/n) * [xi^(n-1)] h^n, and the powers h^n are built by
        successive multiplication, so this costs O(order) series
        multiplications instead of one composition per coefficient.
        Dividing by n needs characteristic 0, which holds for every caller
        (coefficients in Q or Q(i)); over the p-adics a division by an n
        divisible by p would lose precision.
        """
        if not is_zero_scalar(self.coeffs[0]):
            raise ValueError("reversion requires zero constant term")
        if self.order < 2 or not is_unit_scalar(self.coeffs[1]):
            if self.order < 2:
                # nothing to determine at order 1
                return TruncatedPowerSeries([self.zero_coeff], 1)
            raise NotAUnit("reversion requires a unit linear coefficient")
        h = self.shift_down(1).inverse()
        g = [self.zero_coeff, h.coeffs[0]]
        h_n = h
        for n in range(2, self.order):
            h_n = h_n * h
            g.append(h_n.coeffs[n - 1] / n)
        return TruncatedPowerSeries(g, self.order)

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if is_zero_scalar(c):
                continue
            cs = str(c)
            if any(op in cs[1:] for op in "+-") or "*" in cs:
                cs = f"({cs})"
            if j == 0:
                parts.append(cs)
            elif j == 1:
                parts.append(f"{cs}*xi" if cs != "1" else "xi")
            else:
                parts.append(f"{cs}*xi^{j}" if cs != "1" else f"xi^{j}")
        parts.append(f"O(xi^{self.order})")
        return " + ".join(parts)

    def __repr__(self):
        return f"TruncatedPowerSeries({self})"

    def to_json(self):
        return {"coeffs": [str(c) for c in self.coeffs], "order": self.order}


def theta(f: TruncatedPowerSeries):
    """Evaluation at xi = 0; a ring map whose kernel is (xi)."""
    return f.coeffs[0]


def rational_tps(coeffs, order: int) -> TruncatedPowerSeries:
    return TruncatedPowerSeries([as_fraction(c) for c in coeffs], order)


def gaussian_tps(coeffs, order: int) -> TruncatedPowerSeries:
    return TruncatedPowerSeries([GaussianRational.of(c) for c in coeffs], order)


def primitive_integer_poly(coeffs) -> list[int]:
    """Clear denominators and divide by the content; [] stays []."""
    _, ints, _, _ = integer_parts([as_fraction(c) for c in coeffs])
    content = gcd(*ints)
    if content == 0:
        return ints
    return [c // content for c in ints]
