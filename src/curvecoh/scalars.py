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

A truncated power series over Q or Q(i) is stored as a Laurent window in
``series`` is, the layout of FLINT's ``fmpq_poly``: one denominator over
sparse integer numerators (re, im), in lowest terms (``cleared_terms``,
also the source of ``linalg``'s integer rows). Both carriers reduce, read
and add up that form through the same helpers here (``reduced_form``,
``form_values``, ``form_combination``). Products convolve the numerators
as Python ints (``integer_product``, schoolbook) and reduce once; shifts,
truncation, Horner composition, Lagrange reversion and the inverse's
quotient recurrence run on the numerators as well, and Fractions are
built only when a coefficient is read. That inverse is the one quotient
over Q(i): the Laurent window inverse in ``series`` and the expansions and
divisions in ``harbater`` go through it. Series over the p-adics, or any
other coefficient kind, keep their coefficients and use the generic
coefficient loop; their inverse runs the recurrence ``series_quotient`` in
the coefficients' own arithmetic.
"""

from __future__ import annotations

import re as _re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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

    @staticmethod
    def _operand(x):
        """``x`` as a GaussianRational if it is an int, Fraction or GaussianRational, else None.

        The operators return NotImplemented for None, so that the other
        operand's reflected operator runs (a series times a scalar, say).
        """
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(as_fraction(x), Fraction(0))
        return None

    def __add__(self, other):
        o = GaussianRational._operand(other)
        return NotImplemented if o is None else GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational._operand(other)
        return NotImplemented if o is None else GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = GaussianRational._operand(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = GaussianRational._operand(other)
        return NotImplemented if o is None else GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational._operand(other)
        if o is None:
            return NotImplemented
        n2 = o.norm_squared
        if n2 == 0:
            raise DivisionByZero("division by zero in Q(i)")
        return self * GaussianRational(o.re / n2, -o.im / n2)

    def __rtruediv__(self, other):
        o = GaussianRational._operand(other)
        return NotImplemented if o is None else o / self

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
#: the start of a term: a sign that none of ``+-*/^`` precedes
_TERM_START = _re.compile(r"(?<=[^+\-*/^])(?=[+-])")


def split_terms(s: str) -> list:
    """``s`` (spaces removed) cut into signed terms, as "3-2*i" into ["3", "-2*i"].

    A sign right after one of ``+-*/^`` belongs to the number that follows
    it, as in "1/-2" or "T^-1", and does not start a term.
    """
    return _TERM_START.split(s)


def gaussian_numerators(text: str) -> tuple:
    """(den, re, im) with den > 0 and text = (re + im*i)/den, parsed as ``parse_gaussian`` parses.

    Each term "a/b" or "a/b*i" (also "i/2", "-i") is added as integers, so
    no Fraction is built; ``den`` is a common denominator, not always the least.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Gaussian rational")
    den, re, im = 1, 0, 0
    for term in split_terms(s):
        imag = _IMAG_TERM.match(term)
        m = imag or _REAL_TERM.match(term)
        if not m:
            raise ValueError(f"cannot parse Gaussian rational term {term!r} in {text!r}")
        sign, mag, div = imag.groups() if imag else ("", m.group(1), None)
        num, _, d = (mag or "1").partition("/")
        num, d = int(sign + num), int(d or 1) * int(div or 1)
        if d == 0:
            raise ValueError(f"zero denominator in Gaussian rational {text!r}")
        # (re + i*im)/den + num/d, over den*d
        re, im = re * d, im * d
        if imag:
            im += num * den
        else:
            re += num * den
        den *= d
    return den, re, im


def parse_gaussian(text: str) -> GaussianRational:
    """Parse "a/b", "a/b+c/d*i", "i/2", "-i", "3-2*i" into an exact Q(i) value."""
    den, re, im = gaussian_numerators(text)
    return GaussianRational(Fraction(re, den), Fraction(im, den))


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


# ---------------------------------------------------------------------------
# the integer form of series and windows
# ---------------------------------------------------------------------------
# ``den`` > 0 over ``terms`` = (re, im), sorted lists [(exponent, int)] of the
# nonzero numerators, in lowest terms; ``gaussian`` picks the coefficient type.


def reduced_form(den: int, re: dict, im: dict, lo=None, hi=None) -> tuple:
    """(den, terms): (re[e] + i*im[e])/den in lowest terms, for lo <= e < hi (None: no bound)."""
    if lo is not None:
        re, im = ({e: x for e, x in part.items() if e >= lo} for part in (re, im))
    if hi is not None:
        re, im = ({e: x for e, x in part.items() if e < hi} for part in (re, im))
    g = gcd(den, *re.values(), *im.values())
    return den // g, tuple(sorted((e, x // g) for e, x in part.items() if x) for part in (re, im))


def form_values(den: int, terms, gaussian: bool) -> dict:
    """{exponent: coefficient} of the nonzero terms: GaussianRational if ``gaussian``, else Fraction."""
    re, im = (dict(part) for part in terms)
    if gaussian:
        return {e: GaussianRational(Fraction(re.get(e, 0), den), Fraction(im.get(e, 0), den))
                for e in sorted(re.keys() | im.keys())}
    return {e: Fraction(x, den) for e, x in re.items()}


def require_integer_form(*forms) -> None:
    """TypeError for the first of ``forms`` (series or windows) with a coefficient outside Q(i)."""
    for f in forms:
        if f.den is None:
            values = f.coeffs
            raise outside_q_i(values.values() if isinstance(values, dict) else values)


def form_combination(pairs) -> tuple:
    """(den, re, im, gaussian) of the sum of c*f over ``pairs`` [(c, f)], c in Q(i), f in integer form.

    One integer accumulation: each form's numerators are brought to the
    common denominator of all forms and scalars and multiplied by the
    scalar's numerator. The result is not reduced.
    """
    scalars = integer_parts([c for c, _ in pairs])
    if scalars is None:
        raise outside_q_i(c for c, _ in pairs)
    delta, s_re, s_im, gaussian = scalars
    forms = [f for _, f in pairs]
    require_integer_form(*forms)
    common = lcm(*(f.den for f in forms))
    out = ({}, {})
    for f, x, y in zip(forms, s_re, s_im):
        k = common // f.den
        integer_product(([(0, x * k)] if x else [], [(0, y * k)] if y else []), f.terms, out=out)
    return delta * common, *out, gaussian or any(f.gaussian for f in forms)


def common_denominator(values: dict) -> tuple:
    """(den, re, im): values {e: (d, x, y)}, each (x + i*y)/d, over den = lcm of the d."""
    den = lcm(*(d for d, _, _ in values.values()))
    return den, *({e: v[k] * (den // v[0]) for e, v in values.items()} for k in (1, 2))


def format_term(c, var: str, e: int) -> str:
    """c*var^e as series print it: a sum or product c in parentheses, a coefficient 1 left out."""
    cs = str(c)
    if any(op in cs[1:] for op in "+-") or "*" in cs:
        cs = f"({cs})"
    if e == 0:
        return cs
    mono = var if e == 1 else f"{var}^{e}"
    return mono if cs == "1" else f"{cs}*{mono}"


def gaussian_reciprocal(x: int, y: int) -> tuple:
    """(a, b, d) with 1/(x + i*y) = (a + i*b)/d and d > 0, for a nonzero Gaussian integer."""
    if y == 0:
        return (1 if x > 0 else -1), 0, abs(x)
    return x, -y, x * x + y * y


def series_quotient(num, den, count: int) -> list:
    """The first ``count`` coefficients of the power series num/den.

    ``num`` and ``den`` are coefficient sequences, lowest degree first, and
    den[0] must be invertible. Each coefficient comes from the recurrence
    q[k] = (num[k] - sum_{j>=1} den[j]*q[k-j]) / den[0], run in the
    coefficients' own arithmetic, dividing by den[0] as a product with
    one/den[0]. It is the inverse of series outside Q(i), such as p-adic
    ones; quotients over Q(i) go through ``TruncatedPowerSeries.inverse``.
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


#: the scalar kinds a series is added to, multiplied by or compared with
_SCALARS = (int, Fraction, GaussianRational, PAdic)


def _gmul(a, b):
    """The product of two Gaussian integers given as pairs (re, im)."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


class TruncatedPowerSeries:
    """a_0 + a_1*xi + ... + a_{M-1}*xi^{M-1} + O(xi^M) over an exact field.

    The order M is carried per value and shrinks under binary operations
    (min rule), so every stored coefficient is exact.

    A series over Q(i) is stored in the integer form above, as a
    ``series.LaurentWindow`` is, so equal series of one order have one form;
    ``coeffs`` is built on first read (GaussianRational when some input was
    Gaussian). A series with a coefficient outside Q(i), such as a p-adic
    one, keeps its coefficients (``den`` is None): products, sums,
    differences, comparisons and ``inverse`` run the coefficient loops on
    it, and every other operation raises TypeError.
    """

    __slots__ = ("den", "terms", "gaussian", "order", "_coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs)
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        coeffs = coeffs[:order]
        self.order = order
        parts = cleared_terms(dict(enumerate(coeffs)))
        self.den, self.terms, self.gaussian = parts or (None, ([], []), False)
        # a series outside Q(i) keeps its coefficients
        self._coeffs = None if self.den else tuple(coeffs + [coeffs[0] * 0] * (order - len(coeffs)))

    @classmethod
    def from_integers(cls, den: int, re: dict, im: dict, order: int, gaussian: bool):
        """The series sum of (re[k] + i*im[k])/den * xi^k + O(xi^order) (den > 0), in lowest terms."""
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        s = cls.__new__(cls)
        s.den, s.terms = reduced_form(den, re, im, hi=order)
        s.gaussian = gaussian
        s.order = order
        s._coeffs = None
        return s

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, c, order: int) -> "TruncatedPowerSeries":
        return cls([c], order)

    @classmethod
    def variable(cls, one, order: int) -> "TruncatedPowerSeries":
        """The series xi, with 1 represented by ``one`` of the target field."""
        return cls([one * 0, one], order)

    # -- structure --------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """(a_0, ..., a_{M-1}), built from the numerators on first read and kept."""
        if self._coeffs is None:
            out = [self.zero_coeff] * self.order
            for e, c in form_values(self.den, self.terms, self.gaussian).items():
                out[e] = c
            self._coeffs = tuple(out)
        return self._coeffs

    @property
    def zero_coeff(self):
        if self.den is None:
            return self._coeffs[0] * 0
        return GAUSSIAN_ZERO if self.gaussian else Fraction(0)

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other):
        """``other`` as a series; a scalar becomes a constant of this order, anything else None."""
        if isinstance(other, TruncatedPowerSeries):
            return other
        if isinstance(other, _SCALARS):
            return TruncatedPowerSeries.constant(self.zero_coeff + other, self.order)
        return None

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        """self + sign*other: the numerators brought to one denominator and added."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = min(self.order, other.order)
        if self.den is None or other.den is None:
            return TruncatedPowerSeries(
                [a + b if sign > 0 else a - b for a, b in zip(self.coeffs, other.coeffs)], m
            )
        den, re, im, gaussian = form_combination([(1, self), (sign, other)])
        return TruncatedPowerSeries.from_integers(den, re, im, m, gaussian)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        """The product, truncated at the smaller order; a scalar is a constant series."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = min(self.order, other.order)
        if self.den is None or other.den is None:
            # coefficients outside Q(i), e.g. p-adic: the generic loop
            out = [self.zero_coeff] * m
            for j, a in enumerate(self.coeffs[:m]):
                if is_zero_scalar(a):
                    continue
                for k, b in enumerate(other.coeffs[: m - j]):
                    out[j + k] = out[j + k] + a * b
            return TruncatedPowerSeries(out, m)
        re, im = integer_product(self.terms, other.terms, None, m)
        return TruncatedPowerSeries.from_integers(
            self.den * other.den, re, im, m, self.gaussian or other.gaussian
        )

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = min(self.order, other.order)
        if self.den is None or other.den is None:
            return all(a == b for a, b in zip(self.coeffs[:m], other.coeffs[:m]))
        a, b = self.truncate(m), other.truncate(m)
        return (a.den, a.terms) == (b.den, b.terms)

    def __hash__(self):
        raise TypeError("TruncatedPowerSeries compares up to order and is unhashable")

    # -- series operations ------------------------------------------------

    def inverse(self) -> "TruncatedPowerSeries":
        """Multiplicative inverse; requires the constant term to be a unit.

        Over Q(i) the quotient recurrence runs on the numerators A_j of
        self = A/den: 1/A = sum_k N_k/A_0^(k+1) * xi^k with N_0 = 1 and
        N_k = -sum_{j>=1} A_j*A_0^(j-1)*N_(k-j), so the inverse is
        den*N_k*A_0^(M-1-k) over A_0^M, and A_0^M is divided out as a
        product with its ``gaussian_reciprocal``.
        """
        if self.den is None:
            a0 = self.coeffs[0]
            if not is_unit_scalar(a0):
                raise NotAUnit("constant term is not a unit")
            return TruncatedPowerSeries(series_quotient([a0 / a0], self.coeffs, self.order), self.order)
        re, im = (dict(part) for part in self.terms)
        a0 = (re.pop(0, 0), im.pop(0, 0))
        if a0 == (0, 0):
            raise NotAUnit("constant term is not a unit")
        m = self.order
        powers = [(1, 0)]  # A_0^k for k <= M
        for _ in range(m):
            powers.append(_gmul(powers[-1], a0))
        steps = [(j, _gmul((re.get(j, 0), im.get(j, 0)), powers[j - 1]))
                 for j in sorted(re.keys() | im.keys())]
        n = [(1, 0)]
        for k in range(1, m):
            x = y = 0
            for j, (cr, ci) in steps:
                if j > k:
                    break
                nr, ni = n[k - j]
                x -= cr * nr - ci * ni
                y -= cr * ni + ci * nr
            n.append((x, y))
        a, b, d = gaussian_reciprocal(*powers[m])
        scale = (self.den * a, self.den * b)
        num = [_gmul(_gmul(nk, powers[m - 1 - k]), scale) for k, nk in enumerate(n)]
        return TruncatedPowerSeries.from_integers(
            d, *({k: nk[p] for k, nk in enumerate(num)} for p in (0, 1)), m, self.gaussian
        )

    def valuation(self):
        """xi-adic valuation of the tracked part; None if all tracked coefficients vanish."""
        require_integer_form(self)
        lows = [part[0][0] for part in self.terms if part]
        return min(lows) if lows else None

    def shift_up(self, k: int) -> "TruncatedPowerSeries":
        """Multiply by the exact monomial xi^k (order grows by k)."""
        require_integer_form(self)
        re, im = ({e + k: x for e, x in part} for part in self.terms)
        return TruncatedPowerSeries.from_integers(self.den, re, im, self.order + k, self.gaussian)

    def shift_down(self, k: int) -> "TruncatedPowerSeries":
        """Divide by xi^k; the first k coefficients must vanish."""
        v = self.valuation()
        if v is not None and v < k:
            raise ValueError("series not divisible by xi^k")
        return self.shift_up(-k)

    def truncate(self, order: int) -> "TruncatedPowerSeries":
        require_integer_form(self)
        if order >= self.order:
            return self
        return TruncatedPowerSeries.from_integers(self.den, *map(dict, self.terms), order, self.gaussian)

    def compose(self, inner: "TruncatedPowerSeries") -> "TruncatedPowerSeries":
        """self(inner(x)); ``inner`` must have zero constant term.

        Horner over the numerators: with self = S/D and inner = I/d, the
        accumulator A <- A*I + S_k*d^(J-k), from the top exponent J down,
        ends at D*d^J*self(inner), reduced once. A step costs one integer
        product by I, O(M) multiply-adds when I has a bounded number of terms.
        """
        require_integer_form(self, inner)
        v = inner.valuation()
        if v == 0:
            raise ValueError("composition requires inner constant term 0")
        m = min(inner.order, self.order * (v or 1))
        inner_t = inner.truncate(m)
        s_re, s_im = (dict(part) for part in self.terms)
        top = max(s_re.keys() | s_im.keys(), default=0)
        acc, scale = ([], []), 1  # scale = d^(J-k)
        for k in range(top, -1, -1):
            prod = integer_product(acc, inner_t.terms, None, m)
            # A*I has no constant term, so S_k*d^(J-k) is a new first term
            acc = tuple(
                ([(0, s[k] * scale)] if s.get(k) else []) + sorted((e, x) for e, x in p.items() if x)
                for s, p in zip((s_re, s_im), prod)
            )
            if k:
                scale *= inner_t.den
        return TruncatedPowerSeries.from_integers(
            self.den * scale, *map(dict, acc), m, self.gaussian or inner.gaussian
        )

    def reversion(self) -> "TruncatedPowerSeries":
        """The compositional inverse g with self(g(x)) = x + O(x^order).

        Requires zero constant term and unit linear coefficient. Lagrange
        inversion: with h = xi/self = self.shift_down(1).inverse(),
        [xi^n] g = (1/n) * [xi^(n-1)] h^n, and the powers h^n are built by
        successive multiplication, so this costs O(order) series
        multiplications instead of one composition per coefficient. Each
        [xi^(n-1)] h^n is read off h^n's numerators over den(h^n)*n, and g is
        brought to their common denominator once. Dividing by n needs
        characteristic 0, which holds over Q and Q(i).
        """
        v = self.valuation()
        if v == 0:
            raise ValueError("reversion requires zero constant term")
        if self.order < 2:
            # nothing to determine at order 1
            return TruncatedPowerSeries([self.zero_coeff], 1)
        if v != 1:
            raise NotAUnit("reversion requires a unit linear coefficient")
        h = self.shift_down(1).inverse()
        h_n, picked = h, {}
        for n in range(1, self.order):
            if n > 1:
                h_n = h_n * h
            picked[n] = (h_n.den * n, *(dict(part).get(n - 1, 0) for part in h_n.terms))
        return TruncatedPowerSeries.from_integers(*common_denominator(picked), self.order, self.gaussian)

    def __str__(self):
        parts = [format_term(c, "xi", j) for j, c in enumerate(self.coeffs) if not is_zero_scalar(c)]
        return " + ".join([*parts, f"O(xi^{self.order})"])

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
