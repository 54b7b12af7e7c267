"""Exact coefficient arithmetic over Q and Q(i).

Two kinds are provided, both immutable and exact:

* Gaussian rationals ``GaussianRational`` (the field Q(i)), with plain
  ``fractions.Fraction`` playing the role of Q;
* truncated power series ``TruncatedPowerSeries`` over them,
  a_0 + a_1*xi + ... + a_{M-1}*xi^{M-1} + O(xi^M), with the evaluation
  map ``theta`` (xi -> 0).

A ``FieldPair`` records which subfield linear algebra is done over: the
twistor computations use Q inside Q(i) (coordinates split into real and
imaginary parts), the complex projective line uses Q(i) itself.

A truncated power series is stored as a Laurent window in ``series`` is,
the layout of FLINT's ``fmpq_poly``: one denominator over sparse integer
numerators (re, im), in lowest terms (``cleared_terms``, also the source
of ``linalg``'s integer rows). Both carriers reduce, read and add up that
form through the same helpers here (``reduced_form``, ``form_values``,
``form_combination``) and refuse a coefficient outside Q(i)
(``outside_q_i``). Products convolve the numerators as Python ints
(``integer_product``, schoolbook) and reduce once; shifts, truncation,
Horner composition (on packed big ints, ``kronecker``, when the inner
series is sparse), the reversion's coefficient recurrence and the
inverse's quotient recurrence run on the numerators as well, and
Fractions are built only when a coefficient is read. That inverse is the
one quotient over Q(i): the Laurent window inverse in ``series`` and the
expansions and divisions in ``harbater`` go through it.
"""

from __future__ import annotations

import re as _re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DivisionByZero, NotAUnit
from .kronecker import horner


def as_fraction(x) -> Fraction:
    """``x`` as a Fraction; text is read by ``gaussian_numerators`` and must have no i part."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        den, re, im = gaussian_numerators(x)
        if im:
            raise ValueError(f"{x!r} is not rational")
        return Fraction(re, den)
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
_RATIONAL = _re.compile(r"([+-]?\d+)(?:/(\d+))?")
#: the start of a term: a sign that none of ``+-*/^`` precedes
_TERM_START = _re.compile(r"(?<=[^+\-*/^])(?=[+-])")
#: two digits that only spaces separate, which dropping the spaces would join into one number
_SPACED_DIGITS = _re.compile(r"\d +\d")


def without_spaces(text: str) -> str:
    """``text`` with its spaces dropped; ValueError where spaces separate two digits ("1 2" is not 12)."""
    if (m := _SPACED_DIGITS.search(text)):
        raise ValueError(f"space between digits {m[0]!r} in {text!r}")
    return text.replace(" ", "")


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
    A plain "a" or "a/b" with b != 0 is read by one match. Spaces are
    dropped, except between two digits (``without_spaces``).
    """
    s = without_spaces(text)
    if (m := _RATIONAL.fullmatch(s)) and (den := int(m[2] or 1)):
        return den, int(m[1]), 0
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
    one/den[0]. It is the coefficient-loop reference that the tests
    compare ``TruncatedPowerSeries.inverse`` and ``harbater``'s quotients
    against; the library's quotients go through that inverse.
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
_SCALARS = (int, Fraction, GaussianRational)


def power_cover(dens: dict) -> int:
    """A positive integer L with d | L^k for every k: d in ``dens`` (k >= 1, d >= 1).

    Each exponent of L is the least one that covers its d's, read over a
    coprime base of the d's (factor refinement by gcds, no factoring), so
    L is the least such integer when that base is squarefree: d = 3^k for
    k = 1..K gives L = 3, where the lcm of the d's is 3^K.
    """
    base, pending = [], [d for d in dens.values() if d > 1]
    while pending:
        x = pending.pop()
        for j, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                # b and x become g, b/g and x/g; the log-sum drops by log g
                del base[j]
                pending += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    cover = 1
    for b in base:
        need = 0
        for k, d in dens.items():
            e = 0
            while d % b == 0:
                d, e = d // b, e + 1
            need = max(need, -(-e // k))
        cover *= b ** need
    return cover


#: ``TruncatedPowerSeries.compose`` packs its accumulator while
#: (``_HORNER_TERMS`` + t)*B, for t stored terms of the inner series and digit
#: width B, stays below this many bits times the share of exponents up to J at
#: which the outer series has a term
_PACKED_HORNER_BITS = 1 << 15
_HORNER_TERMS = 12


def _gmul(a, b):
    """The product of two Gaussian integers given as pairs (re, im)."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


class TruncatedPowerSeries:
    """a_0 + a_1*xi + ... + a_{M-1}*xi^{M-1} + O(xi^M) over an exact field.

    The order M is carried per value and shrinks under binary operations
    (min rule), so every stored coefficient is exact.

    It is stored in the integer form above, as a ``series.LaurentWindow``
    is, so equal series of one order have one form; ``coeffs`` is built on
    first read (GaussianRational when some input was Gaussian). A
    coefficient outside Q(i) is refused at construction with a TypeError.
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
        if parts is None:
            raise outside_q_i(coeffs)
        self.den, self.terms, self.gaussian = parts
        self._coeffs = None

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
        return GAUSSIAN_ZERO if self.gaussian else Fraction(0)

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other):
        """``other`` as a series; a scalar becomes a constant of this order, anything else None."""
        if isinstance(other, TruncatedPowerSeries):
            return other
        if isinstance(other, _SCALARS):
            return TruncatedPowerSeries([self.zero_coeff + other], self.order)
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
        a, b = self.truncate(m), other.truncate(m)
        return (a.den, a.terms) == (b.den, b.terms)

    def __hash__(self):
        raise TypeError("TruncatedPowerSeries compares up to order and is unhashable")

    # -- series operations ------------------------------------------------

    def inverse(self) -> "TruncatedPowerSeries":
        """Multiplicative inverse; requires the constant term to be a unit.

        The quotient recurrence runs on the numerators A_j of self = A/den:
        1/A = sum_k N_k/A_0^(k+1) * xi^k with N_0 = 1 and
        N_k = -sum_{j>=1} A_j*A_0^(j-1)*N_(k-j), so the inverse is
        den*N_k*A_0^(M-1-k) over A_0^M, and A_0^M is divided out as a
        product with its ``gaussian_reciprocal``.
        """
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
        lows = [part[0][0] for part in self.terms if part]
        return min(lows) if lows else None

    def shift_up(self, k: int) -> "TruncatedPowerSeries":
        """Multiply by the exact monomial xi^k (order grows by k)."""
        re, im = ({e + k: x for e, x in part} for part in self.terms)
        return TruncatedPowerSeries.from_integers(self.den, re, im, self.order + k, self.gaussian)

    def shift_down(self, k: int) -> "TruncatedPowerSeries":
        """Divide by xi^k; the first k coefficients must vanish."""
        v = self.valuation()
        if v is not None and v < k:
            raise ValueError("series not divisible by xi^k")
        return self.shift_up(-k)

    def truncate(self, order: int) -> "TruncatedPowerSeries":
        if order >= self.order:
            return self
        return TruncatedPowerSeries.from_integers(self.den, *map(dict, self.terms), order, self.gaussian)

    def compose(self, inner: "TruncatedPowerSeries") -> "TruncatedPowerSeries":
        """self(inner(x)); ``inner`` must have zero constant term.

        Horner over the numerators: with self = S/D and inner = I/d of
        valuation v, the accumulator A <- A*I + S_k*d^(J-k), from the top
        exponent J down, ends at D*d^J*self(inner), reduced once. A_k is read
        below xi^(m-k*v) only, and S_k with k*v >= m is not read.

        Every coefficient of every A is below H_0 in size, where
        H_k = H_(k+1)*L + max|S_k|*d^(J-k) and L is the sum of |re| + |im|
        over the numerators of I (1.5-1.8 times the bit length of the
        largest true coefficient on the pipeline's round trips at M = 24 to
        128). With B the least whole number of bytes
        with H_0 < 2^(B-1), each part (re, im) of A is one int at t = 2^B
        with signed digits (``kronecker.horner``): a step is one shifted
        multiply-add per stored term of I on m*B-bit ints, a mask and a
        symmetric lift, and A is unpacked once. The Horner loop on term
        lists (``integer_product``) instead pays Python overhead per
        multiply-add, but only for the terms A has and at their true sizes.
        So A is packed while (``_HORNER_TERMS`` + t)*B*(J + 1) is below
        ``_PACKED_HORNER_BITS`` times the number of exponents <= J where S
        has a term, t the stored terms of I: a sparse inner of small
        coefficients, as the reversion's round trip at M up to a few
        hundred. A dense inner, a wide B or a sparse S runs the term lists.
        """
        v = inner.valuation()
        if v == 0:
            raise ValueError("composition requires inner constant term 0")
        m = min(inner.order, self.order * (v or 1))
        v = v or m  # a zero inner: only S_0 is read
        inner_t = inner.truncate(m)
        s_re, s_im = (dict(part) for part in self.terms)
        # S_k*I^k vanishes below xi^m once k*v >= m
        top = min(max(s_re.keys() | s_im.keys(), default=0), (m - 1) // v)
        spread = sum(abs(x) for part in inner_t.terms for _, x in part)
        height, scale = 0, 1  # scale = d^(J-k)
        for k in range(top, -1, -1):
            height = height * spread + max(abs(s_re.get(k, 0)), abs(s_im.get(k, 0))) * scale
            if k:
                scale *= inner_t.den
        nbytes = height.bit_length() // 8 + 1  # height < 2^(8*nbytes - 1)
        cost = (_HORNER_TERMS + len(inner_t.terms[0]) + len(inner_t.terms[1])) * 8 * nbytes * (top + 1)
        if cost < _PACKED_HORNER_BITS * sum(1 for k in s_re.keys() | s_im.keys() if k <= top):
            re, im = horner(s_re, s_im, top, inner_t.terms, inner_t.den, m, v, nbytes)
        else:
            acc, power = ([], []), 1  # power = d^(J-k)
            for k in range(top, -1, -1):
                prod = integer_product(acc, inner_t.terms, None, m - k * v)
                # A*I has no constant term, so S_k*d^(J-k) is a new first term
                acc = tuple(
                    ([(0, s[k] * power)] if s.get(k) else []) + sorted((e, x) for e, x in p.items() if x)
                    for s, p in zip((s_re, s_im), prod)
                )
                power *= inner_t.den
            re, im = map(dict, acc)
        return TruncatedPowerSeries.from_integers(
            self.den * scale, re, im, m, self.gaussian or inner.gaussian
        )

    def reversion(self) -> "TruncatedPowerSeries":
        """The compositional inverse g with self(g(x)) = x + O(x^order).

        Requires zero constant term and unit linear coefficient. With
        self = S/den over Gaussian-integer numerators S_k, write
        c_k = S_k/S_1 = (x_k + i*y_k)/d_k in lowest terms and take the
        integer lam = ``power_cover`` with d_k | lam^(k-1) for every k. Then
        tau(y) = y + sum_{k>=2} c_k*lam^(k-1)*y^k has Gaussian-integer
        coefficients, self(xi) = self_1*lam*tau(xi/lam), so the reversion r of
        tau is integral and g_n = r_n / (self_1^n * lam^(n-1)). From
        tau(r(y)) = y, r_n = -sum_{k=2..K} tau_k*[y^n] r^k with K = deg self,
        and each power is kept one coefficient ahead by
        [y^n] r^k = sum_i r_i*[y^(n-i)] r^(k-1), which reads only
        coefficients below n. For order M that is about K*M^2/2
        multiply-adds on Gaussian integers and no series product: O(M^2)
        for a polynomial of bounded degree, O(M^3) on larger numbers for a
        dense self (for log(1 + xi), lam is the product of the primes below
        M). lam keeps the numbers small: for xi*(1 + xi/3)^k it is 3, where
        the scale S_1 = 3^k would carry k times the digits. g is brought
        over the common denominator e^(M-1)*lam^(M-2), with 1/self_1 = w/e,
        and reduced once.
        """
        v = self.valuation()
        if v == 0:
            raise ValueError("reversion requires zero constant term")
        m = self.order
        if m < 2:
            # nothing to determine at order 1
            return TruncatedPowerSeries([self.zero_coeff], 1)
        if v != 1:
            raise NotAUnit("reversion requires a unit linear coefficient")
        s_re, s_im = (dict(part) for part in self.terms)
        top = max(s_re.keys() | s_im.keys())
        # c_k = S_k/S_1 = (x_k + i*y_k)/d_k in lowest terms, over |S_1|^2
        a_re, a_im = s_re.pop(1, 0), s_im.pop(1, 0)
        norm, c = a_re * a_re + a_im * a_im, {}
        for k in s_re.keys() | s_im.keys():
            x, y = _gmul((s_re.get(k, 0), s_im.get(k, 0)), (a_re, -a_im))
            g = gcd(x, y, norm)
            c[k] = (x // g, y // g, norm // g)
        lam = power_cover({k - 1: d for k, (_, _, d) in c.items()})
        tau = [(0, 0)] * (top + 1)  # tau[k] = c_k*lam^(k-1)
        for k, (x, y, d) in c.items():
            t = lam ** (k - 1) // d
            tau[k] = (x * t, y * t)
        # powers[k] = ([y^n] r^k for n < M) as (re, im) lists; powers[1] is r
        powers = [None] + [([0] * m, [0] * m) for _ in range(top)]
        r_re, r_im = powers[1]
        r_re[1] = 1
        for n in range(2, m):
            x = y = 0
            for k in range(2, min(n, top) + 1):
                # [y^n] r^k = sum_{i=1..n-k+1} r_i*[y^(n-i)] r^(k-1)
                p_re, p_im = (part[n - 1:k - 2:-1] for part in powers[k - 1])
                q_re, q_im = r_re[1:n - k + 2], r_im[1:n - k + 2]
                c_re = sum(map(mul, q_re, p_re)) - sum(map(mul, q_im, p_im))
                c_im = sum(map(mul, q_re, p_im)) + sum(map(mul, q_im, p_re))
                powers[k][0][n], powers[k][1][n] = c_re, c_im
                t_re, t_im = tau[k]
                x -= t_re * c_re - t_im * c_im
                y -= t_re * c_im + t_im * c_re
            r_re[n], r_im[n] = x, y
        # g_n = r_n*w^n / (e^n*lam^(n-1)) with 1/self_1 = den/S_1 = w/e, over e^(M-1)*lam^(M-2)
        x, y = self.den * a_re, -self.den * a_im
        h = gcd(x, y, norm)
        w, e = (x // h, y // h), norm // h
        fill = [1]  # fill[j] = (e*lam)^j
        for _ in range(m - 2):
            fill.append(fill[-1] * e * lam)
        w_n, g_re, g_im = (1, 0), {}, {}
        for n in range(1, m):
            w_n = _gmul(w_n, w)
            z = fill[m - 1 - n]
            g_re[n], g_im[n] = _gmul((r_re[n] * z, r_im[n] * z), w_n)
        return TruncatedPowerSeries.from_integers(e ** (m - 1) * lam ** (m - 2), g_re, g_im, m, self.gaussian)

    def __str__(self):
        parts = [format_term(c, "xi", j) for j, c in enumerate(self.coeffs) if c]
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
