"""The ring of integer Laurent series converging beyond radius r.

Elements of Z((T))_{>r} (0 < r < 1) are Laurent series with integer
coefficients that converge absolutely on a disc of radius r' for some
r' > r. Two representations are supported, both with fully certified
radius accounting:

* ``RationalFn`` -- num/den with den(0) != 0; the series expansion is
  num times the series inverse of den, the radius comes from exact root
  data (denominator degree <= 2) or a classical Cauchy-type bound;
* ``CertifiedSeries`` -- a finite Laurent tail, explicitly known head
  coefficients a_0..a_K, and an envelope |a_k| <= C*(k+m+1)^e * s^-k
  valid for every k, which certifies convergence on |T| < s. The
  polynomial degree e is 0 for user input (the plain geometric bound)
  and grows under multiplication so that products keep the radius
  min(s_f, s_g).

Strictness matters: membership in Z((T))_{>r} requires the certified
radius to exceed r; an element with a pole exactly at modulus r is out.

Evaluation at a point x with |x| <= r is the continuous ring map T -> x;
its kernel is principal, generated by the primitive integer polynomial
vanishing at x (``kernel_generator``), and ``divide_exact`` witnesses
divisibility of kernel elements by the generator. Every power-series
quotient here is one product by ``TruncatedPowerSeries.inverse``, and
every root a certificate or envelope reads comes from ``_roots_of``. ``local_completion``
expands elements in powers of xi = g(T) around the point, producing the
truncated power series base ring used by the degree-zero pipeline: it
reverts xi = g(x + delta) and substitutes T = x + delta(xi) into
numerator and denominator. Every such substitution, like evaluation at
a point, is one Horner pass of ``peval``.

Quotients of divisions may pick up rational (non-integer) coefficients;
every element carries an ``is_integral`` flag rather than guessing a
normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NotDivisible,
    NotMemberError,
    NotSimpleRoot,
    PoleAtPoint,
    RadiusNotCertified,
)
from .scalars import (
    GAUSSIAN_ONE,
    GaussianRational,
    TruncatedPowerSeries,
    as_fraction,
    gaussian_tps,
    primitive_integer_poly,
    split_terms,
    without_spaces,
)

# ---------------------------------------------------------------------------
# dense polynomials over Q (ascending coefficient lists)
# ---------------------------------------------------------------------------


def ptrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a, b):
    n = max(len(a), len(b))
    return ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def pneg(a):
    return [-c for c in a]


def _product(a, b, n: int) -> list:
    """The first n coefficients of the product of two coefficient lists: one series product."""
    if n < 1:
        return []
    return list((TruncatedPowerSeries(a, n) * TruncatedPowerSeries(b, n)).coeffs)


def _quotient(a, b, n: int) -> list:
    """The first n coefficients of a/b (b[0] != 0): one series product by the inverse of b."""
    if n < 1:
        return []
    return list((TruncatedPowerSeries(a, n) * TruncatedPowerSeries(b, n).inverse()).coeffs)


def pmul(a, b):
    return ptrim(_product(a, b, len(a) + len(b) - 1))


def pscale(a, c):
    return ptrim([x * c for x in a])


def pdivmod(a, b):
    """Exact polynomial division over Q: a = q*b + r with deg r < deg b.

    Each step cancels the leading term of the remainder and subtracts c*b
    on the divisor's nonzero lower terms only, in place.
    """
    b = ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a, n = ptrim(a), len(b) - 1
    lower = [(i, cb) for i, cb in enumerate(b[:-1]) if cb]
    q = [Fraction(0)] * max(len(a) - n, 0)
    while len(a) > n:
        c = a.pop() / b[-1]
        d = len(a) - n
        q[d] = c
        for i, cb in lower:
            a[d + i] -= c * cb
        while a and a[-1] == 0:
            a.pop()
    return q, a


def pgcd(a, b):
    """The monic gcd of a and b over Q (Euclid), [] when both are zero.

    Each remainder is made primitive (``primitive_integer_poly``) before the
    next division: a nonzero scalar factor changes no gcd, and without it
    the remainders' coefficients grow with every step.
    """
    a, b = ptrim(a), ptrim(b)
    while b:
        a, b = b, [Fraction(c) for c in primitive_integer_poly(pdivmod(a, b)[1])]
    if a:
        a = pscale(a, 1 / a[-1])
    return a


def peval(p, x):
    """Horner evaluation of p at x.

    x may be a Fraction, a GaussianRational or a TruncatedPowerSeries: every
    substitution into a polynomial in this module goes through here.
    """
    if not p:
        return x * 0
    acc = x * 0 + p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def pderiv(p):
    return ptrim([c * k for k, c in enumerate(p)][1:])


def poly_str(p) -> str:
    p = ptrim(list(p))
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mono = "" if k == 0 else ("T" if k == 1 else f"T^{k}")
        if not mono:
            term = str(c)
        elif c == 1:
            term = mono
        elif c == -1:
            term = f"-{mono}"
        else:
            term = f"{c}*{mono}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


#: the largest |exponent| ``poly_parse`` and ``parse_element`` read: their lists hold one slot per exponent
MAX_EXPONENT = 1 << 16


def poly_parse(text: str):
    """Parse "9*T^2 - 1", "3T-1", "T^3 - 7" into an ascending Q-coefficient list.

    Spaces are dropped, except between two digits (``without_spaces``). An
    exponent above ``MAX_EXPONENT`` raises ValueError before the list is built.
    """
    s = without_spaces(text).replace("**", "^")
    if not s:
        raise ValueError("empty polynomial")
    coeffs: dict[int, Fraction] = {}
    for term in split_terms(s):
        sign = Fraction(1)
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if "T" in term:
            coeff_s, _, rest = term.partition("T")
            coeff_s = coeff_s.rstrip("*")
            coeff = as_fraction(coeff_s) if coeff_s else Fraction(1)
            k = int(rest[1:]) if rest.startswith("^") else (1 if not rest else None)
            if k is None or k < 0:
                raise ValueError(f"bad polynomial term {term!r}")
            if k > MAX_EXPONENT:
                raise ValueError(f"exponent {k} in {term!r} exceeds {MAX_EXPONENT}")
        else:
            coeff, k = as_fraction(term), 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * coeff
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return ptrim(out)


def _is_integral_poly(p) -> bool:
    return all(as_fraction(c).denominator == 1 for c in p)


def _sqrt_lower(m2: Fraction) -> Fraction:
    """A rational lower bound for sqrt(m2) (exact when m2 is a perfect square)."""
    if m2 <= 0:
        return Fraction(0)
    return Fraction(math.isqrt(m2.numerator * m2.denominator), m2.denominator)


def _abs_upper(z: GaussianRational) -> Fraction:
    """A rational upper bound for |z|."""
    return abs(z.re) + abs(z.im)


# ---------------------------------------------------------------------------
# radius certificates
# ---------------------------------------------------------------------------


@dataclass
class RadiusCertificate:
    """Certified lower bound on the convergence radius.

    ``s`` is a rational lower bound; when ``modulus_squared`` is set the
    nearest singularity's modulus is known exactly as sqrt of it, and
    strict comparisons are done on squares. ``s = None`` means entire.
    """

    s: Fraction | None
    method: str  # exact-roots | classical-bound | tail-bound
    modulus_squared: Fraction | None = None
    witness: object = None

    def exceeds(self, r: Fraction) -> bool:
        """radius > r, decided exactly."""
        if self.s is None:
            return True
        if self.modulus_squared is not None:
            return self.modulus_squared > r * r
        return self.s > r

    def certainly_at_most(self, r: Fraction) -> bool:
        """True when the true radius is known to be <= r."""
        return self.modulus_squared is not None and self.modulus_squared <= r * r

    def __str__(self):
        if self.s is None:
            return f"radius oo ({self.method})"
        if self.modulus_squared is not None:
            return f"radius^2 = {self.modulus_squared} ({self.method})"
        return f"radius >= {self.s} ({self.method})"


@dataclass
class Membership:
    status: str  # member | not_member | unknown
    certificate: RadiusCertificate
    witness: object = None

    @property
    def is_member(self) -> bool:
        return self.status == "member"


@dataclass
class Interval:
    """center +- radius in Q(i), radius a certified rational bound."""

    center: GaussianRational
    radius: Fraction

    def __add__(self, other):
        other = _as_interval(other)
        return Interval(self.center + other.center, self.radius + other.radius)

    def __mul__(self, other):
        other = _as_interval(other)
        rad = (
            _abs_upper(self.center) * other.radius
            + _abs_upper(other.center) * self.radius
            + self.radius * other.radius
        )
        return Interval(self.center * other.center, rad)

    def contains(self, value) -> bool:
        diff = self.center - GaussianRational.of(value)
        return diff.norm_squared <= self.radius * self.radius

    def __str__(self):
        return f"{self.center} +- {self.radius}"


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(GaussianRational.of(x), Fraction(0))


# ---------------------------------------------------------------------------
# element representations
# ---------------------------------------------------------------------------


class RationalFn:
    """num/den over Q with den(0) != 0, gcd-reduced, den(0) normalized to 1."""

    __slots__ = ("num", "den", "is_integral")

    def __init__(self, num, den=(1,)):
        num = [as_fraction(c) for c in ptrim(list(num))]
        den = [as_fraction(c) for c in ptrim(list(den))]
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = [Fraction(1)]
        g = pgcd(num, den) if num else []
        if len(g) > 1:
            num = pdivmod(num, g)[0]
            den = pdivmod(den, g)[0]
        if den[0] == 0:
            raise ValueError("denominator vanishes at T = 0; not a power series")
        d0 = den[0]
        num = pscale(num, 1 / d0)
        den = pscale(den, 1 / d0)
        self.num = tuple(num)
        self.den = tuple(den)
        self.is_integral = _is_integral_poly(num) and _is_integral_poly(den)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "RationalFn":
        if isinstance(other, RationalFn):
            return other
        return RationalFn([other])

    def __add__(self, other):
        o = self._coerce(other)
        return RationalFn(
            padd(pmul(self.num, o.den), pmul(o.num, self.den)), pmul(self.den, o.den)
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return RationalFn(pmul(self.num, o.num), pmul(self.den, o.den))

    __rmul__ = __mul__

    def __neg__(self):
        return RationalFn(pneg(self.num), self.den)

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- series view ----------------------------------------------------------

    def series_prefix(self, count: int):
        """First ``count`` Taylor coefficients."""
        return _quotient(self.num, self.den, count)

    def evaluate(self, x: GaussianRational):
        x = GaussianRational.of(x)
        dv = peval(list(self.den), x)
        if not dv:
            raise PoleAtPoint(f"denominator vanishes at {x}")
        return peval(list(self.num), x) / dv

    def __str__(self):
        if self.den == (1,):
            return poly_str(self.num)
        return f"{poly_str(self.num)} / {poly_str(self.den)}"

    def __repr__(self):
        return f"RationalFn({self})"


class CertifiedSeries:
    """Known coefficients a_{-m}..a_K plus the envelope |a_k| <= C*(k+m+1)^e*s^-k."""

    __slots__ = ("offset", "coeffs", "C", "s", "poly_deg", "is_integral")

    def __init__(self, coeffs, offset: int = 0, C=1, s=1, poly_deg: int = 0):
        """``coeffs[j]`` is the coefficient of T^(j - offset).

        (C, s) is the declared tail bound |a_k| <= C*(k+offset+1)^poly_deg*s^-k
        for k beyond the known head; the constructor raises C as needed so
        the envelope also dominates every known coefficient.
        """
        self.offset = offset
        self.coeffs = tuple(as_fraction(c) for c in coeffs)
        s = as_fraction(s)
        if s <= 0:
            raise ValueError("tail bound radius s must be positive")
        C = as_fraction(C)
        for j, c in enumerate(self.coeffs):
            k = j - offset
            need = abs(c) * s**k / Fraction(k + offset + 1) ** poly_deg
            if need > C:
                C = need
        self.C = C
        self.s = s
        self.poly_deg = poly_deg
        self.is_integral = _is_integral_poly(self.coeffs)

    @property
    def head_top(self) -> int:
        """Largest exponent with a known coefficient."""
        return len(self.coeffs) - 1 - self.offset

    def coefficient(self, k: int):
        j = k + self.offset
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        if k > self.head_top:
            raise ValueError(f"coefficient at T^{k} only bounded, not known")
        return Fraction(0)

    def series_prefix(self, count: int):
        if count - 1 > self.head_top:
            raise ValueError("prefix longer than the known head")
        return [self.coefficient(k) for k in range(count)]

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other) -> "CertifiedSeries":
        if isinstance(other, CertifiedSeries):
            return other
        c = as_fraction(other)
        return CertifiedSeries([c], 0, C=abs(c) or 1, s=self.s)

    def __add__(self, other):
        other = self._coerce(other)
        m = max(self.offset, other.offset)
        top = min(self.head_top, other.head_top)
        coeffs = []
        for k in range(-m, top + 1):
            a = self.coefficient(k) if -self.offset <= k <= self.head_top else Fraction(0)
            b = other.coefficient(k) if -other.offset <= k <= other.head_top else Fraction(0)
            coeffs.append(a + b)
        s = min(self.s, other.s)
        e = max(self.poly_deg, other.poly_deg)
        # rebase both envelopes to (s, e, m); (k+m+1) >= (k+offset+1) so the
        # polynomial factor only grows, and s <= s_i only weakens the decay
        C = self.C + other.C
        return CertifiedSeries(coeffs, m, C=C, s=s, poly_deg=e)

    __radd__ = __add__

    def __neg__(self):
        return CertifiedSeries(
            [-c for c in self.coeffs], self.offset, self.C, self.s, self.poly_deg
        )

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        if not isinstance(other, CertifiedSeries):
            c = as_fraction(other)
            return CertifiedSeries(
                [x * c for x in self.coeffs],
                self.offset,
                self.C * max(abs(c), Fraction(1)),
                self.s,
                self.poly_deg,
            )
        m = self.offset + other.offset
        top = min(self.head_top - other.offset, other.head_top - self.offset)
        # index j holds T^(j - offset), so index j of the product holds T^(j - m)
        coeffs = _product(self.coeffs, other.coeffs, top + m + 1)
        # sum over i+j=k of the two envelopes: at most (k+m+1) terms, each at
        # most C1*C2*(k+m+1)^(e1+e2)*s^-k with s = min(s1, s2)
        return CertifiedSeries(
            coeffs,
            m,
            C=self.C * other.C,
            s=min(self.s, other.s),
            poly_deg=self.poly_deg + other.poly_deg + 1,
        )

    __rmul__ = __mul__

    def __str__(self):
        tail = ",".join(
            f"{j - self.offset}:{c}" for j, c in enumerate(self.coeffs[: self.offset])
        ) or "-"
        head = " ".join(str(c) for c in self.coeffs[self.offset :])
        extra = f" deg {self.poly_deg}" if self.poly_deg else ""
        return f"{tail} ; {head} ; bound {self.C} {self.s}{extra}"

    def __repr__(self):
        return f"CertifiedSeries({self})"


def parse_element(text: str):
    """Parse the element grammar: "poly / poly" or "tail ; heads ; bound C s [deg k]".

    The tail lists "e:c" at exponents e < 0, and "deg k" is the envelope's
    polynomial degree (``CertifiedSeries.poly_deg``, 0 when left out), so
    that ``str`` of a series reads back. An exponent or a k above
    ``MAX_EXPONENT`` is refused. Malformed text raises ValueError.
    """
    if ";" in text:
        tail_s, head_s, bound_s = (part.strip() for part in text.split(";"))
        tail = {}
        if tail_s != "-":
            for item in tail_s.split(","):
                e, c = item.split(":")
                if int(e) >= 0:
                    raise ValueError(f"tail exponent {e} is not negative")
                if int(e) < -MAX_EXPONENT:
                    raise ValueError(f"tail exponent {e} is below -{MAX_EXPONENT}")
                tail[int(e)] = as_fraction(c)
        heads = [as_fraction(c) for c in head_s.split()]
        parts = bound_s.split()
        if (len(parts) not in (3, 5) or parts[0] != "bound"
                or len(parts) == 5 and (parts[3] != "deg" or not parts[4].isdecimal())):
            raise ValueError(f"expected 'bound C s' or 'bound C s deg k', got {bound_s!r}")
        C, s = as_fraction(parts[1]), as_fraction(parts[2])
        poly_deg = int(parts[4]) if len(parts) == 5 else 0
        if poly_deg > MAX_EXPONENT:
            raise ValueError(f"envelope degree {poly_deg} exceeds {MAX_EXPONENT}")
        offset = -min(tail) if tail else 0
        coeffs = [Fraction(0)] * (offset + len(heads))
        for e, c in tail.items():
            coeffs[e + offset] = c
        for j, c in enumerate(heads):
            coeffs[offset + j] = c
        return CertifiedSeries(coeffs, offset, C=C, s=s, poly_deg=poly_deg)
    if " / " in text:
        num_s, den_s = text.split(" / ", 1)
        den = poly_parse(den_s)
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        return RationalFn(poly_parse(num_s), den)
    return RationalFn(poly_parse(text))


# ---------------------------------------------------------------------------
# radius and membership
# ---------------------------------------------------------------------------


def _quadratic_root_data(den):
    """(modulus_squared of nearest root, witness) for deg <= 2, or None."""
    den = ptrim(list(den))
    roots = _roots_of(den)
    if len(den) == 3 and den[1] * den[1] < 4 * den[0] * den[2]:
        # conjugate pair, |root|^2 = c0/c2 exactly; a witness when the roots are rational
        return den[0] / den[2], roots and roots[0]
    if roots is None:
        return None  # real irrational pair: fall back to the classical bound
    near = min((r.re for r in roots), key=abs)
    return near * near, near


def radius_lower_bound(e) -> RadiusCertificate:
    """Certified lower bound for the convergence radius of an element."""
    if isinstance(e, CertifiedSeries):
        return RadiusCertificate(s=e.s, method="tail-bound")
    den = ptrim(list(e.den))
    if len(den) == 1:
        return RadiusCertificate(s=None, method="exact-roots")
    data = _quadratic_root_data(den)
    if data is not None:
        m2, witness = data
        return RadiusCertificate(
            s=_sqrt_lower(m2), method="exact-roots", modulus_squared=m2, witness=witness
        )
    top = max(abs(c) for c in den[1:])
    s = abs(den[0]) / (abs(den[0]) + top)
    return RadiusCertificate(s=s, method="classical-bound")


def disc_point(x, r) -> tuple:
    """(x, r) as a Q(i) point and a rational radius, checked: 0 < r < 1 and |x| <= r.

    The one check of a point and its disc, for ``local_completion``,
    ``evaluate``, ``membership`` and the CLI; ValueError otherwise.
    """
    x, r = GaussianRational.of(x), as_fraction(r)
    if not 0 < r < 1:
        raise ValueError(f"r must satisfy 0 < r < 1, got {r}")
    if x.norm_squared > r * r:
        raise ValueError(f"|x| > r: {x} lies outside the disc of radius {r}")
    return x, r


def membership(e, r) -> Membership:
    """Decide membership in Z((T))_{>r}: certified radius strictly above r."""
    _, r = disc_point(0, r)
    cert = radius_lower_bound(e)
    if cert.exceeds(r):
        return Membership("member", cert)
    if cert.certainly_at_most(r):
        return Membership("not_member", cert, witness=cert.witness)
    return Membership("unknown", cert)


def evaluate(e, x, r):
    """The continuous ring map T -> x, |x| <= r < 1.

    Exact for RationalFn; an Interval (exact head plus a certified tail
    bound) for CertifiedSeries.
    """
    x, r = disc_point(x, r)
    if isinstance(e, RationalFn):
        if not peval(list(e.den), x):
            raise PoleAtPoint(f"pole at T = {x}")
        if not membership(e, r).is_member:
            raise NotMemberError(f"element not certified in Z((T))_>{r}")
        return e.evaluate(x)
    if e.offset > 0 and not x:
        raise PoleAtPoint("Laurent tail evaluated at T = 0")
    if not membership(e, r).is_member:
        raise NotMemberError(f"element not certified in Z((T))_>{r}")
    # the known head at x plus the polar part at 1/x; polar exponents above
    # head_top (when head_top < -1) are not stored and read as 0
    acc = peval(e.coeffs[e.offset :], x)
    polar = e.coeffs[: e.offset]
    if polar:
        acc = acc + peval([0] * (e.offset - len(polar) + 1) + list(reversed(polar)), 1 / x)
    # tail: sum_{k>K} C (k+m+1)^e rho^k with rho >= |x|/s rational, rho < 1
    m2 = x.norm_squared / (e.s * e.s)
    rho = (1 + m2) / 2 if m2 < 1 else None
    if m2 == 0:
        rho = Fraction(0)
    if rho is None or rho >= 1:
        raise NotMemberError("cannot bound the tail at this point")
    K = e.head_top
    ee = e.poly_deg
    tail = (
        e.C
        * Fraction(K + e.offset + 2) ** ee
        * Fraction(math.factorial(ee))
        * rho ** (K + 1)
        / (1 - rho) ** (ee + 1)
    )
    return Interval(acc, tail)


# ---------------------------------------------------------------------------
# the principal kernel and division
# ---------------------------------------------------------------------------


def kernel_generator(x) -> list:
    """Primitive integer polynomial generating the kernel of T -> x.

    Linear b*T - a for rational x = a/b; the primitive integer quadratic
    b^2*T^2 - 2*b*Re(a)*T + |a|^2 for properly Gaussian x = a/b.
    """
    x = GaussianRational.of(x)
    if x.im == 0:
        fr = x.re
        return [-fr.numerator, fr.denominator]
    b = math.lcm(x.re.denominator, x.im.denominator)
    p, q = x.re * b, x.im * b
    return primitive_integer_poly([p * p + q * q, -2 * b * p, Fraction(b * b)])


def _roots_of(g):
    """Exact roots of an integer polynomial of degree <= 2, or None."""
    g = ptrim([as_fraction(c) for c in g])
    deg = len(g) - 1
    if deg == 1:
        return [GaussianRational.of(-g[0] / g[1])]
    if deg == 2:
        c0, c1, c2 = g
        disc = c1 * c1 - 4 * c0 * c2
        sq = _sqrt_lower(abs(disc))
        if sq * sq != abs(disc):
            return None
        if disc < 0:
            re, im = -c1 / (2 * c2), sq / (2 * c2)
            return [GaussianRational(re, im), GaussianRational(re, -im)]
        return [
            GaussianRational.of((-c1 + sq) / (2 * c2)),
            GaussianRational.of((-c1 - sq) / (2 * c2)),
        ]
    return None


def _inverse_envelope(g):
    """(C, s) with |coefficients of 1/g| <= C*s^-k, exact rationals, or None.

    Supported: linear denominators (rational root) and quadratics with
    rational roots, real and distinct or a conjugate pair of rational modulus.
    """
    g = ptrim([as_fraction(c) for c in g])
    if len(g) == 1:
        return Fraction(1) / abs(g[0]), None
    roots = _roots_of(g)
    if roots is None:
        return None
    if len(g) == 2:
        return Fraction(1) / abs(g[0]), abs(roots[0].re)
    c0, _, c2 = g
    if roots[0].im:
        # conjugate pair: 1/g = A/(T-r) + conj(A)/(T-conj r) with |A| = 1/(2*|c2|*|Im r|)
        s = _sqrt_lower(c0 / c2)
        if s * s != c0 / c2:
            return None
        return 1 / (abs(c2) * abs(roots[0].im) * s), s
    r1, r2 = roots[0].re, roots[1].re
    if 0 in (r1, r2) or r1 == r2:
        return None
    # partial fractions 1/g = A/(T-r1) + B/(T-r2)
    A = 1 / (c2 * (r1 - r2))
    return abs(A) / abs(r1) + abs(A) / abs(r2), min(abs(r1), abs(r2))


#: coefficients on which ``divide_exact`` re-verifies a CertifiedSeries round trip q*g = f
VERIFY_WINDOW = 50


def divide_exact(f, g, r):
    """Quotient q with f = q * g, for g an integer polynomial kernel generator.

    Divisibility is decided exactly (polynomial remainder for RationalFn,
    known-head long division for CertifiedSeries), and the round trip q*g = f
    is re-verified: as an identity of RationalFns, whose gcd-reduced form
    with den(0) = 1 is unique, and on ``VERIFY_WINDOW`` coefficients for a
    CertifiedSeries. Quotients may have rational coefficients; they carry
    is_integral flags.
    """
    g = ptrim([as_fraction(c) for c in g])
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if isinstance(f, RationalFn):
        q_num, rem = pdivmod(list(f.num), g)
        if rem:
            roots = _roots_of(g)
            detail = ""
            if roots:
                vals = []
                for root in roots:
                    if peval(list(f.den), root):
                        vals.append(str(f.evaluate(root)))
                if vals:
                    detail = f" (values at roots: {', '.join(vals)})"
            raise NotDivisible(f"{f} is not divisible by {poly_str(g)}{detail}")
        common = pgcd(list(f.den), g)
        if len(common) > 1:
            raise NotDivisible(f"{f} has a pole at a root of {poly_str(g)}")
        q = RationalFn(q_num, list(f.den))
        if q * RationalFn(g) != f:
            raise NotDivisible("round trip q*g != f")
        return q
    # CertifiedSeries: strip any pure T-power factor of g (T is invertible
    # in the Laurent ring, so this just shifts the window), then long-divide
    shift = 0
    g_full = list(g)
    while g and g[0] == 0:
        g = g[1:]
        shift += 1
    offset = f.offset + shift
    C_shift = f.C / f.s**shift
    env = _inverse_envelope(g)
    if env is None:
        raise RadiusNotCertified(
            f"no exact coefficient envelope for 1/({poly_str(g)})"
        )
    C_inv, s_inv = env
    out = _quotient(f.coeffs, g, len(f.coeffs))
    s = min(f.s, s_inv) if s_inv is not None else f.s
    q = CertifiedSeries(
        out, offset, C=C_shift * C_inv, s=s, poly_deg=f.poly_deg + 1
    )
    back = q * CertifiedSeries(
        g_full, 0, C=max(abs(c) for c in g_full), s=1
    )
    top = min(back.head_top, f.head_top, VERIFY_WINDOW - f.offset)
    for k in range(-f.offset, top + 1):
        if back.coefficient(k) != f.coefficient(k):
            raise NotDivisible(f"round trip failed at coefficient T^{k}")
    return q


# ---------------------------------------------------------------------------
# local completion at a point
# ---------------------------------------------------------------------------


@dataclass
class LocalCompletion:
    """The xi-adic completion at a point x: A = Q(i)[[xi]] mod xi^M, xi = g(T)."""

    x: GaussianRational
    r: Fraction
    M: int
    g: list
    delta_of_xi: TruncatedPowerSeries  # T - x as a series in xi

    def expand(self, e: RationalFn) -> TruncatedPowerSeries:
        """Taylor expansion of a rational function in powers of xi = g(T)."""
        if not isinstance(e, RationalFn):
            raise TypeError("local expansion is defined for RationalFn elements")
        num = self._poly_in_xi(e.num)
        den = self._poly_in_xi(e.den)
        if den.valuation() != 0:
            raise PoleAtPoint(f"pole at the completion point {self.x}")
        return num * den.inverse()

    def _poly_in_xi(self, p) -> TruncatedPowerSeries:
        """p(T) with T = x + delta(xi), to O(xi^M)."""
        return peval(p, self.delta_of_xi.truncate(self.M) + self.x)

    def base_presentation(self, f: TruncatedPowerSeries | None = None):
        """Package as a two-periodic presentation (default Bott coefficient 1)."""
        from .periodic import TwoPeriodicPresentation

        if f is None:
            f = gaussian_tps([1], self.M)
        if f.order != self.M:
            raise ValueError("Bott coefficient must live in A = k[[xi]] mod xi^M")
        return TwoPeriodicPresentation(f=f)


def local_completion(x, r, M: int) -> LocalCompletion:
    """Complete at the point x (|x| <= r < 1): xi = g(T), theta = evaluation at x.

    The change of variable T = x + delta is inverted by series reversion
    of xi = g(x + delta), which needs the root to be simple.
    """
    x, r = disc_point(x, r)
    if M < 1:
        raise ValueError("M must be >= 1")
    g = kernel_generator(x)
    gprime = peval([GaussianRational.of(c) for c in pderiv(g)], x)
    if not gprime:
        raise NotSimpleRoot(f"kernel generator has a multiple root at {x}")
    xi_of_delta = peval(g, TruncatedPowerSeries.variable(GAUSSIAN_ONE, M + 1) + x)
    return LocalCompletion(
        x=x, r=r, M=M, g=g, delta_of_xi=xi_of_delta.reversion()
    )
