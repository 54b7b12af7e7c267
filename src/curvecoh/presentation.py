"""Graded presentations of the algebra of sections regular away from infinity.

An ``AffinePresentation`` lists a k0-basis b_0, b_1, ... with degrees, a
multiplication table whose k0 structure constants are Gaussian integers over
one denominator per rule (``AffinePresentation.rule``), and an embedding of
each basis element into the Laurent field k1((t^-1)) as an exact window.
Two presentations are built in, each one shared value per process:

* ``p1_presentation`` -- the coordinate algebra k1[t] of the complex
  projective line minus infinity, basis {t^i}, over the trivial pair
  (k0 = k1 = Q(i));
* ``twistor_presentation`` -- the real form Q[u,v]/(u^2+v^2+1) of the
  twistor projective line, reduced basis {u^i, u^i*v}, over (Q, Q(i)),
  embedded by u = (t - t^-1)/2, v = -(i/2)(t + t^-1).

The ``leading_exact`` flag declares that pole_order(embed(b)) equals
degree(b) and that leading coefficients of equal-degree basis elements
are k0-linearly independent; this is what turns the downstream linear
algebra into certified computations, and it is checked, not assumed
(``verify_leading_exact``), as is the ring map, through every degree a
result reads. ``check_ring_map`` packs each window's numerators over one
denominator into a big int at t = 2^B (``kronecker``), with B large enough
that every coefficient of a product's difference D has |d| < 2^(B-1); D vanishing
from the comparison cutoff c up is then |D| < 2^(B*(c-o)-1) for the
frame's lowest exponent o (D == 0 with no cutoff). A product whose
exponent span is large against its stored terms is checked by window
arithmetic instead (``LaurentWindow`` products and ``agrees_with``).

User presentations load from a small text format, see ``load_presentation``.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import cache, partial
from math import gcd, inf, lcm

from .errors import CutoffTooLarge, EmbeddingNotRingMap
from .kronecker import pack
from .linalg import phi, pivot_columns
from .scalars import (
    GAUSSIAN_PAIR,
    REAL_IN_GAUSSIAN,
    FieldPair,
    GaussianRational,
    common_denominator,
    gaussian_numerators,
    integer_parts,
    outside_q_i,
)
from .series import LaurentWindow, gaussian_window, linear_combination


class AffinePresentation:
    def __init__(
        self,
        name: str,
        pair: FieldPair,
        degree_fn,
        indices_of_degree_fn,
        embed_fn,
        mul_fn,
        label_fn,
        leading_exact: bool = False,
        max_degree: int | None = None,
    ):
        self.name = name
        self.pair = pair
        self.leading_exact = leading_exact
        self.max_degree = max_degree
        # degree through which leading_exact and the ring map have been
        # checked: -1 (none yet) for a new presentation, so that
        # certified_through checks them lazily; None when they hold in every
        # degree by construction (the built-in curves set it)
        self.verified_degree: int | None = -1
        self._degree = degree_fn
        self._indices_of_degree = indices_of_degree_fn
        self._embed = embed_fn
        self._mul = mul_fn
        self._label = label_fn
        self._embed_cache: dict[int, LaurentWindow] = {}
        self._rule_cache: dict[tuple[int, int], tuple] = {}
        self._pivot_cache: dict[int, list] = {}

    # -- basis bookkeeping -------------------------------------------------

    def degree_of(self, i: int) -> int:
        return self._degree(i)

    def label(self, i: int) -> str:
        return self._label(i)

    def indices_of_degree(self, d: int) -> list[int]:
        if self.max_degree is not None and d > self.max_degree:
            return []
        return list(self._indices_of_degree(d))

    def basis_up_to(self, D: int) -> list[int]:
        """All basis indices of degree <= D, ordered by (degree, index)."""
        if D < 0:
            return []
        out = []
        for d in range(D + 1):
            out.extend(self.indices_of_degree(d))
        return out

    def embed_basis(self, i: int) -> LaurentWindow:
        if i not in self._embed_cache:
            self._embed_cache[i] = self._embed(i)
        return self._embed_cache[i]

    def leading_pivots(self, d: int) -> list:
        """``leading_pivots`` of the presentation's own embedding in degree d, computed once."""
        pivots = self._pivot_cache.get(d)
        if pivots is None:
            pivots = self._pivot_cache[d] = leading_pivots(self, self.embed_basis, 1, d)
        return pivots

    def mul_basis(self, i: int, j: int) -> dict:
        """Structure constants of b_i * b_j as {index: k0 coefficient}: ``rule``, read back."""
        return k0_coefficients(self.pair, *self.rule(i, j))

    def rule(self, i: int, j: int) -> tuple:
        """b_i * b_j as ``mul_fn`` gives it, asked once: (rho, {k: (u, v)}) for constants (u + i*v)/rho.

        b_j * b_i's tuple is kept for it when the two are equal. An index named with (0, 0) is kept:
        its window's cutoff bounds what ``check_ring_map`` compares.
        """
        cache = self._rule_cache
        rule = cache.get((i, j))
        if rule is None:
            rule = self._mul(i, j)
            rule = cache[i, j] = cache[j, i] if cache.get((j, i)) == rule else rule
        return rule

    # -- elements ------------------------------------------------------------

    def embed_element(self, coeffs: dict) -> LaurentWindow:
        """k0-linear extension of the embedding; exact window."""
        return combine(self.embed_basis, coeffs)

    def integer_product(self, a: tuple, b: tuple) -> tuple:
        """a * b for elements in integer form (``integer_element``), in lowest terms.

        It reads each rule b_i * b_j in integer form (``rule``), brings the
        rules to their common denominator and adds up
        (x_a + i*y_a)(x_b + i*y_b)(u + i*v) over their terms as Python ints.
        """
        (da, a_terms), (db, b_terms) = a, b
        rules = self._rule_cache
        terms = []
        for i, (xa, ya) in a_terms.items():
            for j, (xb, yb) in b_terms.items():
                rule = rules.get((i, j)) or self.rule(i, j)
                terms.append((xa * xb - ya * yb, xa * yb + ya * xb, rule))
        common = lcm(*{d for _, _, (d, _) in terms})
        out = {}
        for x, y, (d, constants) in terms:
            if d != common:
                x, y = x * (common // d), y * (common // d)
            for k, (u, v) in constants.items():
                re, im = out.get(k, (0, 0))
                out[k] = (re + x * u - y * v, im + x * v + y * u)
        den = da * db * common
        g = gcd(den, *(z for pair in out.values() for z in pair))
        return den // g, {k: (x // g, y // g) for k, (x, y) in out.items() if x or y}

    def mul_elements(self, a: dict, b: dict) -> dict:
        """a * b for elements {index: k0 coefficient}: ``integer_product``, read back."""
        return k0_coefficients(self.pair, *self.integer_product(integer_element(a), integer_element(b)))

    def element_label(self, coeffs: dict) -> str:
        parts = []
        for i in sorted(coeffs):
            c = coeffs[i]
            if c == 0:
                continue
            cs = str(c)
            parts.append(self.label(i) if cs == "1" else f"{cs}*{self.label(i)}")
        return " + ".join(parts) if parts else "0"

    # -- verification ----------------------------------------------------------

    def verify_ring_map(self, max_degree: int = 6) -> None:
        """Check embed(b_i)*embed(b_j) == embed(b_i * b_j) up to the degree bound."""
        check_ring_map(self, self.embed_basis, max_degree)

    def verify_leading_exact(self, max_degree: int = 6, above: int = -1) -> None:
        """Check both leading_exact conditions degree by degree, in degrees (above, max_degree]."""
        failure = leading_exact_failure(self, self.embed_basis, 1, max_degree, above,
                                        self.leading_pivots)
        if failure is not None:
            raise EmbeddingNotRingMap(f"{self.name}: {failure[1]}")

    def certified_through(self, degree: int) -> bool:
        """Whether a result that reads basis degrees <= ``degree`` is certified.

        It is when the presentation declares ``leading_exact`` and both it
        (the truncation argument rests on it) and the ring map are checked
        through ``degree``. Checks that so far stop below it are extended
        here from the covered degree up, leading_exact first, then the ring
        map (raising EmbeddingNotRingMap on failure); the covered degree is kept.
        """
        if not self.leading_exact:
            return False
        if self.max_degree is not None:
            degree = min(degree, self.max_degree)
        if self.verified_degree is not None and degree > self.verified_degree:
            self.verify_leading_exact(degree, self.verified_degree)
            check_ring_map(self, self.embed_basis, degree, self.verified_degree)
            self.verified_degree = degree
        return True


def integer_element(coeffs: dict) -> tuple:
    """(den, {index: (re, im)}): re + i*im == den*coeffs[index] in Python ints, zeros dropped."""
    parts = integer_parts(coeffs.values())
    if parts is None:
        raise outside_q_i(coeffs.values())
    den, re, im, _ = parts
    return den, {k: (x, y) for k, x, y in zip(coeffs, re, im) if x or y}


def k0_coefficients(pair: FieldPair, den: int, terms: dict) -> dict:
    """An element in integer form as {index: k0 coefficient}: Fractions over Q when real, else Q(i)."""
    if pair.split and not any(y for _, y in terms.values()):
        return {k: Fraction(x, den) for k, (x, _) in terms.items()}
    return {k: GaussianRational(Fraction(x, den), Fraction(y, den)) for k, (x, y) in terms.items()}


def combine(window, coeffs: dict) -> LaurentWindow:
    """sum of c * window(i) over coeffs {i: k0 coefficient}, over one denominator."""
    return linear_combination([(c, window(i)) for i, c in coeffs.items()])


def check_ring_map(pres: AffinePresentation, window, max_degree: int, above: int = -1) -> None:
    """Check window(b_i)*window(b_j) == window(b_i * b_j) in product degrees (above, max_degree].

    ``window`` maps basis indices to Laurent windows: the presentation's own
    embedding or one into a formal-disc model. Each window is read once and
    its numerators N_k are brought to the common denominator Delta of all
    windows read. Each rule b_i * b_j = sum (u_k + i*v_k)/rho * b_k is read
    from the cache that ``AffinePresentation.integer_product`` reads too
    (``AffinePresentation.rule``), so a presentation's rules are fixed once
    it is built. A loaded presentation fills the cache at load; any other
    asks its ``mul_fn`` for a rule met for the first time. The product
    holds when the Gaussian-integer polynomial
    D = rho*N_i*N_j - Delta*sum (u_k + i*v_k)*N_k vanishes at every
    exponent >= c, the cutoff ``LaurentWindow.agrees_with`` compares above
    (the larger of the product's and the right-hand side's cutoffs); with
    no cutoff, everywhere.

    D is one identity on big ints: each N_k is packed at t = 2^B from its
    lowest exponent, the factors are multiplied once and the terms aligned
    by shifts to the frame's lowest exponent o. B is the least with
    rho*w*H^2 + Delta*U*H < 2^(B-1), for H the largest numerator part, w the
    most nonzero parts in one window, and rho and U = sum |u_k| + |v_k| the
    largest over the rules, so every coefficient d of every D has
    |d| < 2^(B-1). Then D vanishes at every exponent >= c exactly when its
    real and imaginary parts have |D| < 2^(B*(c-o)-1), and exactly when
    D == 0 if there is no cutoff or c <= o. A packed frame grows with the
    exponent span, not with the stored terms: a product whose span is at
    least ``_PACKED_SPAN`` times its windows' stored terms (a sparse window,
    or windows far apart) is checked by window arithmetic instead, as
    ``(window(b_i) * window(b_j)).agrees_with`` the rule's combination of
    windows (``mul_basis``), above the same cutoff. That product and
    combination are otherwise built only to report a failing product.
    Window products commute, so b_j * b_i is checked only when its rule is
    another tuple than b_i * b_j's: it is the same tuple when a file lists
    only one order, or both with equal text.
    """
    basis = pres.basis_up_to(max_degree)
    degrees = [pres.degree_of(i) for i in basis]
    rules, products, windows = pres._rule_cache, [], {}
    for x, i in enumerate(basis):
        for y, j in enumerate(basis):
            d = degrees[x] + degrees[y]
            if d > max_degree:
                break  # the basis is ordered by degree
            if d <= above:
                continue
            rule = rules.get((i, j)) or pres.rule(i, j)
            if y < x and rules[j, i] is rule:  # b_j * b_i, met before, has this rule
                continue
            products.append((i, j, *rule))
            for k in (i, j, *rule[1]):
                if k not in windows:
                    windows[k] = window(k)
    if not products:
        return
    delta = lcm(*(w.den for w in windows.values()))
    scale = {k: delta // w.den for k, w in windows.items()}
    # (lowest exponent, top, stored parts) of each window with a nonzero term
    frame = {k: (min(part[0][0] for part in w.terms if part), w.top, len(w.terms[0]) + len(w.terms[1]))
             for k, w in windows.items() if w.top is not None}
    height = max((scale[k] * abs(x) for k, w in windows.items() for part in w.terms for _, x in part),
                 default=0)
    width = max((f[2] for f in frame.values()), default=0)
    bits = 1 + max(rho * width * height**2 + delta * height * sum(abs(u) + abs(v) for u, v in c.values())
                   for *_, rho, c in products).bit_length()
    clipped = any(w.cutoff is not None for w in windows.values())
    packed = {}

    def pack_window(k):
        """N_k at t = 2^bits from its lowest exponent, as (re, im), kept for the call."""
        p = packed[k] = tuple(scale[k] * pack(part, bits, frame[k][0]) for part in windows[k].terms)
        return p

    for i, j, rho, constants in products:
        cut = None
        if clipped:  # the larger of the product's and the right-hand side's cutoffs
            cut = max((c for c in (windows[i].product_cutoff(windows[j]),
                                   *(windows[k].cutoff for k in constants)) if c is not None), default=None)
        # the frame of D: rho*N_i*N_j unless a factor is zero, and each nonzero N_k the rule
        # names (a coefficient 0 adds nothing to D)
        fi, fj = frame.get(i), frame.get(j)
        lhs = fi is not None and fj is not None
        lo, top, count = (fi[0] + fj[0], fi[1] + fj[1], fi[2] + fj[2]) if lhs else (inf, -inf, 0)
        for k in constants:
            f = frame.get(k)
            if f is not None:
                lo, top, count = min(lo, f[0]), max(top, f[1]), count + f[2]
        if not count:
            continue
        packs = top - lo < _PACKED_SPAN * count
        if packs:
            re = im = 0
            for k, (u, v) in constants.items():
                f = frame.get(k)
                if f is not None:
                    pr, pi = packed.get(k) or pack_window(k)
                    shift = bits * (f[0] - lo)
                    if v:
                        re += (u * pr - v * pi) << shift
                        im += (u * pi + v * pr) << shift
                    else:
                        re += u * pr << shift
                        im += u * pi << shift
            re, im = -delta * re, -delta * im
            if lhs:
                (ar, ai), (br, bi) = packed.get(i) or pack_window(i), packed.get(j) or pack_window(j)
                shift = bits * (fi[0] + fj[0] - lo)
                re += rho * (ar * br - ai * bi) << shift
                im += rho * (ar * bi + ai * br) << shift
            limit = 0 if cut is None or cut <= lo else bits * (cut - lo) - 1
            if re.bit_length() <= limit and im.bit_length() <= limit:
                continue
        # a packed product that gets here failed; any other is checked on the windows the report shows
        product, image = windows[i] * windows[j], combine(windows.__getitem__, pres.mul_basis(i, j))
        if packs or not product.agrees_with(image):
            raise EmbeddingNotRingMap(
                f"{pres.name}: embed({pres.label(i)})*embed({pres.label(j)}) "
                f"!= embed of the product: {product} vs {image}"
            )


#: ``check_ring_map`` packs a product whose exponent span is below this many
#: times the stored terms of its windows, and checks any other by window arithmetic
_PACKED_SPAN = 4


def gluing_rows(pair, windows, top: int, low: int, identity: bool = False) -> list:
    """The windows' numerators at t^top .. t^low as integer rows (re, im) of ``linalg``.

    t^e goes to column top - e, realified to columns 2(top - e),
    2(top - e) + 1 when k0 is Q. With ``identity``, row k also holds its
    window's denominator at column width + k.
    """
    width = (top - low + 1) * pair.coord_count
    rows = []
    for k, w in enumerate(windows):
        re, im = ({top - e: x for e, x in part if low <= e <= top} for part in w.terms)
        row = (phi(re, im), {}) if pair.split else (re, im)
        if identity:
            row[0][width + k] = w.den
        rows.append(row)
    return rows


def leading_pivots(pres: AffinePresentation, window, jump: int, d: int) -> list:
    """The pivot parts of degree d's leading coefficients at t^(d*jump), over k0.

    Part p is the real (0) or imaginary (1) coordinate for a (Q, Q(i))
    pair, and 0 over Q(i). There is one per basis element of degree d
    exactly when those coefficients are k0-independent.
    """
    windows = [window(i) for i in pres.indices_of_degree(d)]
    return pivot_columns(gluing_rows(pres.pair, windows, d * jump, d * jump))


def leading_exact_failure(pres: AffinePresentation, window, jump: int, max_degree: int,
                          above: int = -1, pivots=None):
    """(first failing degree, why) for ``window`` and the leading_exact conditions, or None.

    Degrees above+1..max_degree are checked in order. Each basis element of
    degree d must have pole order d*jump, and the leading coefficients
    within each degree must be k0-linearly independent, that is, have one
    ``leading_pivots`` entry per element. ``pivots`` maps d to those
    pivots when the caller keeps them for the H^1 read-off.
    """
    pivots = pivots or partial(leading_pivots, pres, window, jump)
    for d in range(above + 1, max_degree + 1):
        indices = pres.indices_of_degree(d)
        for i in indices:
            if window(i).pole_order() != d * jump:
                return d, f"pole_order(embed({pres.label(i)})) != {d * jump} (degree {d})"
        if len(pivots(d)) != len(indices):
            return d, f"leading coefficients in degree {d} are k0-dependent"
    return None


# ---------------------------------------------------------------------------
# built-in presentations
# ---------------------------------------------------------------------------


@cache
def p1_presentation() -> AffinePresentation:
    """The complex projective line: basis {t^i}, embed(t^i) = t^i; one shared value."""

    def label(i):
        return "1" if i == 0 else ("t" if i == 1 else f"t^{i}")

    pres = AffinePresentation(
        name="p1",
        pair=GAUSSIAN_PAIR,
        degree_fn=lambda i: i,
        indices_of_degree_fn=lambda d: [d],
        embed_fn=lambda i: gaussian_window({i: 1}),
        mul_fn=lambda i, j: (1, {i + j: (1, 0)}),
        label_fn=label,
        leading_exact=True,
    )
    pres.verified_degree = None
    return pres


def _twistor_decode(i: int):
    """index -> (power of u, has v factor); degree = power + has_v."""
    if i == 0:
        return 0, False
    if i % 2 == 1:
        return (i + 1) // 2, False
    return i // 2 - 1, True


def _twistor_encode(p: int, has_v: bool) -> int:
    if not has_v:
        return 0 if p == 0 else 2 * p - 1
    return 2 * (p + 1)


_TWISTOR_U = gaussian_window({1: Fraction(1, 2), -1: Fraction(-1, 2)})
_TWISTOR_V = gaussian_window({1: GaussianRational(Fraction(0), Fraction(-1, 2)),
                              -1: GaussianRational(Fraction(0), Fraction(-1, 2))})


@cache
def twistor_presentation() -> AffinePresentation:
    """The twistor projective line Q[u,v]/(u^2+v^2+1), reduced basis {u^i, u^i v}; one shared value.

    The relation eliminates v^2, so every product of basis elements is a
    short integer combination of basis elements, and the leading window
    coefficients (1/2)^d and -i*(1/2)^d in each degree are Q-independent.
    u^p is built as u^(p-1)*u and u^p*v as u^p*v from the presentation's
    own window cache. Its entries are keyed by basis index, so threads
    that fill one entry at the same time store equal windows.
    """

    def embed(i):
        p, has_v = _twistor_decode(i)
        if has_v:
            return pres.embed_basis(_twistor_encode(p, False)) * _TWISTOR_V
        if p == 0:
            return _TWISTOR_U.power(0)
        for q in range(1, p):  # lower powers first, so a cold high power recurses one level
            pres.embed_basis(_twistor_encode(q, False))
        return pres.embed_basis(_twistor_encode(p - 1, False)) * _TWISTOR_U

    def degree(i):
        p, has_v = _twistor_decode(i)
        return p + (1 if has_v else 0)

    def indices_of_degree(d):
        if d == 0:
            return [0]
        return [_twistor_encode(d, False), _twistor_encode(d - 1, True)]

    def mul(i, j):
        pi, fi = _twistor_decode(i)
        pj, fj = _twistor_decode(j)
        p = pi + pj
        if not (fi and fj):
            return 1, {_twistor_encode(p, fi or fj): (1, 0)}
        # v^2 = -1 - u^2
        return 1, {_twistor_encode(p, False): (-1, 0), _twistor_encode(p + 2, False): (-1, 0)}

    def label(i):
        p, has_v = _twistor_decode(i)
        if p == 0:
            return "v" if has_v else "1"
        up = "u" if p == 1 else f"u^{p}"
        return f"{up}*v" if has_v else up

    pres = AffinePresentation(
        name="twistor",
        pair=REAL_IN_GAUSSIAN,
        degree_fn=degree,
        indices_of_degree_fn=indices_of_degree,
        embed_fn=embed,
        mul_fn=mul,
        label_fn=label,
        leading_exact=True,
    )
    pres.verified_degree = None
    return pres


# ---------------------------------------------------------------------------
# declarative text format
# ---------------------------------------------------------------------------
#
#   fields rational gaussian      (or: fields gaussian gaussian; exactly one line)
#   flags leading_exact           (at most one line; leading_exact is the one flag)
#   basis <symbol> <degree>
#   mul <sym> <sym> = <coeff>*<sym> + <coeff>*<sym> + ...
#   embed <sym> = <coeff>*t^<exp> + ...
#
# Coefficients are rationals "a/b" or Gaussians "a/b+c/d*i"; terms are
# separated by " + " (the spaces matter, Gaussian coefficients contain
# bare '+'), and a term's coefficient ends at the first '*' that a symbol
# or monomial follows. Lines starting with '#' are comments. Lines may come
# in any order: a symbol may be used above its basis line. A product a * b
# whose degree is at most the top declared degree needs a rule; when only
# one of mul a b and mul b a is listed, it serves both orders. Everything
# else must be explicit.

#: each directive: the pattern of the text after it, and the form a malformed line is told
_FORMS = {
    "fields": (_re.compile(r"(rational|gaussian)\s+gaussian"), "fields rational|gaussian gaussian"),
    "flags": (_re.compile(r".*"), "flags <flag> ..."),
    "basis": (_re.compile(r"(\S+)\s+([+-]?\d+)"), "basis <symbol> <degree>"),
    "mul": (_re.compile(r"([^\s=]+)\s+([^\s=]+)\s*=(.*)"), "mul <symbol> <symbol> = <coeff>*<symbol> + ..."),
    "embed": (_re.compile(r"([^\s=]+)\s*=(.*)"), "embed <symbol> = <coeff>*t^<exponent> + ..."),
}
_EXPONENT = _re.compile(r"t\^\s*([+-]?\d+)")
#: an embed term "<int>[/<int>][i]*t^<int>", read without ``_parse_term`` and ``gaussian_numerators``
_PLAIN_TERM = _re.compile(r"([+-]?\d+)(?:/(\d+))?(i?)\*t\^([+-]?\d+)")


def _parse_term(term: str, read):
    """(coefficient, target, read(target)) of "<coeff>*<target>", or of "<target>" with coefficient "1".

    ``read`` gives None for text that is no target. The cut is the first '*'
    that a target follows, so a coefficient "c/d*i" and a symbol containing
    '*' both read whole. With no such '*' the cut is the first one and the
    value None, for the caller to report.
    """
    first = k = term.find("*")
    if k < 0:
        target = term.strip()
        return "1", target, read(target)
    while k >= 0:
        target = term[k + 1:].strip()
        value = read(target)
        if value is not None:
            return term[:k].strip(), target, value
        k = term.find("*", k + 1)
    return term[:first].strip(), term[first + 1:].strip(), None


def _embed_exponent(mono: str):
    """The exponent of an embed monomial "t", "t^e" or "1"; None for anything else."""
    if m := _EXPONENT.fullmatch(mono):
        return int(m[1])
    return 1 if mono == "t" else 0 if mono == "1" else None


#: degree through which ``load_presentation`` checks the ring map and leading_exact
LOAD_VERIFY_DEGREE = 6


def load_presentation(text: str, name: str = "user") -> AffinePresentation:
    """Parse the declarative text format and verify the declared flags.

    The ``fields``, ``flags`` and ``basis`` lines are read before the ``mul``
    and ``embed`` lines, each pass in line order. A malformed line raises
    ValueError naming its number: besides text that does not parse or lacks
    its directive's form, a second ``fields`` or ``flags`` line, a flag
    other than leading_exact, a repeated basis symbol, a negative degree, a
    second rule for one ordered product or a second embedding of one
    symbol, a symbol repeated on the right of a rule, an exponent repeated
    in one embedding, an undeclared symbol, and a constant with an i part
    over (Q, Q(i)). A file is refused too without a ``fields`` line (before
    its rules are read), with a symbol not embedded, or with a product of
    degree at most the top one that has no rule in either order.

    Each right-hand side is parsed once per distinct text, and its rule kept
    once in integer form (``AffinePresentation.rule``): products whose rules
    have the same text share one tuple, and b * a shares a * b's when only
    a * b is listed. An embed term "<int>[/<int>][i]*t^<int>" is read by one
    match; any other term goes through ``_parse_term`` and
    ``gaussian_numerators``, which word every refusal. Both checks run up to
    ``LOAD_VERIFY_DEGREE`` (capped at the top degree) here; a computation
    that reads higher degrees extends them, leading_exact first
    (``certified_through``).
    """
    pair = flags = None
    symbols, degrees, index = [], [], {}
    rules: dict[tuple[int, int], tuple] = {}  # (a, b) by index -> (den, {index: (re, im)})
    embeds: dict[str, LaurentWindow] = {}
    later = []  # (line number, directive, match) of each mul and embed line
    parsed: dict[str, tuple] = {}  # mul right-hand-side text -> its rule, shared by every product with that text

    @cache
    def constant(coeff):  # (den, (re, im)) in lowest terms, as integer_element clears it
        den, re, im = gaussian_numerators(coeff)
        if im and pair.split:
            raise ValueError(f"structure constant {coeff!r} is not rational")
        g = gcd(den, re, im)
        return den // g, (re // g, im // g)

    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:  # a malformed line raises ValueError, reported with its number
            head, *rest = line.split(None, 1)
            if head not in _FORMS:
                raise ValueError(f"unknown directive {head!r}")
            m = _FORMS[head][0].fullmatch(rest[0] if rest else "")
            if m is None:
                raise ValueError(f"expected {_FORMS[head][1]!r}, got {line!r}")
            if head == "fields":
                if pair is not None:
                    raise ValueError("second 'fields' line")
                pair = REAL_IN_GAUSSIAN if m[1] == "rational" else GAUSSIAN_PAIR
            elif head == "flags":
                if flags is not None:
                    raise ValueError("second 'flags' line")
                flags = m[0].split()
                if unknown := [f for f in flags if f != "leading_exact"]:
                    raise ValueError(f"unknown flag {unknown[0]!r}, expected 'leading_exact'")
            elif head == "basis":
                sym, deg = m[1], int(m[2])
                if sym in index:
                    raise ValueError(f"basis symbol {sym!r} declared twice")
                if deg < 0:
                    raise ValueError(f"negative degree {deg} for {sym!r}")
                index[sym] = len(symbols)
                symbols.append(sym)
                degrees.append(deg)
            else:
                later.append((number, head, m))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    if pair is None:
        raise ValueError("missing 'fields' line")

    for number, head, m in later:
        try:
            if head == "mul":
                a, b, rhs = m.groups()
                if unknown := [s for s in (a, b) if s not in index]:
                    raise ValueError(f"mul names undeclared symbol {unknown[0]!r}")
                if (index[a], index[b]) in rules:
                    raise ValueError(f"second rule for {a} * {b}")
                if (rule := parsed.get(rhs)) is None:  # the first line with this text
                    dens, terms = {}, {}  # index -> den and (re, im) of its constant
                    for term in rhs.strip().split(" + "):
                        coeff, sym, k = _parse_term(term, index.get)
                        if k is None:
                            raise ValueError(f"mul result references unknown symbol {sym!r}")
                        if k in terms:
                            raise ValueError(f"symbol {sym!r} repeated in the rule for {a} * {b}")
                        dens[k], terms[k] = constant(coeff)
                    den = lcm(*dens.values())
                    if den != 1:
                        terms = {k: (x * (den // dens[k]), y * (den // dens[k])) for k, (x, y) in terms.items()}
                    rule = parsed[rhs] = den, terms
                rules[index[a], index[b]] = rule
            else:  # embed
                sym, rhs = m.groups()
                if sym not in index:
                    raise ValueError(f"embed names undeclared symbol {sym!r}")
                if sym in embeds:
                    raise ValueError(f"second embedding of {sym!r}")
                terms = {}  # exponent -> (den, re, im) numerators
                for term in rhs.strip().split(" + "):
                    plain = _PLAIN_TERM.fullmatch(term)
                    if plain and (den := int(plain[2] or 1)):  # (den, re, im) as gaussian_numerators reads it
                        e, num = int(plain[4]), int(plain[1])
                        value = (den, 0, num) if plain[3] else (den, num, 0)
                    else:  # every other term, and every term that is refused
                        coeff, mono, e = _parse_term(term, _embed_exponent)
                        if e is None:
                            raise ValueError(f"bad embed monomial {mono!r}, expected 't^<exponent>', 't' or '1'")
                        value = None
                    if e in terms:
                        raise ValueError(f"exponent {e} repeated in the embedding of {sym!r}")
                    terms[e] = value or gaussian_numerators(coeff)
                embeds[sym] = LaurentWindow.from_integers(*common_denominator(terms))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    if missing := [s for s in symbols if s not in embeds]:
        raise ValueError(f"missing embeddings for {missing}")
    for (i, j), rule in list(rules.items()):  # b * a shares a * b's tuple, unless the file lists b * a
        rules.setdefault((j, i), rule)
    top = max(degrees, default=0)
    gaps = ((i, j) for i in range(len(symbols)) for j in range(i, len(symbols))
            if degrees[i] + degrees[j] <= top and (i, j) not in rules)
    if gap := next(gaps, None):
        raise ValueError(f"no product rule for {symbols[gap[0]]} * {symbols[gap[1]]} in either order")
    by_degree: dict[int, list[int]] = {}
    for i, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(i)

    def past_top(i, j):  # every listed rule is in the cache, so b_i * b_j lies past the top degree
        raise CutoffTooLarge(f"presentation declares degrees up to {top}; "
                             f"{symbols[i]} * {symbols[j]} has degree {degrees[i] + degrees[j]}")

    pres = AffinePresentation(
        name=name,
        pair=pair,
        degree_fn=degrees.__getitem__,
        indices_of_degree_fn=lambda d: by_degree.get(d, []),
        embed_fn=lambda i: embeds[symbols[i]],
        mul_fn=past_top,
        label_fn=symbols.__getitem__,
        leading_exact="leading_exact" in (flags or ()),
        max_degree=top,
    )
    pres._rule_cache.update(rules)
    cap = min(LOAD_VERIFY_DEGREE, top)
    pres.verify_ring_map(cap)
    if pres.leading_exact:
        pres.verify_leading_exact(cap)
    pres.verified_degree = cap
    return pres
