"""Graded presentations of the algebra of sections regular away from infinity.

An ``AffinePresentation`` lists a k0-basis b_0, b_1, ... with degrees, a
multiplication table with structure constants in k0, and an embedding of
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
(``verify_leading_exact``), as is the ring map (``check_ring_map``, one
integer identity per product), through every degree a result reads.

User presentations load from a small text format, see ``load_presentation``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .errors import EmbeddingNotRingMap
from .linalg import phi, pivot_columns
from .scalars import (
    GAUSSIAN_PAIR,
    REAL_IN_GAUSSIAN,
    FieldPair,
    GaussianRational,
    as_fraction,
    common_denominator,
    gaussian_numerators,
    integer_parts,
    outside_q_i,
    parse_gaussian,
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
        # degree through which leading_exact has been checked; None when
        # it holds in every degree by construction (the built-in curves)
        self.verified_degree: int | None = None
        self._degree = degree_fn
        self._indices_of_degree = indices_of_degree_fn
        self._embed = embed_fn
        self._mul = mul_fn
        self._label = label_fn
        self._embed_cache: dict[int, LaurentWindow] = {}
        self._rule_cache: dict[tuple[int, int], tuple] = {}

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

    def mul_basis(self, i: int, j: int) -> dict:
        """Structure constants of b_i * b_j as {index: k0 coefficient}."""
        return self._mul(i, j)

    # -- elements ------------------------------------------------------------

    def embed_element(self, coeffs: dict) -> LaurentWindow:
        """k0-linear extension of the embedding; exact window."""
        return combine(self.embed_basis, coeffs)

    def integer_product(self, a: tuple, b: tuple) -> tuple:
        """a * b for elements in integer form (``integer_element``), in lowest terms.

        Each rule b_i * b_j is cleared once per presentation. A product
        brings the rules it reads to their common denominator and adds up
        (x_a + i*y_a)(x_b + i*y_b)(u + i*v) over their terms as Python ints.
        """
        (da, a_terms), (db, b_terms) = a, b
        rules = self._rule_cache
        terms = []
        for i, (xa, ya) in a_terms.items():
            for j, (xb, yb) in b_terms.items():
                rule = rules.get((i, j))
                if rule is None:
                    rule = rules[i, j] = integer_element(self.mul_basis(i, j))
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
        den, terms = self.integer_product(integer_element(a), integer_element(b))
        if self.pair.split and not any(y for _, y in terms.values()):
            return {k: Fraction(x, den) for k, (x, _) in terms.items()}
        return {k: GaussianRational(Fraction(x, den), Fraction(y, den))
                for k, (x, y) in terms.items()}

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
        failure = leading_exact_failure(self, self.embed_basis, 1, max_degree, above)
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


def combine(window, coeffs: dict) -> LaurentWindow:
    """sum of c * window(i) over coeffs {i: k0 coefficient}, over one denominator."""
    return linear_combination([(c, window(i)) for i, c in coeffs.items()])


def check_ring_map(pres: AffinePresentation, window, max_degree: int, above: int = -1) -> None:
    """Check window(b_i)*window(b_j) == window(b_i * b_j) in product degrees (above, max_degree].

    ``window`` maps basis indices to Laurent windows: the presentation's own
    embedding or one into a formal-disc model. Each product is an identity
    between the windows' integer numerators (a window product against
    ``combine``), compared where ``LaurentWindow.agrees_with`` compares.
    Window products commute, so b_j * b_i is checked only when its rule
    differs from b_i * b_j's.
    """
    basis = pres.basis_up_to(max_degree)
    degrees = [pres.degree_of(i) for i in basis]
    rules = {}
    for x, i in enumerate(basis):
        for y, j in enumerate(basis):
            if not above < degrees[x] + degrees[y] <= max_degree:
                continue
            rule = rules[i, j] = pres.mul_basis(i, j)
            if y < x and rules[j, i] == rule:
                continue
            lhs, rhs = window(i) * window(j), combine(window, rule)
            if not lhs.agrees_with(rhs):
                raise EmbeddingNotRingMap(
                    f"{pres.name}: embed({pres.label(i)})*embed({pres.label(j)}) "
                    f"!= embed of the product: {lhs} vs {rhs}"
                )


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


def leading_exact_failure(pres: AffinePresentation, window, jump: int, max_degree: int,
                          above: int = -1):
    """(first failing degree, why) for ``window`` and the leading_exact conditions, or None.

    Degrees above+1..max_degree are checked in order. Each basis element of
    degree d must have pole order d*jump, and the leading coefficients
    within each degree must be k0-linearly independent.
    """
    for d in range(above + 1, max_degree + 1):
        indices = pres.indices_of_degree(d)
        for i in indices:
            if window(i).pole_order() != d * jump:
                return d, f"pole_order(embed({pres.label(i)})) != {d * jump} (degree {d})"
        rows = gluing_rows(pres.pair, [window(i) for i in indices], d * jump, d * jump)
        if len(pivot_columns(rows)) != len(rows):
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

    return AffinePresentation(
        name="p1",
        pair=GAUSSIAN_PAIR,
        degree_fn=lambda i: i,
        indices_of_degree_fn=lambda d: [d],
        embed_fn=lambda i: gaussian_window({i: 1}),
        mul_fn=lambda i, j: {i + j: GaussianRational.of(1)},
        label_fn=label,
        leading_exact=True,
    )


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
            return {_twistor_encode(p, fi or fj): Fraction(1)}
        # v^2 = -1 - u^2
        return {
            _twistor_encode(p, False): Fraction(-1),
            _twistor_encode(p + 2, False): Fraction(-1),
        }

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
    return pres


# ---------------------------------------------------------------------------
# declarative text format
# ---------------------------------------------------------------------------
#
#   fields rational gaussian      (or: fields gaussian gaussian)
#   flags leading_exact
#   basis <symbol> <degree>
#   mul <sym> <sym> = <coeff>*<sym> + <coeff>*<sym> + ...
#   embed <sym> = <coeff>*t^<exp> + ...
#
# Coefficients are rationals "a/b" or Gaussians "a/b+c/d*i"; terms are
# separated by " + " (the spaces matter, Gaussian coefficients contain
# bare '+'), and a term's coefficient ends at the first '*' that a symbol
# or monomial follows. Lines starting with '#' are comments. Products not
# listed default to commutativity (mul b a is looked up when mul a b is
# absent); everything else must be explicit.


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
    if mono.startswith("t^"):
        return int(mono[2:])
    return 1 if mono == "t" else 0 if mono == "1" else None


#: degree through which ``load_presentation`` checks the ring map and leading_exact
LOAD_VERIFY_DEGREE = 6


def load_presentation(text: str, name: str = "user") -> AffinePresentation:
    """Parse the declarative text format and verify the declared flags.

    Both checks run up to ``LOAD_VERIFY_DEGREE`` (capped at the file's top
    degree) here; a computation that reads higher degrees extends them from
    there, the leading_exact check first (``certified_through``).
    """
    pair = None
    leading_exact = False
    symbols: list[str] = []
    degrees: dict[str, int] = {}
    mul_table: dict[tuple[str, str], dict[str, str]] = {}
    embeds: dict[str, LaurentWindow] = {}

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split(None, 1)
        body = rest[0] if rest else ""
        if head == "fields":
            k0, k1 = body.split()
            if (k0, k1) == ("rational", "gaussian"):
                pair = REAL_IN_GAUSSIAN
            elif (k0, k1) == ("gaussian", "gaussian"):
                pair = GAUSSIAN_PAIR
            else:
                raise ValueError(f"unsupported field pair {k0} {k1}")
        elif head == "flags":
            leading_exact = "leading_exact" in body.split()
        elif head == "basis":
            sym, deg = body.split()
            symbols.append(sym)
            degrees[sym] = int(deg)
        elif head == "mul":
            lhs, rhs = body.split("=", 1)
            a, b = lhs.split()
            entry = {}
            for term in rhs.strip().split(" + "):
                coeff, sym, degree = _parse_term(term, degrees.get)
                if degree is None:
                    raise ValueError(f"mul result references unknown symbol {sym!r}")
                entry[sym] = coeff
            mul_table[(a, b)] = entry
        elif head == "embed":
            sym, rhs = body.split("=", 1)
            sym = sym.strip()
            terms = {}  # exponent -> (den, re, im) numerators
            for term in rhs.strip().split(" + "):
                coeff, mono, e = _parse_term(term, _embed_exponent)
                if e is None:
                    raise ValueError(f"bad embed monomial {mono!r}")
                terms[e] = gaussian_numerators(coeff)
            embeds[sym] = LaurentWindow.from_integers(*common_denominator(terms))
        else:
            raise ValueError(f"unknown directive {head!r}")

    if pair is None:
        raise ValueError("missing 'fields' line")
    missing = [s for s in symbols if s not in embeds]
    if missing:
        raise ValueError(f"missing embeddings for {missing}")

    index = {s: i for i, s in enumerate(symbols)}
    by_degree: dict[int, list[int]] = {}
    for s in symbols:
        by_degree.setdefault(degrees[s], []).append(index[s])
    # structure constants as k0 scalars, parsed once: a malformed one fails the load
    k0_scalar = cache(as_fraction if pair.split else parse_gaussian)
    rules = {
        key: {index[s]: k0_scalar(c) for s, c in entry.items()} for key, entry in mul_table.items()
    }

    def mul(i, j):
        key = (symbols[i], symbols[j])
        rule = rules.get(key) or rules.get((key[1], key[0]))
        if rule is None:
            raise ValueError(f"no product rule for {key[0]} * {key[1]}")
        return rule

    pres = AffinePresentation(
        name=name,
        pair=pair,
        degree_fn=lambda i: degrees[symbols[i]],
        indices_of_degree_fn=lambda d: sorted(by_degree.get(d, [])),
        embed_fn=lambda i: embeds[symbols[i]],
        mul_fn=mul,
        label_fn=lambda i: symbols[i],
        leading_exact=leading_exact,
        max_degree=max(degrees.values()) if degrees else 0,
    )
    cap = min(LOAD_VERIFY_DEGREE, pres.max_degree)
    pres.verify_ring_map(cap)
    if leading_exact:
        pres.verify_leading_exact(cap)
    pres.verified_degree = cap
    return pres
