"""The graded ring of global sections P = (+)_{n>=0} H^0(X, O(n)).

All bases come from one certified H^0(O(D)). On a certified presentation an
element's pole order is its degree (``leading_exact``), so P_n is the span
of the affine basis up to degree n. The reduced echelon rows of H^0(O(D))
that pivot at or below t^n span the elements vanishing above t^n and are in
reduced echelon form; a subspace has one such form per column order, so
they are H^0(O(n))'s own basis: the rows supported in degrees <= n.
``degree_one_generation`` reports the kernel of Sym^n(P_1) -> P_n per degree
(for the twistor line the degree-2 kernel is spanned by u*u + v*v + 1*1, the
quadric relation; for the projective line all kernels vanish). From degree 4
on it reports only len(monomials) - rank, and certifies rank = dim P_n
without forming a product when it can:

* rank <= dim P_n: each rule b_i * b_j with b_j in P_1's support keeps to
  degrees <= deg b_i + deg b_j (checked), so the monomials lie in P_n;
* rank >= sum r_m: the ring map is certified through D, so a monomial's
  window is the product of its factors': pole orders add and leading
  coefficients multiply. r_m monomials of pole order m with k0-independent
  leading coefficients (r_m = 1 over Q(i); over Q, 2 when some two are not
  Q-proportional) are triangular by pole order, hence independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import lcm

from .cohomology import h0
from .errors import CutoffTooLarge, EmbeddingNotRingMap, NotInSpan, NotStabilized
from .linalg import kernel_vectors, pivot_columns, span_coordinates
from .presentation import AffinePresentation, integer_element


@dataclass
class SectionRing:
    pres: AffinePresentation
    D: int
    bases: list          # bases[n] = list of {affine index: k0 coeff}

    def _degree(self, n: int) -> int:
        if not 0 <= n <= self.D:
            raise ValueError(f"degree {n} outside the ring's degrees 0..{self.D}")
        return n

    def dim(self, n: int) -> int:
        return len(self.bases[self._degree(n)])

    def element_label(self, n: int, j: int) -> str:
        return self.pres.element_label(self.bases[self._degree(n)][j])

    def multiply(self, m: int, a: int, n: int, b: int) -> list:
        """Coordinates of (basis element a of P_m) * (b of P_n) in the P_{m+n} basis."""
        if self._degree(m) + self._degree(n) > self.D:
            raise ValueError(f"product degree {m + n} exceeds ring cutoff {self.D}")
        prod = self.pres.mul_elements(self.bases[m][a], self.bases[n][b])
        return self.express(m + n, prod)

    def express(self, k: int, vec: dict) -> list:
        """Express an affine element in the echelon basis of P_k (NotInSpan if impossible)."""
        self._degree(k)
        extra = set(vec) - set(self.pres.basis_up_to(k))
        if extra:
            raise NotInSpan(f"element uses affine basis indices {sorted(extra)} outside the slice")
        forms = [integer_element(b) for b in self.bases[k]] + [integer_element(vec)]
        x = span_coordinates(_column_rows(forms), self.dim(k), not self.pres.pair.split)
        if x is None:
            raise NotInSpan(
                f"product does not lie in P_{k} (presentation bug): {self.pres.element_label(vec)}"
            )
        return [x.get(j, self.pres.pair.base_zero()) for j in range(self.dim(k))]


def _column_rows(forms) -> list:
    """Integer rows (re, im) of the matrix whose column m is forms[m], one row per affine index.

    The forms are elements in integer form (``integer_element``), each
    column is brought to their common denominator, and scaling all columns
    by one nonzero scalar keeps the kernel and the rank.
    """
    common = lcm(*(den for den, _ in forms))
    rows = {}
    for m, (den, terms) in enumerate(forms):
        s = common // den
        for i, (x, y) in terms.items():
            re, im = rows.setdefault(i, ({}, {}))
            if x:
                re[m] = x * s
            if y:
                im[m] = y * s
    return list(rows.values())


def build_section_ring(pres: AffinePresentation, D: int) -> SectionRing:
    """H^0 bases for all degrees 0..D from one certified H^0(O(D)) (module docstring)."""
    if pres.max_degree is not None and D > pres.max_degree:
        raise CutoffTooLarge(
            f"presentation declares degrees up to {pres.max_degree}; "
            f"the section ring needs D <= {pres.max_degree}, got D={D}"
        )
    # without leading_exact no degree is certified, so P_0 is the first to fail
    if not pres.certified_through(D):
        raise NotStabilized("H^0(O(0)) is not certified; cannot build P_0")
    top = h0(pres, D, D).h0_basis
    degrees = [max(map(pres.degree_of, v)) for v in top]
    bases = [[v for v, d in zip(top, degrees) if d <= n] for n in range(D + 1)]
    return SectionRing(pres=pres, D=D, bases=bases)


def hilbert_function(sr: SectionRing) -> list:
    return [sr.dim(n) for n in range(sr.D + 1)]


@dataclass
class GenerationReport:
    surjective: dict        # n -> bool
    kernel_dims: dict       # n -> int
    kernel_generators: dict  # n -> list of {monomial label: coeff str}, degrees <= 3 only
    monomials: dict         # n -> list of monomial index tuples

    def to_json(self) -> dict:
        return {
            "surjective": {str(n): v for n, v in sorted(self.surjective.items())},
            "kernel_dims": {str(n): v for n, v in sorted(self.kernel_dims.items())},
            "kernel_generators": {
                str(n): gens for n, gens in sorted(self.kernel_generators.items())
            },
        }


def degree_one_generation(sr: SectionRing) -> GenerationReport:
    """Rank and kernel of the multiplication maps Sym^n(P_1) -> P_n.

    Monomials are ordered combinations of the echelonized P_1 basis, so the
    report is deterministic. The rules are checked graded first. From degree
    4 on, when the k0-ranks r_m of the monomials' leading coefficients (read
    off ``embed_element``, each from its degree n-1 prefix's) add up to dim
    P_n, that is the rank (module docstring). Otherwise, and in degrees <= 3,
    each monomial is its prefix's product, built on first need, times one
    more degree-1 element (``integer_product``). P_n spans every affine
    element of degree <= n, so the products (one column per monomial) have
    the same dependencies over the affine basis as over P_n's, and one
    elimination decides them:

    * the columns are brought to one common denominator (``_column_rows``);
      scaling every column by the same nonzero scalar leaves the kernel
      unchanged, so the kernel of the integer matrix is that of the
      products;
    * in degrees n >= 4 the rank is the number of pivot columns, which the
      forward pass alone decides (``pivot_columns``). Only the degrees
      n <= 3, whose generators are listed, are fully reduced.
    """
    if sr.D < 2:
        raise ValueError("degree-one generation needs D >= 2")
    pres = sr.pres
    _check_graded(sr)
    gaussian = not pres.pair.split
    one = pres.pair.base_one()
    degree_one = [integer_element(v) for v in sr.bases[1]]
    # (pole order, leading numerators re, im) of each P_1 element, then of each monomial
    firsts = [(w.top, *(dict(p).get(w.top, 0) for p in w.terms)) for w in map(pres.embed_element, sr.bases[1])]
    leads, products, built = {(): (0, 1, 0)}, {(j,): f for j, f in enumerate(degree_one)}, 1
    surjective, kernel_dims, kernel_gens, monomials = {}, {}, {}, {}
    for n in range(1, sr.D + 1):
        monos = monomials[n] = list(combinations_with_replacement(range(len(degree_one)), n))
        leads = {mono: (m + e, x * u - y * v, x * v + y * u)  # orders add, leading numerators multiply
                 for mono in monos for (m, x, y), (e, u, v) in [(leads[mono[:-1]], firsts[mono[-1]])]}
        if n > 3 and _leading_rank(leads.values(), gaussian) == sr.dim(n):
            rank = sr.dim(n)
        else:
            for k in range(built + 1, n + 1):
                # a sorted monomial's prefix is a degree k-1 monomial: one more factor each
                products = {mono: pres.integer_product(products[mono[:-1]], degree_one[mono[-1]])
                            for mono in monomials[k]}
            built = n
            rows = _column_rows(list(products.values()))
            if n <= 3:
                kern = kernel_vectors(rows, len(monos), gaussian)
                rank = len(monos) - len(kern)
                kernel_gens[n] = [
                    {"*".join(sr.element_label(1, j) for j in monos[k]): str(c)
                     for k, c in sorted({fc: one, **entries}.items())}
                    for fc, entries in kern
                ]
            else:
                rank = len(pivot_columns(rows))
        # surjective: the products span P_n
        surjective[n] = rank == sr.dim(n)
        kernel_dims[n] = len(monos) - rank
    return GenerationReport(
        surjective=surjective,
        kernel_dims=kernel_dims,
        kernel_generators=kernel_gens,
        monomials=monomials,
    )


def _check_graded(sr):
    """EmbeddingNotRingMap unless each b_i * b_j, b_j in P_1's support, has degree <= deg b_i + deg b_j."""
    pres, degree = sr.pres, sr.pres.degree_of
    for j in {j for v in sr.bases[1] for j in v}:
        for i in pres.basis_up_to(sr.D - degree(j)):
            (_, constants), d = pres.rule(i, j), degree(i) + degree(j)
            if any((u or v) and degree(k) > d for k, (u, v) in constants.items()):
                raise EmbeddingNotRingMap(f"{pres.name}: {pres.label(i)}*{pres.label(j)} = "
                                          f"{pres.element_label(pres.mul_basis(i, j))} has degree > {d}")


def _leading_rank(leads, gaussian):
    """sum over pole orders m of r_m, the k0-rank of the leading numerators (re, im) at m."""
    rep = {m: (x, y) for m, x, y in leads}
    # over Q, r_m = 2 when some coefficient at m is not Q-proportional to rep[m]
    full = {m for m, x, y in leads if not gaussian and rep[m][0] * y != rep[m][1] * x}
    return len(rep) + len(full)
