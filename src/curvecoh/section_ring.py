"""The graded ring of global sections P = (+)_{n>=0} H^0(X, O(n)).

All bases come from one certified H^0(O(D)). On a certified presentation an
element's pole order is its degree (``leading_exact``), so P_n is the span
of the affine basis up to degree n. The reduced echelon rows of H^0(O(D))
that pivot at or below t^n span the elements vanishing above t^n and are in
reduced echelon form; a subspace has one such form per column order, so
they are H^0(O(n))'s own basis: the rows supported in degrees <= n.
``degree_one_generation`` reports the kernel of Sym^n(P_1) -> P_n per degree
(for the twistor line the degree-2 kernel is spanned by u*u + v*v + 1*1, the
quadric relation; for the projective line all kernels vanish). It runs on
integer rows, with two arguments. One common denominator per degree keeps
the kernel: the products are brought to it, and scaling every column by the
same nonzero scalar does not change which combinations of them vanish. From
degree 4 on the report gives only the kernel's dimension, len(monomials) -
rank, and the forward pass alone decides the rank (``linalg.pivot_columns``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import lcm

from .cohomology import h0
from .errors import CutoffTooLarge, NotInSpan, NotStabilized
from .linalg import kernel_vectors, pivot_columns, span_coordinates
from .presentation import AffinePresentation, integer_element


@dataclass
class SectionRing:
    pres: AffinePresentation
    D: int
    bases: list          # bases[n] = list of {affine index: k0 coeff}

    def dim(self, n: int) -> int:
        return len(self.bases[n])

    def element_label(self, n: int, j: int) -> str:
        return self.pres.element_label(self.bases[n][j])

    def multiply(self, m: int, a: int, n: int, b: int) -> list:
        """Coordinates of (basis element a of P_m) * (b of P_n) in the P_{m+n} basis."""
        if m + n > self.D:
            raise ValueError(f"product degree {m + n} exceeds ring cutoff {self.D}")
        prod = self.pres.mul_elements(self.bases[m][a], self.bases[n][b])
        return self.express(m + n, prod)

    def express(self, k: int, vec: dict) -> list:
        """Express an affine element in the echelon basis of P_k (NotInSpan if impossible)."""
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
    bases = [[v for v in top if max(map(pres.degree_of, v)) <= n] for n in range(D + 1)]
    return SectionRing(pres=pres, D=D, bases=bases)


def hilbert_function(sr: SectionRing) -> list:
    return [sr.dim(n) for n in range(sr.D + 1)]


def projective_line_reference(D: int) -> list:
    """dim of degree-n forms in two variables: n+1."""
    return [n + 1 for n in range(D + 1)]


def quadric_quotient_reference(D: int) -> list:
    """dim_n of a polynomial ring in three variables modulo one quadric.

    binomial(n+2, 2) - binomial(n, 2) = 2n+1.
    """

    def binom2(k):
        return k * (k - 1) // 2

    return [binom2(n + 2) - binom2(n) for n in range(D + 1)]


@dataclass
class GenerationReport:
    degrees: list
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

    Monomials are ordered combinations of the echelonized P_1 basis, so
    the report is deterministic. Each degree-n monomial is the product of
    its degree n-1 prefix, kept from the previous degree, with one more
    degree-1 element, in integer form (``integer_product``). P_n spans
    every affine element of degree <= n, so the products (one column per
    monomial) have the same dependencies over the affine basis as over
    P_n's, and one elimination per degree decides them:

    * the columns are brought to one common denominator (``_column_rows``);
      scaling every column by the same nonzero scalar leaves the kernel
      unchanged, so the kernel of the integer matrix is that of the
      products;
    * in degrees n >= 4 the report gives only the kernel's dimension,
      len(monomials) - rank, and the rank is the number of pivot columns,
      which the forward pass alone decides (``pivot_columns``). Only the
      degrees n <= 3, whose generators are listed, are fully reduced.
    """
    if sr.D < 2:
        raise ValueError("degree-one generation needs D >= 2")
    pres = sr.pres
    gaussian = not pres.pair.split
    one = pres.pair.base_one()
    degree_one = [integer_element(v) for v in sr.bases[1]]
    surjective, kernel_dims, kernel_gens, monomials = {}, {}, {}, {}
    for n in range(1, sr.D + 1):
        monos = list(combinations_with_replacement(range(len(degree_one)), n))
        if n == 1:
            products = {mono: degree_one[mono[0]] for mono in monos}
        else:
            # a sorted monomial's prefix is a degree n-1 monomial: one more factor each
            products = {
                mono: pres.integer_product(products[mono[:-1]], degree_one[mono[-1]])
                for mono in monos
            }
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
        monomials[n] = monos
    return GenerationReport(
        degrees=list(range(1, sr.D + 1)),
        surjective=surjective,
        kernel_dims=kernel_dims,
        kernel_generators=kernel_gens,
        monomials=monomials,
    )
