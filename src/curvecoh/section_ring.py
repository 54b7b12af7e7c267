"""The graded ring of global sections P = (+)_{n>=0} H^0(X, O(n)).

Built degree by degree from certified H^0 bases; products are computed
inside the affine algebra and re-expressed in the echelon basis of the
target degree. ``degree_one_generation`` checks that degree-1 sections
generate, reporting the kernel of Sym^n(P_1) -> P_n per degree (for the
twistor line the degree-2 kernel is spanned by u*u + v*v + 1*1, the
quadric relation; for the projective line all kernels vanish).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .cohomology import h0
from .errors import NotInSpan, NotStabilized
from .linalg import kernel_basis, solve_in_span
from .presentation import AffinePresentation


@dataclass
class SectionRing:
    pres: AffinePresentation
    D: int
    bases: list          # bases[n] = list of {affine index: k0 coeff}
    affine_cols: list    # affine_cols[n] = column order used for coordinates

    def dim(self, n: int) -> int:
        return len(self.bases[n])

    def element_label(self, n: int, j: int) -> str:
        return self.pres.element_label(self.bases[n][j])

    def _vector_coords(self, vec: dict, cols: list) -> list:
        zero = self.pres.pair.base_zero()
        extra = set(vec) - set(cols)
        if extra:
            raise NotInSpan(f"element uses affine basis indices {sorted(extra)} outside the slice")
        pos = {c: k for k, c in enumerate(cols)}
        row = [zero] * len(cols)
        for i, c in vec.items():
            row[pos[i]] = zero + c
        return row

    def multiply(self, m: int, a: int, n: int, b: int) -> list:
        """Coordinates of (basis element a of P_m) * (b of P_n) in the P_{m+n} basis."""
        if m + n > self.D:
            raise ValueError(f"product degree {m + n} exceeds ring cutoff {self.D}")
        prod = self.pres.mul_elements(self.bases[m][a], self.bases[n][b])
        return self.express(m + n, prod)

    def express(self, k: int, vec: dict) -> list:
        """Express an affine element in the echelon basis of P_k (NotInSpan if impossible)."""
        return self.express_all(k, [vec])[0]

    def express_all(self, k: int, vecs: list) -> list:
        """Coordinates of each affine element in the echelon basis of P_k, one elimination."""
        cols = self.affine_cols[k]
        zero = self.pres.pair.base_zero()
        targets = [self._vector_coords(vec, cols) for vec in vecs]
        rows = [self._vector_coords(bvec, cols) for bvec in self.bases[k]]
        sols = solve_in_span(rows, targets, zero)
        for vec, sol in zip(vecs, sols):
            if sol is None:
                raise NotInSpan(
                    f"product does not lie in P_{k} (presentation bug): "
                    f"{self.pres.element_label(vec)}"
                )
        return sols


def build_section_ring(pres: AffinePresentation, D: int) -> SectionRing:
    """H^0 bases for all degrees 0..D; requires certified computations."""
    bases, affine_cols = [], []
    for n in range(D + 1):
        res = h0(pres, n, max(n, 0))
        if not res.certified:
            raise NotStabilized(f"H^0(O({n})) is not certified; cannot build P_{n}")
        bases.append(res.h0_basis)
        affine_cols.append(pres.basis_up_to(n))
    return SectionRing(pres=pres, D=D, bases=bases, affine_cols=affine_cols)


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
    degree-1 element. Per degree, one elimination expresses every monomial
    in P_n and one more gives the kernel; the rank follows from the
    kernel's dimension.
    """
    if sr.D < 2:
        raise ValueError("degree-one generation needs D >= 2")
    pres = sr.pres
    zero = pres.pair.base_zero()
    one = pres.pair.base_one()
    d1 = sr.dim(1)
    surjective, kernel_dims, kernel_gens, monomials = {}, {}, {}, {}
    for n in range(1, sr.D + 1):
        monos = list(combinations_with_replacement(range(d1), n))
        if n == 1:
            products = {mono: dict(sr.bases[1][mono[0]]) for mono in monos}
        else:
            # a sorted monomial's prefix is a degree n-1 monomial: one more factor each
            products = {
                mono: pres.mul_elements(products[mono[:-1]], sr.bases[1][mono[-1]])
                for mono in monos
            }
        rows = sr.express_all(n, list(products.values()))
        # kernel: combinations of rows vanishing; surjectivity: the rows span
        # P_n, i.e. their rank len(monos) - dim kernel reaches dim P_n
        cols = len(rows[0]) if rows else 0
        transpose = [[rows[i][c] for i in range(len(rows))] for c in range(cols)]
        kern = kernel_basis(transpose, len(monos), zero, one)
        surjective[n] = len(monos) - len(kern) == sr.dim(n)
        kernel_dims[n] = len(kern)
        monomials[n] = monos
        if n <= 3:
            gens = []
            for kv in kern:
                gen = {}
                for idx, c in enumerate(kv):
                    if c == 0:
                        continue
                    label = "*".join(sr.element_label(1, j) for j in monos[idx])
                    gen[label] = str(c)
                gens.append(gen)
            kernel_gens[n] = gens
    return GenerationReport(
        degrees=list(range(1, sr.D + 1)),
        surjective=surjective,
        kernel_dims=kernel_dims,
        kernel_generators=kernel_gens,
        monomials=monomials,
    )
