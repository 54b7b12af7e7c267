"""Exact linear algebra over Q and Q(i) by fraction-free elimination.

Matrices are lists of row lists. Entries may be ``int``, ``Fraction`` or
``GaussianRational``, mixed freely; a matrix with any ``GaussianRational``
entry gets ``GaussianRational`` entries back, any other matrix gets
``Fraction`` entries.

Every function goes through one kernel, ``rref``. It multiplies each row
by the common denominator of its entries (``scalars.integer_parts``, the
step the series products share), which leaves the row space unchanged,
and stores the row sparsely as {column: integer}. When some
entry has a nonzero imaginary part the integers are Gaussian integers
(``_GaussianInteger``); otherwise they are Python ints. Gauss-Jordan
elimination then runs over that ring without a single division: a row
with a nonzero entry f in the pivot column becomes (p/g)*row - (f/g)*pivot
row, where p is the pivot and g = gcd(p, f), and then has its content (the
gcd of its entries) divided out, which keeps the integers small. Rows with
a zero in the pivot column are not touched. Only at the end is each pivot
row divided by its pivot and turned back into exact rationals.

Every step multiplies a row by a nonzero scalar or adds a multiple of
another row to it, so the row space never changes. A subspace has exactly
one reduced row echelon form for a given column order, so the output does
not depend on the ring the elimination ran in, on the choice of pivot rows
or on the scaling of intermediate rows: it equals the reduced echelon form
of textbook Gauss-Jordan elimination over the field. Column order is chosen
by the caller and is what makes echelon bases unique, so all functions
preserve it strictly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd

from .scalars import GAUSSIAN_ZERO, GaussianRational, integer_parts


class _GaussianInteger:
    """a + b*i with a, b Python ints: the entries of a row over Z[i]."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __add__(self, o):
        return _GaussianInteger(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        return _GaussianInteger(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __neg__(self):
        return _GaussianInteger(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def _times_conjugate(self, o):
        """(self * conj(o), |o|^2)."""
        re = self.re * o.re + self.im * o.im
        im = self.im * o.re - self.re * o.im
        return re, im, o.re * o.re + o.im * o.im

    def __floordiv__(self, o):
        """Exact quotient; only called with a divisor of self."""
        re, im, norm = self._times_conjugate(o)
        return _GaussianInteger(re // norm, im // norm)

    def __mod__(self, o):
        """Remainder of division by the nearest Gaussian-integer quotient."""
        re, im, norm = self._times_conjugate(o)
        q = _GaussianInteger((2 * re + norm) // (2 * norm), (2 * im + norm) // (2 * norm))
        r = o * q
        return _GaussianInteger(self.re - r.re, self.im - r.im)

    def over(self, pivot) -> GaussianRational:
        """self / pivot in Q(i)."""
        re, im, norm = self._times_conjugate(pivot)
        return GaussianRational(Fraction(re, norm), Fraction(im, norm))


def _gaussian_gcd(*values):
    """A greatest common divisor in Z[i] (Euclid; the remainder norm halves)."""

    def pair(a, b):
        while b:
            a, b = b, a % b
        return a

    return reduce(pair, values)


def _integer_rows(rows):
    """Each nonzero row times its common denominator as {column: integer}, content removed.

    Also returns whether any entry is a GaussianRational (the output type)
    and whether any has a nonzero imaginary part (then the integers are
    Gaussian integers).
    """
    cleared, typed = [], False
    for row in rows:
        parts = integer_parts(row)
        if parts is None:
            bad = next(x for x in row if not isinstance(x, (int, Fraction, GaussianRational)))
            raise TypeError(f"entries must be int, Fraction or GaussianRational: {bad!r}")
        _, re, im, row_typed = parts
        typed = typed or row_typed
        cleared.append((re, im))
    gaussian = any(any(im) for _, im in cleared)
    out = []
    for re, im in cleared:
        if gaussian:
            sparse = {c: _GaussianInteger(x, y) for c, (x, y) in enumerate(zip(re, im)) if x or y}
            common = _gaussian_gcd
        else:
            sparse = {c: x for c, x in enumerate(re) if x}
            common = gcd
        if sparse:
            content = common(*sparse.values())
            out.append({c: x // content for c, x in sparse.items()})
    return out, typed, gaussian


def _eliminate(row, f, prow, p, common):
    """(p/g)*row - (f/g)*prow with g = gcd(p, f), content divided out: zero at the pivot."""
    g = common(p, f)
    a, b = p // g, -(f // g)
    new = {col: a * x for col, x in row.items()}
    for col, y in prow.items():
        x = new.get(col)
        v = b * y if x is None else x + b * y
        if v:
            new[col] = v
        else:
            del new[col]
    if not new:
        return new
    content = common(*new.values())
    return {col: x // content for col, x in new.items()}


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    rows = list(rows)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pending, typed, gaussian = _integer_rows(rows)
    common = _gaussian_gcd if gaussian else gcd
    done, pivots = [], []
    for c in sorted(set().union(*pending)):
        # any row with an entry in column c gives the same output
        k = next((k for k, row in enumerate(pending) if c in row), None)
        if k is None:
            continue
        prow = pending.pop(k)
        p = prow[c]
        for group in (done, pending):
            for k, row in enumerate(group):
                f = row.get(c)
                if f is not None:
                    group[k] = _eliminate(row, f, prow, p, common)
        pending = [row for row in pending if row]
        done.append(prow)
        pivots.append(c)
        if not pending:
            break
    if gaussian:
        quotient = _GaussianInteger.over
    elif typed:
        def quotient(x, p):
            return GaussianRational(Fraction(x, p), Fraction(0))
    else:
        quotient = Fraction
    zero = GAUSSIAN_ZERO if typed else Fraction(0)
    reduced = []
    for c, row in zip(pivots, done):
        p = row[c]
        dense = [zero] * ncols
        for col, x in row.items():
            dense[col] = quotient(x, p)
        reduced.append(dense)
    return reduced, pivots


def rank(rows):
    return len(rref(rows)[0])


def kernel_basis(rows, ncols, zero, one):
    """Basis of {v : M v = 0} for the matrix with the given rows.

    Each kernel vector has a 1 in "its" free column and zeros in the other
    free columns, so the basis is itself in echelon form with respect to
    the column order.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for prow, pc in zip(reduced, pivots):
            v[pc] = -prow[fc]
        basis.append(v)
    return basis


def solve_in_span(basis_rows, targets, zero):
    """For each target, coefficients expressing it in the span of ``basis_rows``, or None.

    Solves sum_i x_i * basis_rows[i] = target for every target with one
    elimination of the transposed system [basis^T | targets^T]. A target
    lies in the span exactly when every reduced row without a basis pivot
    is zero in its column.
    """
    k = len(basis_rows)
    if not targets:
        return []
    ncols = len(targets[0])
    aug = [
        [basis_rows[i][c] for i in range(k)] + [t[c] for t in targets] for c in range(ncols)
    ]
    reduced, pivots = rref(aug)
    solutions = []
    for j in range(k, k + len(targets)):
        if any(pc >= k and prow[j] for prow, pc in zip(reduced, pivots)):
            solutions.append(None)
            continue
        x = [zero] * k
        for prow, pc in zip(reduced, pivots):
            if pc < k:
                x[pc] = prow[j]
        solutions.append(x)
    return solutions
