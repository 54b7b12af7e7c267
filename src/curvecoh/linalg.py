"""Exact linear algebra over Q and Q(i) by fraction-free elimination.

Matrices are lists of row lists. Entries may be ``int``, ``Fraction`` or
``GaussianRational``, mixed freely; a matrix with any ``GaussianRational``
entry gets ``GaussianRational`` entries back, any other matrix gets
``Fraction`` entries.

Every function goes through one kernel, ``rref``. It multiplies each row
by the common denominator of its entries (``scalars.integer_parts``, the
step the series products share), which leaves the row space unchanged,
and stores the row sparsely as {column: int}. Gauss-Jordan elimination
then runs over the Python ints without a single division: a row with a
nonzero entry f in the pivot column becomes (p/g)*row - (f/g)*pivot row,
where p is the pivot and g = gcd(p, f), and then has its content (the gcd
of its entries) divided out, which keeps the integers small. Rows with a
zero in the pivot column are not touched. Only at the end is each pivot
row divided by its pivot and turned back into exact rationals.

Every step multiplies a row by a nonzero scalar or adds a multiple of
another row to it, so the row space never changes. A subspace has exactly
one reduced row echelon form for a given column order, so the output does
not depend on the choice of pivot rows or on the scaling of intermediate
rows: it equals the reduced echelon form of textbook Gauss-Jordan
elimination over the field. Column order is chosen by the caller and is
what makes echelon bases unique, so all functions preserve it strictly.

A matrix with a nonzero imaginary part is eliminated over Q as well, by
realification. Write phi(v) for the real vector that replaces each entry
a + b*i of v by the column pair (a, b), so column c becomes columns 2c
and 2c+1. Each row r is replaced by the two real rows phi(r) and phi(i*r).
Their Q-span is phi(W), W the Q(i)-span of the rows, because W is closed
under multiplication by i. Let R_1..R_k be the reduced echelon form of W,
R_j with pivot c_j. Then phi(R_j) is zero left of column 2c_j, is 1 there
and 0 at 2c_j+1 (R_j is 1 at c_j); phi(i*R_j) is zero left of 2c_j+1, is
0 at 2c_j and 1 at 2c_j+1; both vanish at the columns 2c_l, 2c_l+1 of the
other pivots, where R_j is 0. These 2k rows lie in phi(W), which has
Q-dimension 2k, and are in reduced echelon form, so they are the reduced
echelon form of phi(W). Its rows that pivot at an even column 2c_j are
therefore exactly phi(R_j): reassembled as re + i*im they are the Q(i)
reduced echelon form, with pivot c_j = 2c_j // 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import GAUSSIAN_ZERO, GaussianRational, integer_parts


def _integer_rows(rows):
    """Each nonzero row times its common denominator as {column: int}, content removed.

    Also returns whether any entry is a GaussianRational (the output type)
    and whether any has a nonzero imaginary part; then each row r comes out
    as the two realified rows phi(r) and phi(i*r) (module docstring).
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
    if gaussian:
        ints = []
        for re, im in cleared:
            ints.append([x for a, b in zip(re, im) for x in (a, b)])
            ints.append([x for a, b in zip(re, im) for x in (-b, a)])
    else:
        ints = [re for re, _ in cleared]
    out = []
    for row in ints:
        sparse = {c: x for c, x in enumerate(row) if x}
        if sparse:
            content = gcd(*sparse.values())
            out.append({c: x // content for c, x in sparse.items()})
    return out, typed, gaussian


def _eliminate(row, f, prow, p):
    """(p/g)*row - (f/g)*prow with g = gcd(p, f), content divided out: zero at the pivot."""
    g = gcd(p, f)
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
    content = gcd(*new.values())
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
                    group[k] = _eliminate(row, f, prow, p)
        pending = [row for row in pending if row]
        done.append(prow)
        pivots.append(c)
        if not pending:
            break
    zero = GAUSSIAN_ZERO if typed else Fraction(0)
    reduced, kept = [], []
    for c, row in zip(pivots, done):
        if gaussian and c % 2:
            continue  # phi(i*R) for a kept row R
        p = row[c]
        dense = [zero] * ncols
        if gaussian:
            c //= 2
            for col in {k // 2 for k in row}:
                re, im = row.get(2 * col, 0), row.get(2 * col + 1, 0)
                dense[col] = GaussianRational(Fraction(re, p), Fraction(im, p))
        elif typed:
            for col, x in row.items():
                dense[col] = GaussianRational(Fraction(x, p), Fraction(0))
        else:
            for col, x in row.items():
                dense[col] = Fraction(x, p)
        reduced.append(dense)
        kept.append(c)
    return reduced, kept


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
