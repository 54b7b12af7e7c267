"""Exact dense linear algebra over a field (Fractions or Gaussian rationals).

Matrices are lists of row lists. Everything is done with exact equality
tests; no pivoting heuristics are needed. Column order is chosen by the
caller and is what makes echelon bases unique, so all functions preserve
it strictly.
"""

from __future__ import annotations

from .scalars import is_zero_scalar


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not is_zero_scalar(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if is_zero_scalar(f):
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


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


def solve_in_span(basis_rows, target, zero):
    """Coefficients expressing ``target`` in the span of ``basis_rows``, or None.

    Solves sum_i x_i * basis_rows[i] = target by elimination on the
    transposed augmented system.
    """
    k = len(basis_rows)
    if k == 0:
        return [] if all(is_zero_scalar(t) for t in target) else None
    ncols = len(target)
    aug = [[basis_rows[i][c] for i in range(k)] + [target[c]] for c in range(ncols)]
    reduced, pivots = rref(aug)
    if k in pivots:
        return None
    x = [zero] * k
    for prow, pc in zip(reduced, pivots):
        x[pc] = prow[k]
    # consistency: rref leaves no stray rows because k was not a pivot
    return x

