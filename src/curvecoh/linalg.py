"""Exact linear algebra over Q and Q(i) by fraction-free elimination.

Matrices are lists of row lists. Entries may be ``int``, ``Fraction`` or
``GaussianRational``, mixed freely; a matrix with any ``GaussianRational``
entry gets ``GaussianRational`` entries back, any other matrix gets
``Fraction`` entries.

Everything runs on one integer core. Its rows are pairs (re, im) of sparse
integer rows {column: int}, a row of Q(i) entries times a common
denominator, which keeps the row space; ``presentation.gluing_rows``
builds them straight from window numerators, ``section_ring`` from
elements in integer form, and ``rref``, ``rank``, ``kernel_basis`` and
``solve_in_span`` with ``scalars.cleared_terms``. Elimination runs over
the Python ints without a single division: a row with a nonzero entry f
in the pivot column becomes (p/g)*row - (f/g)*pivot row, where p is the
pivot and g = gcd(p, f), and then has its content divided out, which
keeps the integers small. ``pivot_columns`` is the forward pass alone, which clears
each pivot column in the rows not yet used as pivots; ``reduced_rows``
clears it in the earlier pivot rows too. Every step multiplies a row by a
nonzero scalar or adds a multiple of another row to it, so the row space
never changes. A subspace has one reduced echelon form and one set of
pivot columns for a given column order, so neither depends on the choice
of pivot rows or on the scaling of rows: ``reduced_rows`` gives that of
textbook Gauss-Jordan elimination up to one integer factor per row, and
only the entries a caller reads are divided by it (``_entry``, for
``rref`` and ``kernel_vectors``). The caller's column order is what
makes echelon bases unique, so all functions preserve it strictly.

Rows with a nonzero imaginary part are eliminated over Q as well, by
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
reduced echelon form, with pivot c_j = 2c_j // 2, and the pivots of W are
the even pivots of phi(W), halved.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import GaussianRational, cleared_terms, outside_q_i


def _integer_rows(rows):
    """Each row as an integer row (re, im), and whether any entry is a GaussianRational."""
    out, typed = [], False
    for row in rows:
        parts = cleared_terms(dict(enumerate(row)))
        if parts is None:
            raise outside_q_i(row)
        _, (re, im), gaussian = parts
        typed = typed or gaussian
        out.append((dict(re), dict(im)))
    return out, typed


def phi(re, im):
    """The row re + i*im over Q: column c becomes columns 2c (re) and 2c+1 (im)."""
    return {**{2 * c: x for c, x in re.items()}, **{2 * c + 1: y for c, y in im.items()}}


def _primitive(row):
    content = gcd(*row.values())
    return row if content == 1 else {col: x // content for col, x in row.items()}


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
    return _primitive(new) if new else new


def _echelon(rows, reduce):
    """(pivot rows, pivot columns, realified) of integer rows (re, im), over Q."""
    gaussian = any(im for _, im in rows)
    if gaussian:
        rows = [r for re, im in rows for r in (phi(re, im), phi({c: -y for c, y in im.items()}, re))]
    else:
        rows = [re for re, _ in rows]
    pending = [_primitive(row) for row in rows if row]
    done, pivots = [], []
    groups = (done, pending) if reduce else (pending,)
    for c in sorted(set().union(*pending)):
        # any row with an entry in column c gives the same output
        k = next((k for k, row in enumerate(pending) if c in row), None)
        if k is None:
            continue
        prow = pending.pop(k)
        p = prow[c]
        for group in groups:
            for k, row in enumerate(group):
                f = row.get(c)
                if f is not None:
                    group[k] = _eliminate(row, f, prow, p)
        pending[:] = [row for row in pending if row]
        done.append(prow)
        pivots.append(c)
        if not pending:
            break
    return done, pivots, gaussian


def pivot_columns(rows):
    """Pivot columns of the Q(i)-span of integer rows (re, im), by the forward pass alone."""
    _, pivots, gaussian = _echelon(rows, reduce=False)
    return [c // 2 for c in pivots if not c % 2] if gaussian else pivots


def reduced_rows(rows):
    """(pivot column, re, im) per row of the reduced echelon form, re + i*im times an integer."""
    done, pivots, gaussian = _echelon(rows, reduce=True)
    if not gaussian:
        return [(c, row, {}) for c, row in zip(pivots, done)]
    out = []
    for c, row in zip(pivots, done):
        if not c % 2:  # phi(R) for a row R of the Q(i) form; the odd pivots are phi(i*R)
            re, im = ({k // 2: x for k, x in row.items() if k % 2 == odd} for odd in (0, 1))
            out.append((c // 2, re, im))
    return out


def _entry(row, col, gaussian):
    """Entry ``col`` of a reduced row (c, re, im) over its pivot entry, GaussianRational if ``gaussian``."""
    c, re, im = row
    x = Fraction(re.get(col, 0), re[c])
    return GaussianRational(x, Fraction(im.get(col, 0), re[c])) if gaussian else x


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    rows = list(rows)
    pairs, typed = _integer_rows(rows)
    reduced = reduced_rows(pairs)
    ncols = len(rows[0]) if rows else 0
    dense = [[_entry(row, col, typed) for col in range(ncols)] for row in reduced]
    return dense, [c for c, _, _ in reduced]


def rank(rows):
    return len(pivot_columns(_integer_rows(rows)[0]))


def kernel_vectors(rows, ncols, gaussian):
    """Basis of the kernel of integer rows (re, im) over columns 0..ncols-1, sparse.

    One (free column, {pivot column: nonzero entry}) per vector, which is
    1 at its free column and 0 at the other free columns, so the basis is
    in echelon form for the column order. Entries are GaussianRational if
    ``gaussian`` or a row has an imaginary part, else Fraction.
    """
    gaussian = gaussian or any(im for _, im in rows)
    reduced = reduced_rows(rows)
    pivots = {c for c, _, _ in reduced}
    return [
        (fc, {c: -_entry((c, re, im), fc, gaussian) for c, re, im in reduced if fc in re or fc in im})
        for fc in range(ncols) if fc not in pivots
    ]


def span_coordinates(rows, k, gaussian):
    """{j: x_j} with sum_j x_j*(column j) = column k of integer rows (re, im), or None if none exists.

    Column k lies in the span of columns 0..k-1 exactly when it is free, and
    then the kernel vector that is 1 there holds -x (x_j = 0 at free j < k).
    """
    for fc, entries in kernel_vectors(rows, k + 1, gaussian):
        if fc == k:
            return {j: -x for j, x in entries.items()}
    return None


def kernel_basis(rows, ncols, zero, one):
    """Basis of {v : M v = 0} for the matrix with the given rows: ``kernel_vectors``, dense."""
    pairs, typed = _integer_rows(rows)
    return [[one if c == fc else entries.get(c, zero) for c in range(ncols)]
            for fc, entries in kernel_vectors(pairs, ncols, typed)]


def solve_in_span(basis_rows, targets, zero):
    """For each target, coefficients expressing it in the span of ``basis_rows``, or None.

    One ``span_coordinates`` per target, on the columns [basis^T | target^T].
    """
    solutions = []
    for t in targets:
        pairs, typed = _integer_rows(zip(*basis_rows, t))
        x = span_coordinates(pairs, len(basis_rows), typed)
        solutions.append(None if x is None else [x.get(j, zero) for j in range(len(basis_rows))])
    return solutions
