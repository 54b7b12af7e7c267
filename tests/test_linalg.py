"""The fraction-free elimination kernel against textbook Gauss-Jordan over the field."""

import random
from fractions import Fraction
from math import lcm

import pytest

from curvecoh.linalg import kernel_basis, pivot_columns, rank, reduced_rows, rref, solve_in_span
from curvecoh.scalars import GAUSSIAN_ONE, GAUSSIAN_ZERO, GaussianRational


def _reference_rref(rows):
    """Gauss-Jordan elimination over the field itself, one Fraction op at a time."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
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
            if not f:
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _reference_kernel(rows, ncols, zero, one):
    reduced, pivots = _reference_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for prow, pc in zip(reduced, pivots):
            v[pc] = -prow[fc]
        basis.append(v)
    return basis


def _reference_solve(basis_rows, target, zero):
    k = len(basis_rows)
    if k == 0:
        return [] if not any(target) else None
    aug = [[basis_rows[i][c] for i in range(k)] + [target[c]] for c in range(len(target))]
    reduced, pivots = _reference_rref(aug)
    if k in pivots:
        return None
    x = [zero] * k
    for prow, pc in zip(reduced, pivots):
        x[pc] = prow[k]
    return x


def _promoted(rows):
    """All entries as GaussianRational when any is: the kernel's output type rule.

    Field Gauss-Jordan on a mixed matrix leaves Fractions in rows that no
    GaussianRational pivot touched; promoting first makes its types uniform.
    """
    if any(isinstance(x, GaussianRational) for row in rows for x in row):
        return [[GaussianRational.of(x) for x in row] for row in rows]
    return rows


def _same(ours, theirs):
    """Equal values and equal entry types, entry by entry."""
    assert ours == theirs
    for a, b in zip(ours, theirs):
        if isinstance(a, list):
            _same(a, b)
        else:
            assert type(a) is type(b), (a, b)


KINDS = ("rational", "gaussian", "real-gaussian", "mixed")


def _scalar(rng, kind):
    def q():
        if rng.random() < 0.4:
            return Fraction(0)
        return Fraction(rng.randint(-12, 12), rng.randint(1, 9))

    if kind == "mixed":
        kind = rng.choice(("rational", "gaussian"))
    if kind == "rational":
        return q()
    if kind == "gaussian":
        return GaussianRational(q(), q())
    return GaussianRational(q(), Fraction(0))


def _matrix(seed, kind):
    """A seeded matrix with zero rows and columns and dependent rows mixed in."""
    rng = random.Random(f"{kind}/{seed}")
    m, n = rng.randint(0, 7), rng.randint(0, 8)
    rows = [[_scalar(rng, kind) for _ in range(n)] for _ in range(m)]
    if n and rng.random() < 0.4:
        col = rng.randrange(n)
        for row in rows:
            row[col] = row[col] * 0
    if rows and rng.random() < 0.4:
        rows[rng.randrange(len(rows))] = [x * 0 for x in rows[0]]
    if len(rows) >= 2 and rng.random() < 0.6:
        a, b = rng.sample(rows, 2)
        c = _scalar(rng, kind) or Fraction(3, 2)
        rows.append([x * c - y for x, y in zip(a, b)])
    return rows


SEEDS = range(60)


def _low_rank_matrix(seed, kind):
    """A seeded m x n matrix (up to 12 x 16) of rank r < min(m, n): row combinations of r rows."""
    rng = random.Random(f"low-rank/{kind}/{seed}")
    m, n, r = ((12, 16, 7), (10, 14, 9), (12, 12, 11), (8, 16, 5))[seed % 4]
    zero = GAUSSIAN_ZERO if kind != "rational" else Fraction(0)
    base = [[_scalar(rng, kind) for _ in range(n)] for _ in range(r)]
    return [
        [sum((c * b[j] for c, b in zip(coeffs, base)), zero) for j in range(n)]
        for coeffs in ([_scalar(rng, kind) for _ in base] for _ in range(m))
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_rref_matches_field_gauss_jordan(kind):
    for seed in SEEDS:
        rows = _matrix(seed, kind)
        ours = rref(rows)
        theirs = _reference_rref(_promoted(rows))
        assert ours[1] == theirs[1], seed
        _same(ours[0], theirs[0])
        assert rank(rows) == len(theirs[1]), seed


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_and_solve_match_reference(kind):
    outcomes = set()
    for seed in SEEDS:
        outcomes |= _check_kernel_and_solve(seed, kind)
    assert outcomes == {True, False}  # targets inside and outside the span both occur


def _check_kernel_and_solve(seed, kind):
    rows = _promoted(_matrix(seed, kind))
    ncols = len(rows[0]) if rows else 0
    typed = any(isinstance(x, GaussianRational) for row in rows for x in row)
    zero, one = (GAUSSIAN_ZERO, GAUSSIAN_ONE) if typed else (Fraction(0), Fraction(1))
    _same(kernel_basis(rows, ncols, zero, one), _reference_kernel(rows, ncols, zero, one))

    # targets in the span (row combinations) and, mostly, outside it
    rng = random.Random(seed)
    basis, _ = _reference_rref(rows)
    targets = [[_scalar(rng, kind) for _ in range(ncols)] for _ in range(3)]
    coeffs = [_scalar(rng, kind) for _ in basis]
    targets.append([sum((c * b[j] for c, b in zip(coeffs, basis)), zero) for j in range(ncols)])
    targets = _promoted(targets) if typed else targets
    if typed:
        basis = [[GaussianRational.of(x) for x in row] for row in basis]
    ours = solve_in_span(basis, targets, zero)
    assert len(ours) == len(targets)
    for target, x in zip(targets, ours):
        expected = _reference_solve(basis, target, zero)
        if expected is None:
            assert x is None, seed
        else:
            _same(x, expected)
    assert ours[-1] is not None, seed
    return {x is not None for x in ours}


def test_shapes_and_entry_types():
    assert rref([]) == ([], [])
    assert rref([[], []]) == ([], [])
    assert rref([[0, 0], [Fraction(0), 0]]) == ([], [])
    reduced, pivots = rref([[2, 4], [1, 3]])  # ints come back as Fractions
    assert pivots == [0, 1]
    _same(reduced, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    reduced, _ = rref([[Fraction(1), 0], [0, GaussianRational(Fraction(0), Fraction(2))]])
    assert all(type(x) is GaussianRational for row in reduced for x in row)
    with pytest.raises(TypeError):
        rref([[1.5]])


def test_solve_in_span_without_basis_rows():
    zero = Fraction(0)
    assert solve_in_span([], [[zero, zero], [zero, Fraction(1)]], zero) == [[], None]
    assert solve_in_span([[Fraction(1)]], [], zero) == []


def test_large_entries_stay_exact():
    # Hilbert matrices: denominators grow, the integer kernel must still invert exactly
    n = 8
    hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(hilbert)]
    reduced, pivots = rref(aug)
    assert pivots == list(range(n))
    inverse = [row[n:] for row in reduced]
    assert inverse[0][0] == n * n
    _same(reduced, _reference_rref(aug)[0])


def _sympy_rref(sympy_domain, rows, gaussian):
    from sympy.polys.matrices import DomainMatrix

    def conv(x):
        z = GaussianRational.of(x)
        if gaussian:
            return sympy_domain(z.re, z.im)
        return sympy_domain(z.re.numerator, z.re.denominator)

    shape = (len(rows), len(rows[0]) if rows else 0)
    matrix = DomainMatrix([[conv(x) for x in row] for row in rows], shape, sympy_domain)
    reduced, pivots = matrix.rref()
    return reduced.to_list()[: len(pivots)], list(pivots)


def _from_sympy(y, gaussian):
    def q(v):
        return Fraction(int(v.numerator), int(v.denominator))

    return GaussianRational(q(y.x), q(y.y)) if gaussian else GaussianRational.of(q(y))


@pytest.mark.parametrize("kind", KINDS)
def test_rref_matches_sympy(kind):
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ, QQ_I

    gaussian = kind != "rational"
    matrices = [_matrix(seed, kind) for seed in SEEDS] + [_low_rank_matrix(s, kind) for s in range(4)]
    for seed, rows in enumerate(matrices):
        if not rows or not rows[0]:
            continue
        theirs, their_pivots = _sympy_rref(QQ_I if gaussian else QQ, rows, gaussian)
        ours, pivots = rref(rows)
        assert pivots == their_pivots, seed
        theirs = [[_from_sympy(y, gaussian) for y in row] for row in theirs]
        assert [[GaussianRational.of(x) for x in row] for row in ours] == theirs, seed


def _integer_pairs(rows):
    """Each row times the lcm of its denominators, as sparse integer rows (re, im)."""
    out = []
    for row in rows:
        zs = [GaussianRational.of(x) for x in row]
        den = lcm(*(q.denominator for z in zs for q in (z.re, z.im)))
        re, im = ({c: int(q * den) for c, q in enumerate(qs) if q} for qs in
                  ([z.re for z in zs], [z.im for z in zs]))
        out.append((re, im))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_forward_pass_pivots_match_rref(kind):
    matrices = [_matrix(seed, kind) for seed in SEEDS] + [_low_rank_matrix(s, kind) for s in range(4)]
    for seed, rows in enumerate(matrices):
        reduced, pivots = rref(rows)
        pairs = _integer_pairs(rows)
        assert pivot_columns(pairs) == pivots, seed
        # the integer reduced rows are the rref rows times their pivot entries
        ours = reduced_rows(pairs)
        assert [c for c, _, _ in ours] == pivots, seed
        for (c, re, im), row in zip(ours, reduced):
            p = re[c]
            assert [GaussianRational.of(x) for x in row] == [
                GaussianRational(Fraction(re.get(k, 0), p), Fraction(im.get(k, 0), p))
                for k in range(len(row))
            ], seed


def _assert_reduced_rows_match_reference(rows, pairs):
    """``reduced_rows`` of integer rows ``pairs`` is field Gauss-Jordan of ``rows``, row by row up to scale."""
    theirs, their_pivots = _reference_rref(_promoted(rows))
    ours = reduced_rows(pairs)
    assert [c for c, _, _ in ours] == their_pivots
    for (c, re, im), row in zip(ours, theirs, strict=True):
        p = re[c]
        assert not im.get(c)
        assert [GaussianRational(Fraction(re.get(k, 0), p), Fraction(im.get(k, 0), p))
                for k in range(len(row))] == [GaussianRational.of(x) for x in row]


@pytest.mark.parametrize("kind", KINDS)
def test_back_substitution_matches_gauss_jordan_with_zero_and_repeated_rows(kind):
    for seed in SEEDS:
        rows = _matrix(seed, kind)
        if not rows or not rows[0]:
            continue
        rng = random.Random(f"repeated/{kind}/{seed}")
        rows = rows + [[x * 0 for x in rows[0]], list(rng.choice(rows))]
        rows.insert(rng.randrange(len(rows)), list(rng.choice(rows)))
        _assert_reduced_rows_match_reference(rows, _integer_pairs(rows))


def test_back_substitution_matches_gauss_jordan_on_twistor_gluing_rows():
    # [W | I] for the twistor windows up to degree n: each degree's row peaks
    # one exponent higher (a triangular W), realified, identity entries = denominators
    from curvecoh.presentation import gluing_rows, twistor_presentation

    tw = twistor_presentation()
    for n in (0, 1, 2, 5, 12, 40):
        windows = [tw.embed_basis(i) for i in tw.basis_up_to(n)]
        pairs = gluing_rows(tw.pair, windows, n, -n, identity=True)
        ncols = 2 * (2 * n + 1) + len(windows)
        rows = [[Fraction(re.get(c, 0), w.den) for c in range(ncols)]
                for (re, _), w in zip(pairs, windows)]
        _assert_reduced_rows_match_reference(rows, pairs)
