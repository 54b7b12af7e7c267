"""The gluing-square cohomology engine against the known tables."""

from fractions import Fraction

import pytest

from curvecoh import cohomology as coh
from curvecoh.errors import CutoffTooSmall, EmbeddingNotRingMap
from curvecoh.periodic import TwoPeriodicPresentation, tate_degree_zero
from curvecoh.presentation import (
    combine,
    load_presentation,
    p1_presentation,
    twistor_presentation,
)
from curvecoh.scalars import GaussianRational, gaussian_tps
from curvecoh.series import fil_member


@pytest.fixture(scope="module")
def p1():
    return p1_presentation()


@pytest.fixture(scope="module")
def tw():
    return twistor_presentation()


def test_p1_dimension_tables(p1):
    for n in range(-5, 6):
        res = coh.compute(p1, n)
        assert res.dims == (max(n + 1, 0), max(-n - 1, 0))
        assert res.certified


def test_p1_h0_monomial_basis(p1):
    res = coh.h0(p1, 2)
    labels = sorted(p1.element_label(v) for v in res.h0_basis)
    assert labels == ["1", "t", "t^2"]
    assert coh.h0(p1, -1).h0_basis == []


def test_p1_h1_representatives(p1):
    res = coh.h1(p1, -3)
    assert sorted(str(w) for w in res.h1_basis) == ["t^-1", "t^-2"]
    assert coh.h1(p1, 0).h1_basis == []


def test_twistor_dimension_tables(tw):
    for n in range(-5, 6):
        res = coh.compute(tw, n)
        h0_expected = 2 * n + 1 if n >= 0 else 0
        h1_expected = -2 * n - 1 if n < 0 else 0
        assert res.dims == (h0_expected, h1_expected)


def test_twistor_h0_basis_n1(tw):
    res = coh.h0(tw, 1)
    assert sorted(tw.element_label(v) for v in res.h0_basis) == ["1", "u", "v"]


def test_twistor_graded_pieces(tw):
    assert coh.graded_pieces(coh.compute(tw, 2)) == {0: (1, 0), 1: (2, 0), 2: (2, 0)}
    assert coh.graded_pieces(coh.compute(tw, -2)) == {-1: (0, 2), 0: (0, 1)}
    # the residue field modulo global sections appears at m = 0 for n = -1
    res = coh.compute(tw, -1)
    assert [str(w) for w in res.h1_basis] == ["i"]
    assert coh.graded_pieces(res) == {0: (0, 1)}


def test_p1_graded_pieces(p1):
    assert coh.graded_pieces(coh.compute(p1, 1)) == {0: (1, 0), 1: (1, 0)}
    assert coh.graded_pieces(coh.compute(p1, -3)) == {-2: (0, 1), -1: (0, 1)}


def test_graded_sums_match_dims(p1, tw):
    for pres in (p1, tw):
        for n in range(-4, 5):
            res = coh.compute(pres, n)
            graded = coh.graded_pieces(res)
            assert sum(g0 for g0, _ in graded.values()) == res.h0_dim
            assert sum(g1 for _, g1 in graded.values()) == res.h1_dim


def test_euler_characteristic(p1, tw):
    for n in range(-4, 5):
        assert coh.euler_characteristic(p1, n) == n + 1
        assert coh.euler_characteristic(tw, n) == 2 * n + 1


def test_certified_results_cutoff_independent(p1, tw):
    for pres in (p1, tw):
        for n in (-2, 0, 2):
            a = coh.compute(pres, n)
            b = coh.compute(pres, n, D=coh.default_cutoff(n) + 3)
            assert a.h0_basis == b.h0_basis
            assert [str(w) for w in a.h1_basis] == [str(w) for w in b.h1_basis]
            assert a.graded == b.graded


def test_h0_products_respect_filtration(p1, tw):
    for pres in (p1, tw):
        for m in range(0, 3):
            for n in range(0, 3):
                rm, rn = coh.h0(pres, m), coh.h0(pres, n)
                for a in rm.h0_windows:
                    for b in rn.h0_windows:
                        assert fil_member(a * b, m + n)


def test_cutoff_too_small(p1):
    with pytest.raises(CutoffTooSmall):
        coh.h0(p1, 3, D=2)
    with pytest.raises(CutoffTooSmall):
        coh.h1(p1, 3, D=1)


def test_h1_not_stabilized_for_drifting_presentation():
    # embeddings whose poles do not grow with the degree leave the quotient
    # window uncovered, so the dimension drifts and stabilization catches it
    from curvecoh.errors import NotStabilized
    from curvecoh.presentation import load_presentation

    lines = ["fields gaussian gaussian"]
    for i in range(6):
        lines.append(f"basis x{i} {i}")
    for i in range(6):
        for j in range(i, 6):
            lines.append(f"mul x{i} x{j} = 1*x{min(i + j, 5)}")
    for i in range(6):
        lines.append(f"embed x{i} = 1*t^0")
    drifting = load_presentation("\n".join(lines))

    # Q[t] over (Q, Q(i)) passes verify_leading_exact, yet its image never
    # reaches i*t^m: H^1 is infinite and only stabilization sees it
    lines = ["fields rational gaussian", "flags leading_exact"]
    for i in range(7):
        lines.append(f"basis x{i} {i}")
    for i in range(7):
        for j in range(i, 7 - i):
            lines.append(f"mul x{i} x{j} = 1*x{i + j}")
    for i in range(7):
        lines.append(f"embed x{i} = 1*t^{i}")
    real_line = load_presentation("\n".join(lines))
    assert real_line.leading_exact

    for pres, D in ((drifting, 3), (real_line, 4)):
        with pytest.raises(NotStabilized):
            coh.h1(pres, 0, D=D)


def test_h1_cutoff_guard_for_degree_bounded_presentation():
    # a slice declared only up to degree 4 cannot support stabilization at
    # D = 4 (needs D + 2 declared degrees); the default cutoff respects that
    from curvecoh.errors import CutoffTooSmall
    from curvecoh.presentation import load_presentation

    lines = ["fields gaussian gaussian", "flags leading_exact"]
    for i in range(5):
        lines.append(f"basis y{i} {i}")
    for i in range(5):
        for j in range(i, 5):
            if i + j <= 4:
                lines.append(f"mul y{i} y{j} = 1*y{i + j}")
    for i in range(5):
        lines.append(f"embed y{i} = 1*t^{i}")
    pres = load_presentation("\n".join(lines))
    assert coh.resolved_default_cutoff(pres, 0) == 2
    res = coh.compute(pres, 0)
    assert res.dims == (1, 0) and res.certified
    with pytest.raises(CutoffTooSmall):
        coh.h1(pres, 0, D=4)


def test_curve_from_parts_equals_direct(p1, tw):
    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    for pres, embed in (
        (tw, coh.twistor_formal_embedding(model)),
        (p1, coh.p1_formal_embedding(model)),
    ):
        ns = range(-3, 4)
        for n, assembled in zip(ns, coh.curve_from_parts(pres, model, embed, ns), strict=True):
            direct = coh.compute(pres, n)
            assert assembled.n == n
            assert assembled.dims == direct.dims
            assert assembled.graded == direct.graded
            assert assembled.certified


def test_curve_from_parts_examples(tw, p1):
    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    res_1, res_m1 = coh.curve_from_parts(tw, model, coh.twistor_formal_embedding(model), [1, -1])
    assert res_1.h0_dim == 3
    assert res_m1.h1_dim == 1
    ns = range(-3, 4)
    p1_embed = coh.p1_formal_embedding(model)
    for n, res in zip(ns, coh.curve_from_parts(p1, model, p1_embed, ns), strict=True):
        assert res.h0_dim - res.h1_dim == n + 1


def test_curve_from_parts_unit_rescale_invariance(tw):
    # pipeline output for f and f * unit are filtered-isomorphic
    for coeffs in ([1], [1, 1], [2]):
        model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps(coeffs, 16)), 16)
        (res,) = coh.curve_from_parts(tw, model, coh.twistor_formal_embedding(model), [2])
        assert res.dims == (5, 0)
        assert res.graded == {0: (1, 0), 1: (2, 0), 2: (2, 0)}


def test_curve_from_parts_rejects_non_ring_map(tw):
    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    good = coh.twistor_formal_embedding(model)

    def broken(i):
        w = good(i)
        return w.scale(2) if i == 1 else w

    with pytest.raises(EmbeddingNotRingMap):
        coh.curve_from_parts(tw, model, broken, [1])


def test_curve_from_parts_certifies_every_degree_h1_reads(p1):
    # n = 0 reads cutoff D = 4, and H^1 stabilization reads D + 1 and D + 2;
    # t^5 peaking at pole 6 breaks leading_exact in degree 5
    from curvecoh.presentation import leading_exact_failure
    from curvecoh.series import gaussian_window

    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)

    def embed(i):
        return gaussian_window({5: 1, 6: 1} if i == 5 else {i: 1})

    assert leading_exact_failure(p1, embed, 1, 6) == (5, "pole_order(embed(t^5)) != 5 (degree 5)")
    (res,) = coh.curve_from_parts(p1, model, embed, [0])
    assert res.cutoff_used == 4 and not res.certified
    (res,) = coh.curve_from_parts(p1, model, coh.p1_formal_embedding(model), [0])
    assert res.certified


def _gaussian_coeff(z) -> str:
    """A Q(i) coefficient in the presentation file syntax (imaginary part as ``3/4i``)."""
    if z.im == 0:
        return str(z.re)
    return f"{z.re}{'+' if z.im > 0 else ''}{z.im}i"


def _shifted_line_file(top: int) -> str:
    """Q(i)[w] with w -> (1+i)t + 1/2 up to degree ``top``: Gaussian, not monomial, windows."""
    from curvecoh.series import gaussian_window

    w = gaussian_window({1: GaussianRational(Fraction(1), Fraction(1)), 0: Fraction(1, 2)})
    lines = ["fields gaussian gaussian", "flags leading_exact"]
    lines += [f"basis w{k} {k}" for k in range(top + 1)]
    lines += [f"mul w{i} w{j} = 1*w{i + j}" for i in range(top + 1) for j in range(i, top + 1 - i)]
    for k in range(top + 1):
        wk = w.power(k)
        terms = [f"{_gaussian_coeff(wk.coeffs[e])}*t^{e}" for e in sorted(wk.coeffs, reverse=True)]
        lines.append(f"embed w{k} = {' + '.join(terms)}")
    return "\n".join(lines)


def _assert_windows_combine_basis(res, window):
    assert len(res.h0_windows) == res.h0_dim
    for vec, win in zip(res.h0_basis, res.h0_windows):
        assert win == combine(window, vec)


def test_h0_windows_are_the_combined_basis_windows(p1, tw):
    # the windows read off the reduced rows equal the elements' windows built
    # by scale-and-sum over the basis windows
    file_curve = load_presentation(_shifted_line_file(14), name="shifted")
    for pres in (tw, p1, file_curve):
        for n in range(-3, 13):
            res = coh.h0(pres, n)
            assert res.certified
            _assert_windows_combine_basis(res, pres.embed_basis)


def test_h0_windows_with_cutoffs_combine_basis_windows(p1, tw):
    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    for pres, embed in (
        (tw, coh.twistor_formal_embedding(model)),
        (p1, coh.p1_formal_embedding(model)),
    ):
        def clipped(i, embed=embed):
            return embed(i).clip(-model.prec)

        def staggered(i, embed=embed):
            return embed(i).clip(-model.prec + i % 3)

        ns = range(-3, 13)
        for n, res in zip(ns, coh.curve_from_parts(pres, model, clipped, ns), strict=True):
            assert all(w.cutoff == -model.prec for w in res.h0_windows)
            assert res.dims == coh.compute(pres, n).dims
            _assert_windows_combine_basis(res, clipped)
        # unequal cutoffs: every window is known down to the largest one
        for _, res in zip(ns, coh.curve_from_parts(pres, model, staggered, ns), strict=True):
            for vec, win in zip(res.h0_basis, res.h0_windows):
                assert win.cutoff == -model.prec + 2
                assert win.agrees_with(combine(staggered, vec))


def test_result_json(tw):
    data = coh.compute(tw, 2).to_json()
    assert data["h0"] == 5 and data["h1"] == 0
    assert data["gr"] == {"0": 1, "1": 2, "2": 2}
    assert data["certified"] is True


def _sympy_gluing_matrix(sympy, pres, n, D):
    """Coordinates at t^m, n < m <= D, of the affine basis up to degree D.

    Built with sympy from the basis labels (u = (t - 1/t)/2 and
    v = -(i/2)(t + 1/t) on the twistor line, wk = ((1+i)t + 1/2)^k on the
    shifted line), independently of the package's Laurent windows. The
    kernel is H^0(O(n)), the cokernel H^1(O(n)).
    """
    t = sympy.Symbol("t")
    names = {"t": t, "u": (t - 1 / t) / 2, "v": -sympy.I * (t + 1 / t) / 2}
    names.update({f"w{k}": ((1 + sympy.I) * t + sympy.Rational(1, 2)) ** k for k in range(D + 1)})
    basis = pres.basis_up_to(D)
    exprs = [sympy.sympify(pres.label(i).replace("^", "**"), locals=names) for i in basis]
    polys = [sympy.Poly(sympy.expand(e * t**D), t) for e in exprs]
    rows = []
    for m in range(D, n, -1):
        coeffs = [p.coeff_monomial(t ** (m + D)) for p in polys]
        if pres.pair.split:
            rows += [[sympy.re(c) for c in coeffs], [sympy.im(c) for c in coeffs]]
        else:
            rows.append(coeffs)
    return sympy.Matrix(rows), basis


def _sympy_scalar(sympy, c):
    z = GaussianRational.of(c)
    return sympy.Rational(str(z.re)) + sympy.I * sympy.Rational(str(z.im))


@pytest.mark.parametrize("curve", ["twistor", "p1", "shifted"])
@pytest.mark.parametrize("n", [-4, -1, 0, 3, 8])
def test_dims_and_h0_span_match_sympy(curve, n):
    sympy = pytest.importorskip("sympy")
    pres = {
        "twistor": twistor_presentation,
        "p1": p1_presentation,
        # Gaussian windows: the eliminations see nonzero imaginary parts
        "shifted": lambda: load_presentation(_shifted_line_file(14), name="shifted"),
    }[curve]()
    res = coh.compute(pres, n)
    gluing, basis = _sympy_gluing_matrix(sympy, pres, n, res.cutoff_used)
    kernel = gluing.nullspace()
    assert res.h0_dim == len(kernel)
    assert res.h1_dim == gluing.rows - gluing.rank()
    if kernel:
        ours = sympy.Matrix(
            [[_sympy_scalar(sympy, vec.get(i, 0)) for i in basis] for vec in res.h0_basis]
        )
        theirs = sympy.Matrix.hstack(*kernel).T
        assert ours.rank() == theirs.rank() == ours.col_join(theirs).rank()


# ---------------------------------------------------------------------------
# the integer gluing rows against the dense coordinate rows they replaced
# ---------------------------------------------------------------------------


def _reference_coords(pair, window, exps):
    row = []
    for e in exps:
        z = GaussianRational.of(window.coefficient(e))
        row.extend((z.re, z.im) if pair.split else (z,))
    return row


def _reference_sections(pres, window, fil_bound, D):
    """H^0 from dense GaussianRational coordinate rows [window | identity] through ``rref``."""
    from curvecoh.linalg import rref
    from curvecoh.series import MINUS_INFINITY

    pair = pres.pair
    basis = pres.basis_up_to(D)
    windows = [window(i) for i in basis]
    tops = [w.pole_order() for w in windows]
    top = int(max([t for t in tops if t != MINUS_INFINITY], default=fil_bound))
    cutoff = max((w.cutoff for w in windows if w.cutoff is not None), default=None)
    low = min((e for w in windows for e in w.coeffs), default=top + 1) if cutoff is None else cutoff
    exps = range(top, low - 1, -1)
    step = pair.coord_count
    width = len(exps) * step
    zero, one = pair.base_zero(), pair.base_one()
    rows = [
        _reference_coords(pair, w, exps) + [one if j == k else zero for j in range(len(windows))]
        for k, w in enumerate(windows)
    ]
    reduced, pivots = rref(rows)
    vecs, wins, pivot_exps = [], [], []
    for row, pc in zip(reduced, pivots):
        if pc < sum(e > fil_bound for e in exps) * step:
            continue
        vec = {i: c for i, c in enumerate(row[width:]) if c != 0}
        lead = vec[min(vec)]
        vecs.append({basis[i]: c / lead for i, c in vec.items()})
        coeffs = {}
        for j, e in enumerate(exps):
            cs = [c / lead for c in row[j * step:(j + 1) * step]]
            if any(cs):
                coeffs[e] = GaussianRational(*cs) if pair.split else cs[0]
        wins.append(coh.LaurentWindow(coeffs, cutoff))
        pivot_exps.append(exps[pc // step] if pc < width else None)
    return vecs, wins, coh._graded_from_pivots(pivot_exps)


def _reference_free_columns(pres, window, fil_bound, D, jump):
    """H^1's free (exponent, part) columns at cutoff D from dense coordinate rows through ``rref``."""
    from curvecoh.linalg import rref

    windows = [window(i) for i in pres.basis_up_to(D)]
    exps = range(max(D * jump, fil_bound), fil_bound, -1)
    _, pivots = rref([_reference_coords(pres.pair, w, exps) for w in windows])
    cols = [(e, p) for e in exps for p in range(pres.pair.coord_count)]
    return [col for k, col in enumerate(cols) if k not in set(pivots)]


def _assert_same_typed(ours, theirs):
    assert ours == theirs
    for a, b in zip(ours, theirs):
        assert type(a) is type(b), (a, b)


def _assert_matches_reference(pres, window, fil_bound, D, jump=1):
    vecs, wins, graded = coh._sections(pres, window, fil_bound, D)
    ref_vecs, ref_wins, ref_graded = _reference_sections(pres, window, fil_bound, D)
    assert graded == ref_graded
    assert [list(v) for v in vecs] == [list(v) for v in ref_vecs]  # keys in basis order
    for v, ref in zip(vecs, ref_vecs, strict=True):
        _assert_same_typed(list(v.values()), list(ref.values()))
    for w, ref in zip(wins, ref_wins, strict=True):
        assert w.cutoff == ref.cutoff
        _assert_same_typed(sorted(w.coeffs.items()), sorted(ref.coeffs.items()))
        _assert_same_typed(sorted(w.coeffs.values(), key=str), sorted(ref.coeffs.values(), key=str))
    reps, _ = coh._h1_classes(pres, window, fil_bound, D, jump)
    free = [(e, coh._UNITS.index(c)) for w in reps for e, c in w.coeffs.items()]
    assert free == _reference_free_columns(pres, window, fil_bound, D, jump)


def _gaussian_scaled_file(top: int, c: GaussianRational) -> str:
    """p1 in the coordinate c*t over (Q(i), Q(i)): Gaussian windows with one term each."""
    lines = ["fields gaussian gaussian", "flags leading_exact"]
    lines += [f"basis w{k} {k}" for k in range(top + 1)]
    lines += [f"mul w{i} w{j} = 1*w{i + j}" for i in range(top + 1) for j in range(i, top + 1 - i)]
    z = GaussianRational.of(1)
    for k in range(top + 1):
        lines.append(f"embed w{k} = {_gaussian_coeff(z)}*t^{k}")
        z = z * c
    return "\n".join(lines)


def _tailed_window(i):
    """c^i * t^i + d*(i+1) * t^-1 over Q(i): complex leads, and a column (t^-1) no row pivots at."""
    c, z = GaussianRational(Fraction(2, 3), Fraction(-1, 5)), GaussianRational.of(1)
    for _ in range(i):
        z = z * c
    return coh.LaurentWindow({i: z, -1: GaussianRational(Fraction(1, 2), Fraction(3)) * (i + 1)})


def test_integer_gluing_rows_match_dense_rows_on_builtin_curves(p1, tw):
    for pres in (tw, p1):
        for n in range(-5, 31):
            _assert_matches_reference(pres, pres.embed_basis, n, coh.resolved_default_cutoff(pres, n))
    for n in range(-3, 9):
        _assert_matches_reference(p1, _tailed_window, n, coh.default_cutoff(n))


def test_integer_gluing_rows_match_dense_rows_on_file_curves(rescaled_twistor_file):
    curves = [
        load_presentation(_shifted_line_file(14), name="shifted"),
        load_presentation(_gaussian_scaled_file(14, GaussianRational(Fraction(2, 3), Fraction(-1, 5)))),
        load_presentation(rescaled_twistor_file(14, Fraction(3, 2))),
    ]
    for pres in curves:
        for n in range(-6, 13):
            _assert_matches_reference(pres, pres.embed_basis, n, coh.resolved_default_cutoff(pres, n))


def test_integer_gluing_rows_match_dense_rows_with_cutoffs(p1, tw):
    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    for pres, embed in (
        (tw, coh.twistor_formal_embedding(model)),
        (p1, coh.p1_formal_embedding(model)),
    ):
        def clipped(i, embed=embed):
            return embed(i).clip(-model.prec)

        def staggered(i, embed=embed):
            return embed(i).clip(-model.prec + i % 3)

        for window in (clipped, staggered):
            for n in range(-3, 13):
                D = coh.default_cutoff(n)
                _assert_matches_reference(pres, window, model.fil_pole_bound(n), D, model.jump_index)
