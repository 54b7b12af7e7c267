"""The gluing-square cohomology engine against the known tables."""

import gc
import weakref
from fractions import Fraction
from functools import partial

import pytest

from curvecoh import cohomology as coh
from curvecoh.errors import (CutoffTooLarge, CutoffTooSmall, EmbeddingNotRingMap, IndeterminateTop,
                             NotStabilized)
from curvecoh.periodic import TwoPeriodicPresentation, tate_degree_zero
from curvecoh import presentation
from curvecoh.presentation import (
    AffinePresentation,
    EmbeddingCertificate,
    leading_exact_failure,
    leading_pivots,
    load_presentation,
    p1_presentation,
    twistor_presentation,
)
from curvecoh.scalars import GAUSSIAN_PAIR, GaussianRational, gaussian_tps
from curvecoh.series import gaussian_window


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
                for a in map(pres.embed_element, rm.h0_basis):
                    for b in map(pres.embed_element, rn.h0_basis):
                        assert (a * b).fil_member(m + n)


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

    # Q[t] over (Q, Q(i)) passes the leading_exact check, yet its image never
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
    with pytest.raises(CutoffTooLarge):
        coh.h1(pres, 0, D=4)


def test_a_twist_past_the_declared_degrees_is_refused_for_the_degrees_it_reads(p1_file):
    # a certified file runs no H^1 stabilization: the refusal names the degrees D + 2 a twist reads,
    # on a certified and an uncertified file alike
    text = p1_file(8, lambda k: k)
    message = r"presentation declares degrees up to 8; a twist reads degrees up to D \+ 2 <= 8, got D=7"
    for pres in (load_presentation(text), load_presentation(text.replace("flags leading_exact\n", ""))):
        for run in (lambda: coh.compute(pres, 0, D=7), lambda: coh.h1(pres, 0, D=7)):
            with pytest.raises(CutoffTooLarge, match=message):
                run()


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


def test_curve_from_parts_refuses_a_ring_map_broken_above_degree_4(tw):
    from curvecoh.presentation import check_ring_map
    from curvecoh.series import LaurentWindow

    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    good = coh.twistor_formal_embedding(model)

    def broken(i):
        w = good(i)
        return w + LaurentWindow.monomial(-5, 1) if i == 9 else w

    assert tw.label(9) == "u^5"
    with pytest.raises(EmbeddingNotRingMap):
        check_ring_map(tw, broken, 12)
    try:
        (res,) = coh.curve_from_parts(tw, model, broken, [0])
    except EmbeddingNotRingMap:
        return
    assert not res.certified


def _dependent_degree_5_file() -> str:
    """Q(i)[t] up to degree 6 with a second degree-5 element g -> t^5 + t^4, so g = x5 + x4.

    Its ring map holds (g*x1 = x6 + x5), but the leading coefficients of x5
    and g at t^5 are dependent: leading_exact fails in degree 5 only.
    """
    lines = ["fields gaussian gaussian"]
    lines += [f"basis x{k} {k}" for k in range(7)] + ["basis g 5"]
    lines += [f"mul x{i} x{j} = 1*x{i + j}" for i in range(7) for j in range(i, 7 - i)]
    lines += ["mul g x0 = 1*g", "mul g x1 = 1*x6 + 1*x5"]
    lines += [f"embed x{k} = 1*t^{k}" for k in range(7)] + ["embed g = 1*t^5 + 1*t^4"]
    return "\n".join(lines)


def test_curve_from_parts_certifies_every_degree_h1_reads(p1):
    # n = 0 reads cutoff D = 4, and H^1 stabilization reads D + 1 and D + 2;
    # the dependent leading coefficients in degree 5 leave the twist uncertified
    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    pres = load_presentation(_dependent_degree_5_file(), name="dependent")
    assert pres.max_degree == 6
    assert leading_exact_failure(pres, pres.embed_basis, 1, 6) == (
        5, "leading coefficients in degree 5 are k0-dependent")
    (res,) = coh.curve_from_parts(pres, model, pres.embed_basis, [0])
    assert res.cutoff_used == 4 and not res.certified
    assert res.dims == (1, 0)
    (res,) = coh.curve_from_parts(p1, model, coh.p1_formal_embedding(model), [0])
    assert res.certified


def test_a_loaded_presentation_is_collected_after_use():
    # the leading pivots live on the presentation's certificate (and on a
    # per-call one in curve_from_parts), so nothing outlives a loaded file but its results
    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    pres = load_presentation(_shifted_line_file(14), name="shifted")
    results = [coh.compute(pres, 3), coh.h1(pres, -2)]
    results += coh.curve_from_parts(pres, model, pres.embed_basis, [-2, 0, 3])
    assert all(res.certified for res in results)
    assert pres.certificate._pivots  # the read-off ran
    ref = weakref.ref(pres)
    del pres
    gc.collect()
    assert ref() is None


def _p1_file(top: int, embeds: dict) -> str:
    """Q(i)[t] up to degree ``top``, leading_exact declared, x_k -> embeds.get(k, t^k)."""
    lines = ["fields gaussian gaussian", "flags leading_exact"]
    lines += [f"basis x{k} {k}" for k in range(top + 1)]
    lines += [f"mul x{i} x{j} = 1*x{i + j}" for i in range(top + 1) for j in range(i, top + 1 - i)]
    lines += [f"embed x{k} = {embeds.get(k, f'1*t^{k}')}" for k in range(top + 1)]
    return "\n".join(lines)


def test_read_off_keeps_the_elimination_errors(p1):
    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    # n = 0 reads D = 4: the stabilization loop reads D + 1 and D + 2 too, and
    # a window there known only above t^1 is indeterminate to it. A certified
    # twist reads H^1 off the conductor (c = 0), so it reads no such window
    for degree in (5, 6):
        def clipped(i, degree=degree):
            w = p1.embed_basis(i)
            return w.clip(2) if i == degree else w

        assert leading_exact_failure(p1, clipped, 1, 6) is None  # certified: the read-off runs
        with pytest.raises(IndeterminateTop, match=r"only known above O\(t\^1\), need coefficients down to t\^1"):
            coh._h1_classes(p1, clipped, 0, 4, 1)
        [res] = coh.curve_from_parts(p1, model, clipped, [0])
        assert res.certified and res.to_json() == coh.compute(p1, 0).to_json()

    # x7 -> t^8 breaks leading_exact (and the ring map) in degree 7, above
    # the degree 6 the loader checks
    pres = load_presentation(_p1_file(8, {7: "1*t^8"}))
    assert pres.certificate.checked == 6
    # D + 2 > max_degree is refused before any check would reach degree 7
    with pytest.raises(CutoffTooLarge, match="got D=7"):
        coh.h1(pres, 0, D=7)
    with pytest.raises(CutoffTooLarge, match="got D=7"):
        coh.curve_from_parts(pres, model, pres.embed_basis, [0], D=7)
    # the elimination alone drifts, but every route fails on the certificate
    # first, which names the root cause
    with pytest.raises(NotStabilized, match=r"cutoffs 5\.\.7: \[0, 0, 1\]"):
        coh._h1_classes(pres, pres.embed_basis, 0, 5, 1)
    for run in (lambda: coh.h1(pres, 0, D=5), lambda: coh.compute_twists(pres, [0], D=5)):
        with pytest.raises(EmbeddingNotRingMap, match=r"pole_order\(embed\(x7\)\) != 7 \(degree 7\)"):
            run()
    with pytest.raises(EmbeddingNotRingMap):
        coh.curve_from_parts(pres, model, pres.embed_basis, [0], D=5)
    assert pres.certificate.checked == 6


def test_certified_results_eliminate_only_what_structure_leaves_open(tw, monkeypatch):
    # certified: H^1 runs no forward pass and H^0 reduces the rows of degree
    # <= fil_bound only, once for all the twists of one call, at the largest;
    # uncertified: a pass per cutoff D..D+2 and every row
    from curvecoh import linalg

    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    passes, reduced = [], []

    def forward_pass(rows):
        passes.append(len(rows))
        return linalg.pivot_columns(rows)

    def reduction(rows):
        reduced.append(len(rows))
        return linalg.reduced_rows(rows)

    monkeypatch.setattr(coh, "pivot_columns", forward_pass)
    monkeypatch.setattr(coh, "reduced_rows", reduction)
    for n in (-3, 2, 9):
        assert coh.compute(tw, n).certified
        assert passes == [] and reduced == [len(tw.basis_up_to(n))]
        reduced.clear()
    for res in coh.curve_from_parts(tw, model, coh.twistor_formal_embedding(model), [-3, 2, 9]):
        assert res.certified
    assert passes == [] and reduced == [len(tw.basis_up_to(9))]
    reduced.clear()

    pres = load_presentation(_p1_file(8, {}).replace("flags leading_exact\n", ""))
    assert not coh.compute(pres, 0, D=4).certified
    assert passes == [5, 6, 7] and reduced == [5]


def test_certified_h1_is_read_off_one_conductor_per_call(p1, tw, monkeypatch):
    # a certified twist runs no H^1 elimination and asks each degree's leading
    # pivots at most once per call; an uncertified one runs cutoffs D, D+1, D+2
    from curvecoh import linalg

    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    free_columns, passes, asked = [], [], []
    h1_free_columns = coh._h1_free_columns
    monkeypatch.setattr(coh, "_h1_free_columns",
                        lambda *args: free_columns.append(args[3]) or h1_free_columns(*args))
    monkeypatch.setattr(coh, "pivot_columns", lambda rows: passes.append(rows) or linalg.pivot_columns(rows))

    def counted(pivots):
        return lambda *args: asked.append(args[-1]) or pivots(*args)

    for pres, ns, conductor in ((p1, range(-24, 25), [0]), (tw, [24], [0, 1])):
        monkeypatch.setattr(pres.certificate, "pivots", counted(pres.certificate.pivots))
        direct = coh.compute_twists(pres, ns)
        assert asked == conductor  # the degrees up to c + a - 1
        asked.clear()
        monkeypatch.setattr(presentation, "leading_pivots", counted(leading_pivots))
        assembled = coh.curve_from_parts(pres, model, pres.embed_basis, ns)
        assert asked == list(range(coh.default_cutoff(max(ns)) + 3))  # the certificate: max(D_n) + 2
        asked.clear()
        monkeypatch.setattr(presentation, "leading_pivots", leading_pivots)
        assert all(r.certified for r in direct + assembled)
        assert [r.to_json() for r in direct] == [r.to_json() for r in assembled]
        assert free_columns == [] and passes == []

    pres = load_presentation(_p1_file(8, {}).replace("flags leading_exact\n", ""))
    results = coh.compute_twists(pres, [-2, 0, 1])
    assert not any(r.certified for r in results)
    assert free_columns == [4, 5, 6, 4, 5, 6, 5, 6, 7]


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


def test_h0_sections_lie_in_fil_n_on_builtin_and_shifted_curves(p1, tw):
    file_curve = load_presentation(_shifted_line_file(14), name="shifted")
    for pres in (tw, p1, file_curve):
        for n in range(-3, 13):
            res = coh.h0(pres, n)
            assert res.certified
            assert all(pres.embed_element(vec).fil_member(n) for vec in res.h0_basis)


def test_h0_with_cutoffs_matches_exact_dims(p1, tw):
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
        for window in (clipped, staggered):
            for n, res in zip(ns, coh.curve_from_parts(pres, model, window, ns), strict=True):
                assert res.dims == coh.compute(pres, n).dims


def test_result_json(tw):
    data = coh.compute(tw, 2).to_json()
    assert data["h0"] == 5 and data["h1"] == 0
    assert data["gr"] == {"0": 1, "1": 2, "2": 2}
    assert data["certified"] is True


def _sympy_gluing_matrix(sympy, pres, n, D):
    """Coordinates at t^m, n < m <= D, of the affine basis up to degree D.

    Built with sympy from the basis labels (u = (t - 1/t)/2 and
    v = -(i/2)(t + 1/t) on the twistor line, wk and sk = ((1+i)t + 1/2)^k on
    the shifted line and the semigroup ring), independently of the package's
    Laurent windows. The kernel is H^0(O(n)), the cokernel H^1(O(n)) once
    every degree above D is full.
    """
    t = sympy.Symbol("t")
    w = (1 + sympy.I) * t + sympy.Rational(1, 2)
    names = {"t": t, "u": (t - 1 / t) / 2, "v": -sympy.I * (t + 1 / t) / 2}
    names.update({f"{x}{k}": w**k for k in range(D + 1) for x in "ws"})
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


@pytest.mark.parametrize("curve", ["twistor", "p1", "shifted", "semigroup"])
@pytest.mark.parametrize("n", [-4, -1, 0, 3, 8])
def test_dims_and_h0_span_match_sympy(curve, n, semigroup_file):
    sympy = pytest.importorskip("sympy")
    w = gaussian_window({1: GaussianRational(Fraction(1), Fraction(1)), 0: Fraction(1, 2)})
    pres = {
        "twistor": twistor_presentation,
        "p1": p1_presentation,
        # Gaussian windows: the eliminations see nonzero imaginary parts
        "shifted": lambda: load_presentation(_shifted_line_file(14), name="shifted"),
        # k[t^4, t^5, t^6] in w = (1+i)t + 1/2: the gap 7 lies above the default cutoff of n <= 2
        "semigroup": lambda: load_presentation(semigroup_file((4, 5, 6), w=w), name="semigroup"),
    }[curve]()
    res = coh.compute(pres, n)
    # the semigroup ring's degrees are full only from 8 on: its oracle reads up to the declared top
    top = pres.max_degree if curve == "semigroup" else res.cutoff_used
    gluing, basis = _sympy_gluing_matrix(sympy, pres, n, top)
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
    vecs, pivot_exps = [], []
    for row, pc in zip(reduced, pivots):
        if pc < sum(e > fil_bound for e in exps) * step:
            continue
        vec = {i: c for i, c in enumerate(row[width:]) if c != 0}
        lead = vec[min(vec)]
        vecs.append({basis[i]: c / lead for i, c in vec.items()})
        pivot_exps.append(exps[pc // step] if pc < width else None)
    return vecs, coh._graded_from_pivots(pivot_exps)


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


def _h1_outcome(run):
    """The free (exponent, part) columns of the H^1 classes ``run()`` returns, or its NotStabilized message."""
    try:
        reps, _ = run()
    except NotStabilized as exc:
        return str(exc)
    return [(e, coh._UNITS.index(c)) for w in reps for e, c in w.coeffs.items()]


def _assert_matches_reference(pres, window, fil_bound, D, jump=1, stable=True):
    """The elimination path and the leading-pivot read-off against dense ``rref``.

    Every input is certified leading_exact through D + 2, which the read-off
    needs. H^0 is read off the twist's own rows up to D and, as a certified
    twist reads the echelon at its column floor, off the rows up to
    fil_bound // jump and up to D. H^1's free columns are compared at D,
    D + 1 and D + 2. When ``stable``, the stabilization loop and the
    conductor read-off (searched through D + 2) both give the reference's
    classes; otherwise the loop's dimension drifts and there is no conductor.
    The read-off's certificate is taken to hold (``checked`` None): the
    leading_exact assert above is what it needs, and ``_tailed_window`` is
    no ring map.
    """
    assert leading_exact_failure(pres, window, jump, D + 2) is None
    ref_vecs, ref_graded = _reference_sections(pres, window, fil_bound, D)
    ref_free = [_reference_free_columns(pres, window, fil_bound, c, jump) for c in range(D, D + 3)]
    for rows in (None, partial(coh._section_rows, pres, window, fil_bound // jump),
                 partial(coh._section_rows, pres, window, D)):
        vecs, graded = coh._sections(pres, window, fil_bound, D, rows)
        assert graded == ref_graded
        assert [list(v) for v in vecs] == [list(v) for v in ref_vecs]  # keys in basis order
        for v, ref in zip(vecs, ref_vecs, strict=True):
            _assert_same_typed(list(v.values()), list(ref.values()))
    for c, ref in zip(range(D, D + 3), ref_free, strict=True):
        assert coh._h1_free_columns(pres, window, fil_bound, c, jump) == ref
    certificate = EmbeddingCertificate(pres, window, jump)
    certificate.checked = None
    loop = _h1_outcome(lambda: coh._h1_classes(pres, window, fil_bound, D, jump))
    conductor = _h1_outcome(lambda: coh._conductor_classes(
        pres, coh._conductor(pres, certificate, D + 2), fil_bound))
    if stable:
        assert loop == conductor == ref_free[0]
    else:
        assert "still changing" in loop and "no conductor" in conductor


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


def test_a_hand_built_leading_exact_flag_is_checked():
    # t^k -> t^2k is a ring map, but degree 1 peaks at t^2, not t^1: a
    # presentation built by hand has its flag checked lazily, as a loaded one has
    doubled = AffinePresentation(
        name="doubled",
        pair=GAUSSIAN_PAIR,
        degree_fn=lambda i: i,
        indices_of_degree_fn=lambda d: [d],
        embed_fn=lambda i: gaussian_window({2 * i: 1}),
        mul_fn=lambda i, j: (1, {i + j: (1, 0)}),
        label_fn=lambda i: f"t^{i}",
        leading_exact=True,
    )
    assert doubled.certificate.checked == -1
    with pytest.raises(EmbeddingNotRingMap, match=r"\(degree 1\)"):
        coh.compute(doubled, 0)
    assert p1_presentation().certificate.checked is None
    assert twistor_presentation().certificate.checked is None


def test_integer_gluing_rows_match_dense_rows_with_jump_2(p1):
    # t^k -> t^2k against a divided Bott model: degree d peaks at t^2d, so the
    # odd exponents carry no leading row, and H^1 drifts by one per degree
    divided = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([0, 1], 16)), 16)
    assert divided.jump_index == 2

    def doubled(i):
        return gaussian_window({2 * i: 1})

    for n in range(-3, 9):
        _assert_matches_reference(p1, doubled, divided.fil_pole_bound(n), coh.default_cutoff(n),
                                  divided.jump_index, stable=False)
    for fil_bound in (-5, -1, 1, 3, 9):  # odd bounds: fil_bound // 2 rounds down
        _assert_matches_reference(p1, doubled, fil_bound, 6, 2, stable=False)
    with pytest.raises(NotStabilized):
        coh.curve_from_parts(p1, divided, doubled, [0])


def test_compute_twists_equals_compute_per_twist(p1, tw, rescaled_twistor_file):
    uncertified = load_presentation(_p1_file(8, {}).replace("flags leading_exact\n", ""))
    cases = [
        (p1, range(-6, 13), (None, 14)),
        (tw, range(-6, 13), (None, 14)),
        (load_presentation(rescaled_twistor_file(10, Fraction(3, 2))), range(-6, 9), (None, 8)),
        (uncertified, range(-3, 7), (None, 6)),
    ]
    for pres, ns, cutoffs in cases:
        for D in cutoffs:
            ours = coh.compute_twists(pres, ns, D)
            theirs = [coh.compute(pres, n, D) for n in ns]
            assert [r.to_json() for r in ours] == [r.to_json() for r in theirs], (pres.name, D)
            assert [r.certified for r in ours] == [r.certified for r in theirs]
            assert all(r.certified for r in ours) == pres.leading_exact
    assert coh.compute_twists(tw, []) == []


def test_a_certified_range_reduces_once_and_keeps_nothing(tw, monkeypatch):
    from curvecoh import linalg

    reduced = []

    def reduction(rows):
        reduced.append(len(rows))
        return linalg.reduced_rows(rows)

    monkeypatch.setattr(coh, "reduced_rows", reduction)
    state = dict(vars(tw))
    for _ in range(2):
        results = coh.compute_twists(tw, range(-4, 10))
        assert all(r.certified for r in results)
    # one elimination per call, at the largest twist; the presentation keeps no echelon
    assert reduced == [len(tw.basis_up_to(9))] * 2
    assert vars(tw).keys() == state.keys()
    assert coh.compute_twists(tw, range(-3, 0)) and reduced[2:] == [0]


def test_a_range_reading_a_broken_ring_map_fails_on_its_certificate(tmp_path, capsys):
    # x9 -> t^10 breaks leading_exact and the ring map in degree 9. --n 0..10
    # reads degrees up to 12, so the certificate fails before the first twist
    # and names the root cause, not the drift of twist 3's H^1 (through degree 9)
    from curvecoh.cli import main

    curve = tmp_path / "broken.pres"
    curve.write_text(_p1_file(12, {9: "1*t^10"}))
    assert main(["cohomology", "--curve", str(curve), "--n", "0..10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cohomology: EmbeddingNotRingMap: {curve}: "
                            "pole_order(embed(x9)) != 9 (degree 9)\n")
    pres = load_presentation(_p1_file(12, {9: "1*t^10"}))
    with pytest.raises(EmbeddingNotRingMap, match=r"\(degree 9\)"):
        coh.compute_twists(pres, [0, 7])


def test_clipped_windows_read_h0_off_their_own_columns(p1):
    # a window known only above O(t^(c-1)) sets the lowest gluing column of
    # every twist that reads it; a twist that does not read it keeps its
    # lower columns, so no echelon is shared across them
    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)

    def clipped_at(cutoff, degree=8):
        def window(i):
            w = p1.embed_basis(i)
            return w.clip(cutoff) if i == degree else w
        return window

    def assert_reference(pres, window, results):
        for r in results:
            assert r.certified
            vecs, graded = _reference_sections(pres, window, r.n, r.cutoff_used)
            assert (r.h0_basis, r.h0_graded) == (vecs, graded), r.n

    # n = 0 reads degrees <= 4 and n = 10 reads the degree-8 window clipped at 5
    window = clipped_at(5)
    together = coh.curve_from_parts(p1, model, window, [0, 10])
    alone = [coh.curve_from_parts(p1, model, window, [n])[0] for n in (0, 10)]
    assert [r.to_json() for r in together] == [r.to_json() for r in alone]
    assert together[0].h0_dim == 1
    assert_reference(p1, window, together)

    # the same through compute_twists, and a single twist reading the clipped
    # window above its kernel degree: D = 10 > n = 0, cutoff 1 = n + 1
    for cutoff, ns, D in ((5, [0, 10], None), (1, [0], 10), (1, [0, 3], 10)):
        pres = AffinePresentation(
            name="clipped",
            pair=GAUSSIAN_PAIR,
            degree_fn=lambda i: i,
            indices_of_degree_fn=lambda d: [d],
            embed_fn=clipped_at(cutoff),
            mul_fn=lambda i, j: (1, {i + j: (1, 0)}),
            label_fn=lambda i: f"t^{i}",
            leading_exact=True,
        )
        results = coh.compute_twists(pres, ns, D)
        assert [r.to_json() for r in results] == [coh.compute(pres, n, D).to_json() for n in ns]
        assert_reference(pres, pres.embed_basis, results)


def _clipped_p1(clips: dict, leading_exact=True) -> AffinePresentation:
    """p1 by hand, with the window of each degree d in ``clips`` known only from t^clips[d] up."""
    p1 = p1_presentation()

    def window(i):
        w = p1.embed_basis(i)
        return w.clip(clips[i]) if i in clips else w

    return AffinePresentation(
        name="clipped",
        pair=GAUSSIAN_PAIR,
        degree_fn=lambda i: i,
        indices_of_degree_fn=lambda d: [d],
        embed_fn=window,
        mul_fn=lambda i, j: (1, {i + j: (1, 0)}),
        label_fn=lambda i: f"t^{i}",
        leading_exact=leading_exact,
    )


def test_a_certified_range_reduces_once_per_column_floor(p1, monkeypatch):
    # the degree-8 window clipped at 5: twists 0 and 1 read only exact windows
    # (floor None), twists 4..10 read it (floor 5); one echelon each, at n = 10
    from curvecoh import linalg

    reduced = []

    def reduction(rows):
        reduced.append(len(rows))
        return linalg.reduced_rows(rows)

    monkeypatch.setattr(coh, "reduced_rows", reduction)
    ns = [0, 1, *range(4, 11)]
    pres = _clipped_p1({8: 5})
    results = coh.compute_twists(pres, ns)
    assert reduced == [len(pres.basis_up_to(10))] * 2
    assert [r.to_json() for r in results] == [coh.compute(_clipped_p1({8: 5}), n).to_json() for n in ns]
    for r in results:
        assert r.certified
        assert (r.h0_basis, r.h0_graded) == _reference_sections(pres, pres.embed_basis, r.n, r.cutoff_used)

    # the same two floors through curve_from_parts, with Fil_n from a Tate model
    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    window = pres.embed_basis
    del reduced[:]
    together = coh.curve_from_parts(p1, model, window, ns)
    assert reduced == [len(p1.basis_up_to(10))] * 2
    alone = [coh.curve_from_parts(p1, model, window, [n])[0] for n in ns]
    assert [r.to_json() for r in together] == [r.to_json() for r in alone]
    assert [(r.h0_basis, r.graded) for r in together] == [(r.h0_basis, r.graded) for r in results]
    for r in together:
        assert (r.h0_basis, r.h0_graded) == _reference_sections(p1, window, r.n, r.cutoff_used)


def test_a_clipped_range_fails_before_its_first_twist(monkeypatch):
    # the degree-8 window clipped at 9 is zero above O(t^8), not certified
    # zero: a range that reads degree 8 fails on its certificate before any
    # twist is computed, also where a lower twist alone fails in its own H^1
    computed = []
    sections = coh._sections
    monkeypatch.setattr(coh, "_sections", lambda *args: computed.append(args) or sections(*args))
    for clips, ns, D in (({8: 9}, [0, 10], 10), ({8: 9}, [0, 3], 10), ({8: 9, 5: 3}, [0, 10], None)):
        with pytest.raises(IndeterminateTop, match=r"window is zero above O\(t\^8\)"):
            coh.compute_twists(_clipped_p1(clips), ns, D)
        assert computed == []
    # twist 0 alone is certified through degree 6; its H^0 reads degrees <= 4
    # and its H^1 the conductor (c = 0), so the degree-5 window clipped at 3 is
    # read by neither
    res = coh.compute(_clipped_p1({8: 9, 5: 3}), 0)
    assert (res.dims, res.certified) == ((1, 0), True)
    assert computed


def test_an_uncertified_h0_reads_a_window_known_zero_down_to_its_cutoff():
    # the degree-3 window is zero above O(t^3): its pole order is unknown but at
    # most 3, so O(3) holds it; H^0 reads it as H^1 does instead of refusing it
    pres = _clipped_p1({3: 4}, leading_exact=False)
    for n in (3, 6):
        res = coh.compute(pres, n)
        assert (res.dims, res.certified) == ((n + 1, 0), False)
    with pytest.raises(IndeterminateTop, match="only known above O"):
        coh.h0(pres, 2)


def test_the_direct_and_the_assembled_routes_agree(p1, tw, rescaled_twistor_file, monkeypatch):
    # one gluing square with two sources of Fil_n: the Laurent field, and a
    # formal-disc model with jump 1 that the presentation's own windows embed in
    model = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)
    ns = range(-6, 13)
    for pres in (p1, tw, load_presentation(rescaled_twistor_file(14, Fraction(3, 2)))):
        direct = coh.compute_twists(pres, ns)
        assembled = coh.curve_from_parts(pres, model, pres.embed_basis, ns)
        assert [r.to_json() for r in direct] == [r.to_json() for r in assembled], pres.name
        assert all(r.certified for r in direct)

    # a broken ring map and a clipped window fail on both routes, alike, before any twist
    computed = []
    sections = coh._sections
    monkeypatch.setattr(coh, "_sections", lambda *args: computed.append(args) or sections(*args))
    for pres, ns in ((load_presentation(_p1_file(12, {9: "1*t^10"})), range(11)),
                     (_clipped_p1({8: 9}), [0, 10])):
        errors = []
        for route in (partial(coh.compute_twists, pres, ns),
                      partial(coh.curve_from_parts, pres, model, pres.embed_basis, ns)):
            with pytest.raises((EmbeddingNotRingMap, IndeterminateTop)) as exc:
                route()
            errors.append(type(exc.value))
        assert errors[0] is errors[1] and computed == [], pres.name
