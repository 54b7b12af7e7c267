"""Numerical-semigroup curves k[S]: exact cohomology counts, and the refusals of a curve without a conductor.

For S with gaps G (finitely many, all below its conductor), h0(O(n)) =
#{s in S : s <= n} and H^1(O(n)) has one class at each m > n outside S:
every negative m and every gap above n.
"""

import json
from fractions import Fraction

import pytest

from curvecoh import cohomology as coh
from curvecoh.cli import main
from curvecoh.errors import NotStabilized
from curvecoh.periodic import TwoPeriodicPresentation, tate_degree_zero
from curvecoh.presentation import load_presentation, p1_presentation, twistor_presentation
from curvecoh.scalars import GaussianRational, gaussian_tps
from curvecoh.series import gaussian_window

#: generators -> gaps of the semigroup they span
GAPS = {(4, 5, 6): (1, 2, 3, 7), (3, 5): (1, 2, 4, 7)}
#: w = (1+i)t + 1/2: every window dense, the structure constants and the answer unchanged
DENSE = gaussian_window({1: GaussianRational(Fraction(1), Fraction(1)), 0: Fraction(1, 2)})
NS = range(-3, 13)


@pytest.fixture(scope="module")
def model():
    return tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([1], 16)), 16)


def _expected(gaps, n) -> tuple:
    """(h0, h1, gr_h1) of O(n) on k[S]."""
    h0 = max(n + 1, 0) - sum(g <= n for g in gaps)
    outside = [m for m in range(n + 1, 0)] + [g for g in gaps if g > n]
    return h0, len(outside), {m: 1 for m in sorted(outside)}


@pytest.mark.parametrize("w", [None, DENSE], ids=["monomial", "dense"])
@pytest.mark.parametrize("generators", list(GAPS), ids=str)
def test_semigroup_counts_at_the_default_cutoff(semigroup_file, model, generators, w):
    pres = load_presentation(semigroup_file(generators, w=w))
    routes = (coh.compute_twists(pres, NS), coh.curve_from_parts(pres, model, pres.embed_basis, NS))
    for results in routes:
        for n, res in zip(NS, results, strict=True):
            h0, h1, gr_h1 = _expected(GAPS[generators], n)
            assert (res.n, res.dims, res.h1_graded, res.certified) == (n, (h0, h1), gr_h1, True)
            assert res.cutoff_used == coh.resolved_default_cutoff(pres, n)
    assert [r.to_json() for r in routes[0]] == [r.to_json() for r in routes[1]]
    for n in (-1, 0, 3):  # h1 alone reads the same conductor
        res, both = coh.h1(pres, n), coh.compute(pres, n)
        assert (res.h1_basis, res.h1_graded, res.certified) == (both.h1_basis, both.h1_graded, True)


def test_euler_characteristic_counts_the_gaps(semigroup_file):
    # chi(O(n)) = n + 1 - #gaps
    pres = load_presentation(semigroup_file((4, 5, 6)))
    assert coh.euler_characteristic(pres, 0) == -3
    assert [coh.euler_characteristic(pres, n) for n in (-2, 5, 9)] == [-5, 2, 6]


def test_curves_without_a_conductor_are_refused_before_any_twist(semigroup_file, model, monkeypatch):
    computed = []  # every twist starts with its H^1 classes and ends with its sections
    for name in ("_conductor_classes", "_h1_classes", "_sections"):
        monkeypatch.setattr(coh, name, lambda *args, run=getattr(coh, name): computed.append(args) or run(*args))
    # k[t^4, t^5, t^6] declared up to degree 9: the gap 7 and the undeclared 10 leave no four full degrees in a row
    short = load_presentation(semigroup_file((4, 5, 6), top=9))
    # Q[t] over (Q, Q(i)): no leading coefficient reaches i*t^m
    real_line = load_presentation(semigroup_file((1,), fields="rational gaussian"))
    for pres, last in ((short, 9), (real_line, 16)):
        message = rf"h1 has no conductor through degree {last} at jump index 1"
        for run in (lambda: coh.compute_twists(pres, [0, 3]), lambda: coh.h1(pres, 0)):
            with pytest.raises(NotStabilized, match=message):
                run()
    with pytest.raises(NotStabilized, match="through degree 9 at jump index 1"):  # the declared top, as above
        coh.curve_from_parts(short, model, short.embed_basis, [0])
    # t^k -> t^2k over a divided Bott model: certified, and the odd exponents are never reached
    divided = tate_degree_zero(TwoPeriodicPresentation(f=gaussian_tps([0, 1], 16)), 16)
    assert divided.jump_index == 2
    with pytest.raises(NotStabilized, match="through degree 6 at jump index 2"):
        coh.curve_from_parts(p1_presentation(), divided, lambda i: gaussian_window({2 * i: 1}), [0])
    assert computed == []


def test_the_command_line_prints_the_gap_above_the_cutoff_and_refuses_a_short_file(semigroup_file, tmp_path,
                                                                                     capsys):
    curve, short = tmp_path / "s456.pres", tmp_path / "s456_9.pres"
    curve.write_text(semigroup_file((4, 5, 6)))
    short.write_text(semigroup_file((4, 5, 6), top=9))
    assert main(["cohomology", "--curve", str(curve), "--n", "0", "--format", "json"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert (res["h1"], res["gr_h1"], res["certified"]) == (4, {"1": 1, "2": 1, "3": 1, "7": 1}, True)
    assert main(["cohomology", "--curve", str(short), "--n", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cohomology: NotStabilized: h1 has no conductor through degree 9 at jump index 1\n"


@pytest.mark.parametrize("w", [None, DENSE], ids=["monomial", "dense"])
def test_a_single_assembled_twist_searches_the_conductor_as_the_direct_route_does(semigroup_file, model, w):
    # one twist certifies through its own D + 2 only (6 at n = 0), below the conductor c = 8 and
    # c + a - 1 = 11: the search certifies each degree above that before it reads it
    pres = load_presentation(semigroup_file((4, 5, 6), w=w))
    for n in NS:
        (res,) = coh.curve_from_parts(pres, model, pres.embed_basis, [n])
        assert res.certified and res.to_json() == coh.compute(pres, n).to_json()


def test_each_degree_is_checked_once_per_call_also_above_the_reach(semigroup_file, model, monkeypatch):
    from curvecoh import presentation

    checked, asked = [], []
    check_ring_map, leading_pivots = presentation.check_ring_map, presentation.leading_pivots

    def recording_check(pres, window, max_degree, above=-1):
        checked.append((above, max_degree))
        return check_ring_map(pres, window, max_degree, above)

    monkeypatch.setattr(presentation, "check_ring_map", recording_check)
    monkeypatch.setattr(presentation, "leading_pivots", lambda *args: asked.append(args[-1]) or leading_pivots(*args))
    pres = load_presentation(semigroup_file((4, 5, 6)))
    checked.clear()
    asked.clear()
    (res,) = coh.curve_from_parts(pres, model, pres.embed_basis, [0])
    assert res.certified and res.h1_dim == 4
    # the reach max(D_n) + 2 = 6 in one check, then one degree at a time up to c + a - 1 = 11
    assert checked == [(-1, 6)] + [(d - 1, d) for d in range(7, 12)]
    assert asked == list(range(12))

    # the built-in curves hold by construction: no ring-map check and no leading_exact scan
    scanned = []
    monkeypatch.setattr(presentation, "leading_exact_failure", lambda *args: scanned.append(args))
    checked.clear()
    for builtin in (p1_presentation(), twistor_presentation()):
        assert all(r.certified for r in coh.compute_twists(builtin, range(-3, 13)))
    assert checked == [] and scanned == []
