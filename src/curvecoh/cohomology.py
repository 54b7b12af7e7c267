"""Cohomology of the line bundles O(n) by finite exact linear algebra.

H^0(X, O(n)) is the fiber of the gluing square: elements of the affine
algebra whose Laurent expansion at infinity lies in Fil_n (pole order at
most n). H^1(X, O(n)) is the cokernel: the Laurent field modulo the
affine algebra plus Fil_n. Both are computed over the presentation's
base field k0, truncating the affine algebra at a degree cutoff D.

When the presentation is ``leading_exact`` the truncation is provably
enough (an element of degree <= D cannot hide a pole above D), so the
results carry ``certified=True`` once the presentation's checks cover
every degree read (D for H^0, D+2 for H^1; see ``certified_through``);
without the flag they are reported uncertified. The H^1 dimension is
re-computed at D, D+1, D+2 and must stabilize for every presentation,
``leading_exact`` or not: leading coefficients that are k0-independent
need not span k1 over k0, so the image can miss a direction in every
degree (Q[t] inside Q(i)((t^-1)) never reaches i*t^m) and only the
drifting dimension shows it.

H^0 and H^1 are the kernel and cokernel of one gluing map, the affine
algebra up to degree D into the Laurent coefficients above Fil_n. Its
rows are each window's own integer numerators and denominator
(``gluing_rows``, realified over Q(i)). ``_sections`` reduces them once
for H^0, builds exact rationals only for the basis vectors it outputs
and the element windows straight from the integer rows, each row divided
by its first affine coordinate through one ``scalars.gaussian_reciprocal``;
``_h1_classes`` runs the stabilization loop for H^1 on forward passes,
which give the pivots alone. ``h0``, ``h1``, ``compute`` and
``curve_from_parts`` all go through these two.

Bases are unique: kernel and cokernel representatives are put in reduced
echelon form with pivot columns ordered by decreasing t-exponent (ties
broken by basis index), which makes the t-adic filtration degree of each
basis vector its pivot exponent and graded pieces a pivot count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

from .errors import CutoffTooSmall, IndeterminateTop, NotStabilized
from .linalg import pivot_columns, reduced_rows
from .presentation import (
    AffinePresentation,
    check_ring_map,
    gluing_rows,
    leading_exact_failure,
    p1_presentation,
    twistor_presentation,
)
from .scalars import GAUSSIAN_I, GAUSSIAN_ONE, GaussianRational, gaussian_reciprocal
from .series import MINUS_INFINITY, LaurentWindow

_UNITS = (GAUSSIAN_ONE, GAUSSIAN_I)


@dataclass
class CohomologyResult:
    """One line bundle's worth of cohomology data.

    ``h0_basis`` holds k0-coefficient vectors over the affine basis,
    ``h1_basis`` holds window representatives of cokernel classes, and
    the graded maps record t-adic filtration pivot counts.
    """

    n: int
    h0_basis: list | None = None
    h0_windows: list | None = None
    h0_graded: dict | None = None
    h1_basis: list | None = None
    h1_graded: dict | None = None
    certified: bool = False
    cutoff_used: int = 0
    window_bottom: int | None = None
    labels: list | None = None

    @property
    def h0_dim(self):
        return None if self.h0_basis is None else len(self.h0_basis)

    @property
    def h1_dim(self):
        return None if self.h1_basis is None else len(self.h1_basis)

    @property
    def dims(self):
        return (self.h0_dim, self.h1_dim)

    @property
    def graded(self) -> dict:
        """m -> (dim gr_m H^0, dim gr_m H^1), only nonzero entries."""
        out: dict = {}
        for m, g in (self.h0_graded or {}).items():
            out[m] = (g, 0)
        for m, g in (self.h1_graded or {}).items():
            g0, _ = out.get(m, (0, 0))
            out[m] = (g0, g)
        return dict(sorted(out.items()))

    def to_json(self) -> dict:
        data = {
            "n": self.n,
            "h0": self.h0_dim,
            "h1": self.h1_dim,
            "gr": {str(m): g0 + g1 for m, (g0, g1) in self.graded.items()},
            "gr_h0": {str(m): g for m, g in sorted((self.h0_graded or {}).items())},
            "gr_h1": {str(m): g for m, g in sorted((self.h1_graded or {}).items())},
            "certified": self.certified,
            "cutoff": self.cutoff_used,
        }
        if self.window_bottom is not None:
            data["window_bottom"] = self.window_bottom
        if self.h0_basis is not None and self.labels is not None:
            data["h0_basis"] = [
                {self.labels[i]: str(c) for i, c in sorted(vec.items())}
                for vec in self.h0_basis
            ]
        if self.h1_basis is not None:
            data["h1_basis"] = [str(w) for w in self.h1_basis]
        return data


def default_cutoff(n: int) -> int:
    return max(n, 0) + 4


def resolved_default_cutoff(pres: AffinePresentation, n: int) -> int:
    """The default degree cutoff, capped for degree-bounded presentations.

    H^1 stabilization recomputes at D+1 and D+2, so a presentation that
    only declares degrees up to max_degree supports D <= max_degree - 2.
    """
    D = default_cutoff(n)
    if pres.max_degree is not None:
        D = min(D, max(pres.max_degree - 2, max(n, 0)))
    return D


def _sections(pres: AffinePresentation, window, fil_bound: int, D: int):
    """H^0 up to degree D: affine elements whose window has pole order <= fil_bound.

    One reduced echelon form of [window coordinates t^top ... t^low |
    identity over the affine basis] (``gluing_rows``). Its rows with the
    pivot at or below t^fil_bound span exactly the kernel part, and since
    the reduced echelon form of a subspace is unique for a given column
    order, they are the canonical basis. Returns (basis, element windows,
    graded pieces); each basis vector {basis index: k0 coefficient} is
    rescaled so its first affine coordinate is 1. Each element's window is
    its integer row's window block divided by the same lead (one
    ``gaussian_reciprocal`` per row), known down to the largest cutoff of
    the basis windows (exact when every basis window is).
    """
    pair = pres.pair
    basis = pres.basis_up_to(D)
    windows = [window(i) for i in basis]
    _require_known(windows, fil_bound + 1)
    tops = [w.pole_order() for w in windows]
    top = int(max([t for t in tops if t != MINUS_INFINITY], default=fil_bound))
    cutoff = max((w.cutoff for w in windows if w.cutoff is not None), default=None)
    low = cutoff
    if cutoff is None:
        low = min((part[0][0] for w in windows for part in w.terms if part), default=top + 1)
    step = pair.coord_count
    width = (top - low + 1) * step
    vecs, wins, pivot_exps = [], [], []
    for pc, re, im in reduced_rows(gluing_rows(pair, windows, top, low, identity=True)):
        m = top - pc // step if pc < width else None
        if m is not None and m > fil_bound:
            continue
        coords = [(i, re.get(width + k, 0), im.get(width + k, 0)) for k, i in enumerate(basis)]
        coords = [c for c in coords if c[1] or c[2]]
        # rescale so the first affine coordinate (basis order) is 1; row operations
        # keep "window block = identity block applied to the basis windows"
        ra, rb, d = gaussian_reciprocal(*coords[0][1:])
        vecs.append({i: Fraction(u * ra, d) if pair.split
                     else GaussianRational(Fraction(u * ra - v * rb, d), Fraction(u * rb + v * ra, d))
                     for i, u, v in coords})
        # the window block's real and imaginary numerators by exponent (a split row is all in re)
        x, y = {}, {}
        for part, row in enumerate((re, im)):
            for c, u in row.items():
                if c < width:
                    (y if part + c % step else x)[top - c // step] = u
        exps = x.keys() | y.keys()
        wins.append(LaurentWindow.from_integers(
            d,
            {e: x.get(e, 0) * ra - y.get(e, 0) * rb for e in exps},
            {e: x.get(e, 0) * rb + y.get(e, 0) * ra for e in exps},
            cutoff,
        ))
        pivot_exps.append(m)
    return vecs, wins, _graded_from_pivots(pivot_exps)


def _graded_from_pivots(pivots) -> dict:
    out: dict = {}
    for m in pivots:
        if m is None:
            continue
        out[m] = out.get(m, 0) + 1
    return dict(sorted(out.items()))


def _require_known(windows, down_to: int):
    for w in windows:
        if w.cutoff is not None and w.cutoff > down_to:
            raise IndeterminateTop(
                f"embedding window only known above O(t^{w.cutoff - 1}), "
                f"need coefficients down to t^{down_to}"
            )


def _cutoff(pres: AffinePresentation, n: int, D: int | None, what: str) -> int:
    """The affine degree cutoff: D, or the default; never below max(n, 0)."""
    if D is None:
        D = resolved_default_cutoff(pres, n)
    if D < max(n, 0):
        raise CutoffTooSmall(f"{what} cutoff D={D} < max(n, 0) = {max(n, 0)}")
    return D


def _h1_classes(pres: AffinePresentation, window, fil_bound: int, D: int, jump: int):
    """(representatives, graded) of the cokernel, stable over cutoffs D, D+1, D+2.

    At cutoff D' the quotient target is span{t^m : fil_bound < m <=
    max(D'*jump, fil_bound)}, so an image that stops growing leaves new
    columns uncovered and the dimension drifts.
    """
    if pres.max_degree is not None and D + 2 > pres.max_degree:
        raise CutoffTooSmall(
            f"presentation declares degrees up to {pres.max_degree}; "
            f"h1 stabilization needs D + 2 <= {pres.max_degree}, got D={D}"
        )
    runs = []
    for cutoff in range(D, D + 3):
        windows = [window(i) for i in pres.basis_up_to(cutoff)]
        _require_known(windows, fil_bound + 1)
        top = max(cutoff * jump, fil_bound)
        # the (exponent, part) columns of the target off the image echelon
        pivots = set(pivot_columns(gluing_rows(pres.pair, windows, top, fil_bound + 1)))
        cols = [(e, p) for e in range(top, fil_bound, -1) for p in range(pres.pair.coord_count)]
        runs.append([col for k, col in enumerate(cols) if k not in pivots])
    dims = [len(free) for free in runs]
    if not dims[0] == dims[1] == dims[2]:
        raise NotStabilized(f"h1 dimension still changing at cutoffs {D}..{D + 2}: {dims}")
    free = runs[0]
    reps = [LaurentWindow.monomial(e, _UNITS[p]) for e, p in free]
    return reps, _graded_from_pivots([e for e, _ in free])


def h0(pres: AffinePresentation, n: int, D: int | None = None) -> CohomologyResult:
    """Global sections of O(n): affine elements with pole order <= n at infinity."""
    D = _cutoff(pres, n, D, "h0")
    certified = pres.certified_through(D)
    basis, windows, graded = _sections(pres, pres.embed_basis, n, D)
    return CohomologyResult(
        n=n,
        h0_basis=basis,
        h0_windows=windows,
        h0_graded=graded,
        certified=certified,
        cutoff_used=D,
        labels={i: pres.label(i) for i in pres.basis_up_to(D)},
    )


def h1(pres: AffinePresentation, n: int, D: int | None = None) -> CohomologyResult:
    """First cohomology of O(n): Laurent tail classes modulo the affine algebra.

    Representatives are pure monomial classes t^m (and i*t^m for a split
    coefficient pair) at the free columns of the image echelon, reduced
    modulo the image by construction.
    """
    D = _cutoff(pres, n, D, "h1")
    reps, graded = _h1_classes(pres, pres.embed_basis, n, D, 1)
    return CohomologyResult(
        n=n,
        h1_basis=reps,
        h1_graded=graded,
        certified=pres.certified_through(D + 2),
        cutoff_used=D,
        window_bottom=n,
    )


def compute(pres: AffinePresentation, n: int, D: int | None = None) -> CohomologyResult:
    """Both cohomology groups of O(n) in one result."""
    r0 = h0(pres, n, D)
    r1 = h1(pres, n, D)
    return replace(
        r0,
        h1_basis=r1.h1_basis,
        h1_graded=r1.h1_graded,
        certified=r0.certified and r1.certified,
        window_bottom=r1.window_bottom,
    )


def graded_pieces(res: CohomologyResult) -> dict:
    """The filtration's graded dimensions m -> (gr_m H^0, gr_m H^1).

    Requires a certified result; the per-degree dimensions always sum to
    the total dimensions by construction (pivot counts).
    """
    if not res.certified:
        raise NotStabilized("graded pieces require a certified result")
    graded = res.graded
    if res.h0_basis is not None:
        assert sum(g0 for g0, _ in graded.values()) == res.h0_dim
    if res.h1_basis is not None:
        assert sum(g1 for _, g1 in graded.values()) == res.h1_dim
    return graded


def euler_characteristic(pres: AffinePresentation, n: int, D: int | None = None) -> int:
    """dim H^0 - dim H^1; linear in n for the built-in curves."""
    res = compute(pres, n, D)
    if not res.certified:
        raise NotStabilized("euler characteristic requires certified dimensions")
    return res.h0_dim - res.h1_dim


# ---------------------------------------------------------------------------
# assembling a curve from an affine presentation and a formal-disc model
# ---------------------------------------------------------------------------


def curve_from_parts(
    pres: AffinePresentation,
    model,
    embedding,
    ns,
    D: int | None = None,
) -> list[CohomologyResult]:
    """Cohomology of O(n) for each twist n in ``ns``, with Fil_n from a formal-disc model.

    ``embedding`` maps basis indices to windows in the model's carrier; it
    is cached once and checked once to be a ring map on basis products up
    to degree 4, since neither depends on the twist. Returns one result per
    twist, in order. For a model with jump_index 1 this reproduces the
    direct computation. A result is certified when degree-d elements peak
    at pole d*jump with independent leading coefficients (the
    leading_exact property, verified in the carrier through D + 2, the
    highest degree that twist's H^1 stabilization reads).
    """
    ns = list(ns)
    cutoffs = [_cutoff(pres, n, D, "assembly") for n in ns]
    window = cache(embedding)
    check_ring_map(pres, window, 4)
    jump = model.jump_index
    # one pass through the highest degree read; twists reading below its failure stay certified
    failure = leading_exact_failure(pres, window, jump, max(cutoffs, default=0) + 2)
    results = []
    for n, D_n in zip(ns, cutoffs):
        fil_bound = model.fil_pole_bound(n)
        certified = failure is None or failure[0] > D_n + 2
        reps, h1_graded = _h1_classes(pres, window, fil_bound, D_n, jump)
        basis, windows, h0_graded = _sections(pres, window, fil_bound, D_n)
        results.append(CohomologyResult(
            n=n,
            h0_basis=basis,
            h0_windows=windows,
            h0_graded=h0_graded,
            h1_basis=reps,
            h1_graded=h1_graded,
            certified=certified,
            cutoff_used=D_n,
            window_bottom=n,
            labels={i: pres.label(i) for i in pres.basis_up_to(D_n)},
        ))
    return results


def p1_formal_embedding(model):
    """t^k -> t^k in the model carrier (t = inverse of the local parameter): p1's own windows."""
    return p1_presentation().embed_basis


def twistor_formal_embedding(model):
    """u -> (t - t^-1)/2, v -> -(i/2)(t + t^-1) in the model carrier: the twistor line's own windows."""
    return twistor_presentation().embed_basis
