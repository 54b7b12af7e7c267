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
(``gluing_rows``, realified over Q(i)). ``_section_rows`` reduces them,
with an identity block, for H^0 and builds exact rationals only for the
basis vectors it outputs. ``_h1_classes`` runs the stabilization loop
for H^1, which needs only the image's pivot columns. ``h0``, ``h1``,
``compute_twists`` and ``curve_from_parts`` all go through these two.

Where the window used is certified leading_exact through every degree a
result reads, structure decides what elimination would (a degree-d
element peaks at t^(d*jump) with k0-independent leading coefficients).
H^1's image pivots are each degree's leading pivots
(``presentation.leading_pivots``). Elements of pole order <= f have
degree <= f // jump and rows of higher degree pivot above t^f, so in the
reduced echelon form of the rows up to any K >= f // jump the rows that
pivot at or below t^f (a suffix) are their unique reduced basis over the
columns read. These end at a twist's column floor (its windows' largest
cutoff, None if all are exact): one elimination per floor serves a range
of twists. Lower twists read it before degree K is certified, which is
safe as on a leading_exact presentation ``certified_through`` returns
True or raises, and the largest twist certifies through D >= K before
``compute_twists`` returns. Uncertified windows reduce twist by twist,
the only way to see drift.

Bases are unique: kernel and cokernel representatives are put in reduced
echelon form with pivot columns ordered by decreasing t-exponent (ties
broken by basis index), which makes the t-adic filtration degree of each
basis vector its pivot exponent and graded pieces a pivot count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, partial

from .errors import (CutoffTooLarge, CutoffTooSmall, EmbeddingNotRingMap, IndeterminateTop,
                     NotStabilized)
from .linalg import pivot_columns, reduced_rows
from .presentation import (
    AffinePresentation,
    check_ring_map,
    gluing_rows,
    leading_exact_failure,
    leading_pivots,
    p1_presentation,
    twistor_presentation,
)
from .scalars import GAUSSIAN_I, GAUSSIAN_ONE, GaussianRational, gaussian_reciprocal
from .series import LaurentWindow

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
    h0_graded: dict | None = None
    h1_basis: list | None = None
    h1_graded: dict | None = None
    certified: bool = False
    cutoff_used: int = 0
    labels: list | None = None

    @property
    def h0_dim(self):
        return None if self.h0_basis is None else len(self.h0_basis)

    @property
    def h1_dim(self):
        return None if self.h1_basis is None else len(self.h1_basis)

    @property
    def window_bottom(self):
        """n for a result that carries H^1 (its classes live above Fil_n), else None."""
        return None if self.h1_basis is None else self.n

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


def _section_rows(pres: AffinePresentation, window, degree: int, floor: int | None):
    """(pivot exponent or None, basis vector) per reduced row of [gluing | identity].

    Rows up to ``degree``, columns down to t^floor, or to the rows' lowest term if ``floor`` is
    None. A vector {basis index: k0 coefficient} is the row's identity block scaled to a first
    coordinate 1.
    """
    pair = pres.pair
    basis = pres.basis_up_to(degree)
    windows = [window(i) for i in basis]
    # the terms, not pole_order: a shared echelon reads rows that a later twist certifies
    top = max((part[-1][0] for w in windows for part in w.terms if part), default=0)
    if floor is None:
        floor = min((part[0][0] for w in windows for part in w.terms if part), default=top + 1)
    step = pair.coord_count
    width = (top - floor + 1) * step
    out = []
    for pc, re, im in reduced_rows(gluing_rows(pair, windows, top, floor, identity=True)):
        m = top - pc // step if pc < width else None
        # the identity block's entries: column width + k is the coordinate at basis[k]
        coords = [(basis[c - width], re.get(c, 0), im.get(c, 0))
                  for c in sorted(re.keys() | im.keys()) if c >= width]
        ra, rb, d = gaussian_reciprocal(*coords[0][1:])
        out.append((m, {i: Fraction(u * ra, d) if pair.split
                        else GaussianRational(Fraction(u * ra - v * rb, d), Fraction(u * rb + v * ra, d))
                        for i, u, v in coords}))
    return out


def _sections(pres: AffinePresentation, window, fil_bound: int, D: int, rows=None):
    """(basis, graded pieces) of H^0 up to degree D: windows with pole order <= fil_bound.

    The ``_section_rows`` that pivot at or below t^fil_bound, at the twist's column floor (its
    windows' largest cutoff, None if all are exact): of ``rows(floor)``, a certified twist's
    echelon at a kernel degree >= fil_bound // jump, or else of its own rows up to D.
    """
    windows = [window(i) for i in pres.basis_up_to(D)]
    _require_known(windows, fil_bound + 1)
    floor = max((w.cutoff for w in windows if w.cutoff is not None), default=None)
    echelon = rows(floor) if rows else _section_rows(pres, window, D, floor)
    picked = [(m, vec) for m, vec in echelon if m is None or m <= fil_bound]
    return [vec for _, vec in picked], _graded_from_pivots(m for m, _ in picked)


def _graded_from_pivots(pivots) -> dict:
    out: dict = {}
    for m in pivots:
        if m is not None:
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


def _require_declared(pres: AffinePresentation, D: int):
    """H^1 stabilization reads degrees up to D + 2: refuse a presentation that stops below."""
    if pres.max_degree is not None and D + 2 > pres.max_degree:
        raise CutoffTooLarge(
            f"presentation declares degrees up to {pres.max_degree}; "
            f"h1 stabilization needs D + 2 <= {pres.max_degree}, got D={D}"
        )


def _h1_free_columns(pres: AffinePresentation, window, fil_bound: int, cutoff: int, jump: int,
                     pivots=None) -> list:
    """The (exponent, part) columns of the H^1 target at ``cutoff`` that the image misses.

    The target is span{t^m : fil_bound < m <= max(cutoff*jump, fil_bound)},
    realified for a (Q, Q(i)) pair. The image's pivot columns come from one
    forward pass over the rows of degree <= cutoff, or, with ``pivots``
    (degree d -> ``presentation.leading_pivots``, for a window certified
    leading_exact through ``cutoff``), are read off: a degree-d element
    peaks at t^(d*jump) with k0-independent leading coefficients, so the
    image pivots at (d*jump, p) for p among degree d's leading pivots,
    d*jump > fil_bound, and nowhere else.
    """
    top = max(cutoff * jump, fil_bound)
    cols = [(e, p) for e in range(top, fil_bound, -1) for p in range(pres.pair.coord_count)]
    if pivots is None:
        windows = [window(i) for i in pres.basis_up_to(cutoff)]
        rows = gluing_rows(pres.pair, windows, top, fil_bound + 1)
        image = {cols[k] for k in pivot_columns(rows)}
    else:
        image = {(d * jump, p) for d in range(max(fil_bound // jump + 1, 0), cutoff + 1)
                 for p in pivots(d)}
    return [col for col in cols if col not in image]


def _unit_monomial(e: int, p: int) -> LaurentWindow:
    """t^e for part p = 0, i*t^e for p = 1."""
    return LaurentWindow.monomial(e, _UNITS[p])


def _h1_classes(pres: AffinePresentation, window, fil_bound: int, D: int, jump: int,
                pivots=None, monomial=_unit_monomial):
    """(representatives, graded) of the cokernel, stable over cutoffs D, D+1, D+2.

    At cutoff D' the quotient target is span{t^m : fil_bound < m <=
    max(D'*jump, fil_bound)}, so an image that stops growing leaves new
    columns uncovered and the dimension drifts. ``pivots`` is passed on to
    ``_h1_free_columns``, for a window certified leading_exact through D + 2;
    ``monomial(e, p)`` builds the representative of free column (e, p).
    """
    _require_known([window(i) for i in pres.basis_up_to(D + 2)], fil_bound + 1)
    runs = [_h1_free_columns(pres, window, fil_bound, cutoff, jump, pivots)
            for cutoff in range(D, D + 3)]
    dims = [len(free) for free in runs]
    if not dims[0] == dims[1] == dims[2]:
        raise NotStabilized(f"h1 dimension still changing at cutoffs {D}..{D + 2}: {dims}")
    free = runs[0]
    reps = [monomial(e, p) for e, p in free]
    return reps, _graded_from_pivots([e for e, _ in free])


def h0(pres: AffinePresentation, n: int, D: int | None = None, rows=None) -> CohomologyResult:
    """Global sections of O(n): affine elements with pole order <= n; if certified, off ``rows(floor)``."""
    D = _cutoff(pres, n, D, "h0")
    certified = pres.certified_through(D)
    rows = (rows or partial(_section_rows, pres, pres.embed_basis, n)) if certified else None
    basis, graded = _sections(pres, pres.embed_basis, n, D, rows)
    return CohomologyResult(
        n=n,
        h0_basis=basis,
        h0_graded=graded,
        certified=certified,
        cutoff_used=D,
        labels={i: pres.label(i) for i in pres.basis_up_to(D)},
    )


def h1(pres: AffinePresentation, n: int, D: int | None = None, monomial=_unit_monomial) -> CohomologyResult:
    """First cohomology of O(n): Laurent tail classes modulo the affine algebra.

    Representatives are pure monomial classes t^m (and i*t^m for a split
    coefficient pair) at the free columns of the image echelon, reduced
    modulo the image by construction, built by ``monomial``.
    """
    D = _cutoff(pres, n, D, "h1")
    _require_declared(pres, D)
    try:
        certified = pres.certified_through(D + 2)
    except EmbeddingNotRingMap:
        _h1_classes(pres, pres.embed_basis, n, D, 1)  # the elimination's own errors come first
        raise
    pivots = pres.leading_pivots if certified else None
    reps, graded = _h1_classes(pres, pres.embed_basis, n, D, 1, pivots, monomial)
    return CohomologyResult(
        n=n,
        h1_basis=reps,
        h1_graded=graded,
        certified=certified,
        cutoff_used=D,
    )


def compute_twists(pres: AffinePresentation, ns, D: int | None = None) -> list[CohomologyResult]:
    """``compute`` for each twist n in ``ns``, in order, and with its errors in that order.

    Certified H^0s share one reduced echelon form per column floor at the largest kernel degree,
    min(max n, D), each built inside the first ``h0`` that reads it, and H^1 representatives are
    built once per (exponent, part), for this call only.
    """
    ns = list(ns)
    kernel = max(ns, default=-1) if D is None else min(max(ns, default=-1), D)
    rows = cache(partial(_section_rows, pres, pres.embed_basis, kernel))
    monomial = cache(_unit_monomial)
    pairs = [(h0(pres, n, D, rows), h1(pres, n, D, monomial)) for n in ns]
    return [replace(r0, h1_basis=r1.h1_basis, h1_graded=r1.h1_graded,
                    certified=r0.certified and r1.certified) for r0, r1 in pairs]


def compute(pres: AffinePresentation, n: int, D: int | None = None) -> CohomologyResult:
    """Both cohomology groups of O(n) in one result."""
    return compute_twists(pres, [n], D)[0]


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
    to max(D) + 2, the highest degree any twist reads, since neither
    depends on the twist. Returns one result per twist, in order. For a
    model with jump_index 1 this reproduces the direct computation. A
    result is certified when degree-d elements peak at pole d*jump with
    independent leading coefficients (the leading_exact property, verified
    in the carrier through D + 2, the highest degree that twist's H^1
    stabilization reads). Its H^1 is then read off the leading pivots that
    check computed, its H^0 off one echelon form per column floor at the
    largest fil_bound // jump, both kept for this call only.
    """
    ns = list(ns)
    cutoffs = [_cutoff(pres, n, D, "assembly") for n in ns]
    for D_n in cutoffs:
        _require_declared(pres, D_n)
    window = cache(embedding)
    jump = model.jump_index
    top = max(cutoffs, default=0) + 2
    check_ring_map(pres, window, top)
    pivots = cache(partial(leading_pivots, pres, window, jump))
    # one pass through the highest degree read; twists reading below its failure stay certified
    failure = leading_exact_failure(pres, window, jump, top, pivots=pivots)
    certified = [failure is None or failure[0] > D_n + 2 for D_n in cutoffs]
    kernel = max((model.fil_pole_bound(n) // jump for n, c in zip(ns, certified) if c), default=-1)
    rows = cache(partial(_section_rows, pres, window, kernel))
    monomial = cache(_unit_monomial)
    results = []
    for n, D_n, cert in zip(ns, cutoffs, certified):
        fil_bound = model.fil_pole_bound(n)
        reps, h1_graded = _h1_classes(pres, window, fil_bound, D_n, jump,
                                      pivots if cert else None, monomial)
        basis, h0_graded = _sections(pres, window, fil_bound, D_n, rows if cert else None)
        results.append(CohomologyResult(
            n=n,
            h0_basis=basis,
            h0_graded=h0_graded,
            h1_basis=reps,
            h1_graded=h1_graded,
            certified=cert,
            cutoff_used=D_n,
            labels={i: pres.label(i) for i in pres.basis_up_to(D_n)},
        ))
    return results


def p1_formal_embedding(model):
    """t^k -> t^k in the model carrier (t = inverse of the local parameter): p1's own windows."""
    return p1_presentation().embed_basis


def twistor_formal_embedding(model):
    """u -> (t - t^-1)/2, v -> -(i/2)(t + t^-1) in the model carrier: the twistor line's own windows."""
    return twistor_presentation().embed_basis
