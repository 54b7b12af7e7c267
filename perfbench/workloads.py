"""Seeded job lists for the three benchmark workloads.

A job is one ``curvecoh`` command line (always ``--format json``) plus the
invariants its output must satisfy. The seed chooses only coefficient
heights, twists from fixed bands, completion points, Bott coefficients and
job order; sizes (the largest twists, M and the section-ring degrees) are
fixed, so the cost of a pass stays roughly flat across seeds.

Generation uses plain ``fractions`` arithmetic and never imports
``curvecoh``: the rescaled twistor presentation is written independently of
the code under test, so loading it is a check of its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

#: the curve file name inside job command lines; replaced by the real path
CURVE_FILE = "@curve-file"

# Fixed sizes. "tiny" exists for the benchmark's own smoke test.
SIZES = {
    "full": {
        "twistor_fixed": [20, 24],
        "twistor_bands": [(0, 2), (4, 6), (9, 11), (14, 16)],
        "twistor_negative": 11,
        "p1_range": "-24..24",
        "file_degree": 14,
        "file_bands": [(-6, -4), (3, 5), (10, 12)],
        "M": 24,
        "M_big": 32,
        "dream_n": "-2..2",
        "ring_degrees": {"twistor": 9, "p1": 14, "file": 8},
    },
    "tiny": {
        "twistor_fixed": [3],
        "twistor_bands": [(0, 1)],
        "twistor_negative": 2,
        "p1_range": "-3..3",
        "file_degree": 8,
        "file_bands": [(-2, -1), (1, 2)],
        "M": 6,
        "M_big": 8,
        "dream_n": "-1..1",
        "ring_degrees": {"twistor": 3, "p1": 3, "file": 3},
    },
}

# Pools the seed draws from. Unit Bott coefficients have constant term +-1
# and integer coefficients of height at most 2: halves make the reversion's
# coefficients grow and the pipeline up to 1.5x dearer, so a seed could move
# the cost of a pass. Completion points lie in the disc |x| <= 1/2.
UNIT_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
SCALES = [Fraction(p, q) for p in (2, 3, 5) for q in (2, 3, 5) if p != q]
RATIONAL_POINTS = ["1/3", "-1/3", "1/4", "-1/4", "2/5", "-2/5", "1/5", "-1/5", "2/7", "-2/7", "3/7", "-3/7"]
GAUSSIAN_POINTS = ["i/2", "-i/2", "1/4+1/5i", "1/3+1/3i", "1/5-2/5i", "-1/4+1/4i", "1/3i",
                   "2/7+1/7i", "1/4+1/4i", "1/5+1/5i", "1/3-1/4i", "i/3", "1/4i"]


@dataclass
class Job:
    """One CLI call and what its output must satisfy."""

    key: str                 # stable name, used for digests and reports
    argv: list               # command line, CURVE_FILE stands for the curve file
    check: str               # invariant family, see gate.py
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list
    curve_text: str | None   # the generated presentation file, if any jobs use it


# ---------------------------------------------------------------------------
# the rescaled twistor line as a presentation file
# ---------------------------------------------------------------------------


def format_coeff(re: Fraction, im: Fraction) -> str:
    """A Q(i) coefficient in the file syntax; imaginary parts as ``3/10i``.

    ``str(GaussianRational)`` prints ``3/10*i``, which the loader cannot read
    back because it splits a term at its first ``*``.
    """
    if im == 0:
        return str(re)
    imag = f"{im}i"
    if re == 0:
        return imag
    return f"{re}+{imag}" if im > 0 else f"{re}{imag}"


def _twistor_symbols(max_degree: int) -> list:
    """(symbol, u power, has v) in the builtin twistor basis order."""
    out = [("one", 0, False)]
    for d in range(1, max_degree + 1):
        out.append((f"u{d}", d, False))
        out.append(("v" if d == 1 else f"u{d - 1}v", d - 1, True))
    return out


def _window(p: int, has_v: bool, c: Fraction) -> dict:
    """exponent -> (re, im) of u^p * v^has_v with t replaced by c*t.

    u = (ct - 1/(ct))/2 and v = -(i/2)(ct + 1/(ct)); expanded by the
    binomial theorem, so every coefficient is exact.
    """
    out = {}
    for k in range(p + 1):
        coeff = Fraction(comb(p, k) * (-1) ** k, 2**p) * c ** (p - 2 * k)
        out[p - 2 * k] = coeff
    if not has_v:
        return {e: (a, Fraction(0)) for e, a in out.items()}
    vw = {1: -c / 2, -1: -1 / (2 * c)}  # imaginary parts of v
    prod: dict = {}
    for e1, a in out.items():
        for e2, b in vw.items():
            prod[e1 + e2] = prod.get(e1 + e2, Fraction(0)) + a * b
    return {e: (Fraction(0), b) for e, b in prod.items() if b != 0}


def rescaled_twistor_text(c: Fraction, max_degree: int) -> str:
    """The twistor line with t rescaled by c, up to ``max_degree``."""
    syms = _twistor_symbols(max_degree)
    by_shape = {(p, v): s for s, p, v in syms}
    lines = [f"# twistor line with t -> {c}*t", "fields rational gaussian", "flags leading_exact"]
    for s, p, v in syms:
        lines.append(f"basis {s} {p + v}")
    for a in range(len(syms)):
        for b in range(a, len(syms)):
            sa, pa, va = syms[a]
            sb, pb, vb = syms[b]
            if pa + va + pb + vb > max_degree:
                continue
            p = pa + pb
            if va and vb:  # v^2 = -1 - u^2
                rhs = f"-1*{by_shape[(p, False)]} + -1*{by_shape[(p + 2, False)]}"
            else:
                rhs = f"1*{by_shape[(p, va or vb)]}"
            lines.append(f"mul {sa} {sb} = {rhs}")
    for s, p, v in syms:
        w = _window(p, v, c)
        terms = [f"{format_coeff(*w[e])}*t^{e}" for e in sorted(w, reverse=True)]
        lines.append(f"embed {s} = {' + '.join(terms)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def _term(c: Fraction, mono: str) -> str:
    if not mono:
        return str(abs(c))
    return mono if abs(c) == 1 else f"{abs(c)}*{mono}"


def unit_bott(rng: random.Random) -> str:
    """c0 + c1*xi + c2*xi^2 with c0 = +-1, as a --f expression."""
    coeffs = [rng.choice([Fraction(1), Fraction(-1)]), rng.choice(UNIT_COEFFS),
              rng.choice([Fraction(0), Fraction(1), Fraction(-1)])]
    text = ""
    for c, mono in zip(coeffs, ["", "xi", "xi^2"]):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if text else "")
        text += sign + _term(c, mono)
    return text


def _cohomology_job(curve: str, n, kind: str) -> Job:
    """``kind`` names the curve the invariants come from (p1 or twistor)."""
    argv = ["cohomology", "--curve", curve, "--n", str(n), "--format", "json"]
    return Job(f"cohomology {curve} {n}", argv, "cohomology", {"curve": kind})


def _cohomology_sweep(rng: random.Random, size: dict) -> list:
    jobs = []
    for n in sorted(rng.sample(range(-12, 0), size["twistor_negative"])):
        jobs.append(_cohomology_job("twistor", n, "twistor"))
    for lo, hi in size["twistor_bands"]:
        jobs.append(_cohomology_job("twistor", rng.randint(lo, hi), "twistor"))
    for n in size["twistor_fixed"]:
        jobs.append(_cohomology_job("twistor", n, "twistor"))
    jobs.append(_cohomology_job("p1", size["p1_range"], "p1"))
    for lo, hi in size["file_bands"]:
        jobs.append(_cohomology_job(CURVE_FILE, rng.randint(lo, hi), "twistor"))
    return jobs


def _formal_disc(rng: random.Random, size: dict) -> list:
    jobs = []
    units = []
    while len(units) < 3:
        f = unit_bott(rng)
        if f not in units:
            units.append(f)
    for k, f in enumerate(units):
        M = size["M_big"] if k == 0 else size["M"]
        jobs.append(Job(f"pipeline {f} M={M}", ["pipeline", "--f", f, "--M", str(M), "--format", "json"],
                        "pipeline", {"a": 0}))
    a = rng.choice([1, 2])
    f = f"{'xi' if a == 1 else f'xi^{a}'}*({unit_bott(rng)})"
    jobs.append(Job(f"pipeline {f} M={size['M']}", ["pipeline", "--f", f, "--M", str(size["M"]),
                                                     "--format", "json"], "pipeline", {"a": a}))
    for x in (rng.choice(RATIONAL_POINTS), rng.choice(GAUSSIAN_POINTS)):
        argv = ["dream", "--x", x, "--r", "1/2", "--M", str(size["M"]), "--n", size["dream_n"],
                "--format", "json"]
        jobs.append(Job(f"dream {x}", argv, "dream"))
    return jobs


def _section_ring(rng: random.Random, size: dict) -> list:
    jobs = []
    for curve, kind in (("twistor", "twistor"), ("p1", "p1"), (CURVE_FILE, "twistor")):
        D = size["ring_degrees"]["file" if curve == CURVE_FILE else curve]
        argv = ["section-ring", "--curve", curve, "--max-degree", str(D), "--format", "json"]
        jobs.append(Job(f"section-ring {curve} {D}", argv, "section-ring", {"curve": kind}))
    return jobs


_BUILDERS = {
    "cohomology-sweep": _cohomology_sweep,
    "formal-disc": _formal_disc,
    "section-ring": _section_ring,
}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload's job list and curve file for one seed."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    size = SIZES[scale]
    rng = random.Random(f"{name}/{seed}")
    c = rng.choice(SCALES)
    jobs = _BUILDERS[name](rng, size)
    rng.shuffle(jobs)
    uses_file = any(CURVE_FILE in job.argv for job in jobs)
    text = rescaled_twistor_text(c, size["file_degree"]) if uses_file else None
    return Workload(name, seed, jobs, text)
