"""Per-layer tracing from outside the package.

``Tracer`` wraps public entry points of the ``curvecoh`` modules (the
layers) with functions that record a span: name, start, end, parent span
and job id. Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics and ``write`` dumps them when the run ends. Nothing under
``src/`` is changed: module functions are replaced in every module that
imported them, methods on their classes, and ``uninstall`` puts the
originals back.

Scalar arithmetic (millions of Fraction operations per pass) is too fine
to wrap; ``scalar_op_counts`` counts it with cProfile in a separate pass.
"""

from __future__ import annotations

import cProfile
import fractions
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

LAYERS = ("cli", "scalars", "series", "presentation", "linalg", "cohomology",
          "section_ring", "periodic", "harbater")


def _rref_cells(rec, args):
    rows = args[0]
    cells = len(rows) * len(rows[0]) if rows else 0
    rec.counts["linalg.rref_cells"] += cells
    rec.counts["linalg.rref_max_cells"] = max(rec.counts["linalg.rref_max_cells"], cells)


def _window_terms(rec, args):
    a, b = args
    if hasattr(b, "coeffs"):
        rec.counts["series.window_mul_terms"] += len(a.coeffs) * len(b.coeffs)


def _embed_hit(rec, args):
    pres, i = args
    return "presentation.embed_hit" if i in pres._embed_cache else "presentation.embed_miss"


def _pipeline_order(rec, args):
    rec.counts["periodic.pipeline_M"] += args[0].M


def _targets(m):
    """(owner, attribute, span name, hook) for every traced entry point.

    These are the entry points the per-layer metrics name, plus the calls
    from ``cli`` into ``scalars`` and ``presentation`` (parsing, builtin
    curves), so that ``cli.self_s`` holds only the command line's own work.
    A hook sees the call's arguments before the call; it may add to the
    recorder's counts and may return a more specific span name.
    """
    return [
        (m.cli, "main", "cli.main", None),
        (m.scalars.TruncatedPowerSeries, "compose", "scalars.tps_compose", None),
        (m.scalars.TruncatedPowerSeries, "reversion", "scalars.tps_reversion", None),
        (m.scalars.TruncatedPowerSeries, "inverse", "scalars.tps_inverse", None),
        (m.scalars.TruncatedPowerSeries, "__mul__", "scalars.tps_mul", None),
        (m.scalars, "parse_gaussian", "scalars.parse_gaussian", None),
        (m.series.LaurentWindow, "__mul__", "series.window_mul", _window_terms),
        (m.series.LaurentWindow, "power", "series.power", None),
        (m.series.LaurentWindow, "scale", "series.scale", None),
        (m.presentation.AffinePresentation, "embed_basis", "presentation.embed", _embed_hit),
        (m.presentation.AffinePresentation, "mul_elements", "presentation.mul_elements", None),
        (m.presentation, "load_presentation", "presentation.load", None),
        (m.presentation, "p1_presentation", "presentation.p1", None),
        (m.presentation, "twistor_presentation", "presentation.twistor", None),
        (m.linalg, "rref", "linalg.rref", _rref_cells),
        (m.linalg, "kernel_basis", "linalg.kernel_basis", None),
        (m.linalg, "solve_in_span", "linalg.solve_in_span", None),
        (m.cohomology, "h0", "cohomology.h0", None),
        (m.cohomology, "h1", "cohomology.h1", None),
        (m.cohomology, "curve_from_parts", "cohomology.curve_from_parts", None),
        (m.section_ring, "build_section_ring", "section_ring.build", None),
        (m.section_ring, "degree_one_generation", "section_ring.generation", None),
        (m.section_ring.SectionRing, "express", "section_ring.express", None),
        (m.periodic, "tate_degree_zero", "periodic.tate", None),
        (m.periodic, "pipeline_trace", "periodic.pipeline", _pipeline_order),
        (m.periodic.DegreeZeroImage, "image_equals_fil0", "periodic.image_equals_fil0", None),
        (m.periodic.DegreeZeroImage, "injective", "periodic.injective", None),
        (m.periodic.FilteredRingModel, "expand_base", "periodic.expand_base", None),
        (m.harbater, "local_completion", "harbater.completion", None),
    ]


class Tracer:
    """Records spans for the calls into each layer while installed."""

    def __init__(self, package_modules):
        self._modules = package_modules      # {short name: module}
        self.spans = []                      # [name, parent, job, start_ns, end_ns]
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            label = name
            if hook is not None:
                label = hook(self, args) or name
            span = [label, stack[-1] if stack else -1, self.job, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, hook in _targets(SimpleNamespace(**self._modules)):
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name, hook)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            # a module function: replace it wherever it was imported by name
            for mod in self._modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One tab-separated line per span: id, parent, job, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for k, (name, parent, job, start, end) in enumerate(self.spans):
                fh.write(f"{k}\t{parent}\t{job}\t{name}\t{start}\t{end}\n")


def _has_ancestor(spans, k, name) -> bool:
    parent = spans[k][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def layer_metrics(tracer: Tracer, speed: float = 1.0) -> dict:
    """Per-layer metrics from the recorded spans (seconds, counts, ratios).

    Span durations are multiplied by ``speed`` to give seconds at reference speed.
    """
    spans = tracer.spans
    child = [0] * len(spans)
    for name, parent, _job, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = Counter()
    inclusive = defaultdict(int)   # outermost spans of each name only
    self_ns = defaultdict(int)
    for k, (name, parent, _job, start, end) in enumerate(spans):
        calls[name] += 1
        self_ns[name.split(".", 1)[0]] += end - start - child[k]
        if not _has_ancestor(spans, k, name):
            inclusive[name] += end - start
    rref_under_h1 = sum(
        1 for k, s in enumerate(spans)
        if s[0] == "linalg.rref" and _has_ancestor(spans, k, "cohomology.h1")
    )
    expand_in_pipeline = sum(
        1 for k, s in enumerate(spans)
        if s[0] == "periodic.expand_base" and _has_ancestor(spans, k, "periodic.pipeline")
    )
    counts = tracer.counts

    def secs(*names):
        return sum(inclusive[n] for n in names) * speed / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    embed_calls = calls["presentation.embed_hit"] + calls["presentation.embed_miss"]
    out = {
        "scalars.tps_compose_calls": calls["scalars.tps_compose"],
        "scalars.tps_compose_s": secs("scalars.tps_compose"),
        "scalars.tps_reversion_s": secs("scalars.tps_reversion"),
        "scalars.tps_inverse_s": secs("scalars.tps_inverse"),
        "series.window_mul_calls": calls["series.window_mul"],
        "series.window_mul_terms": counts["series.window_mul_terms"],
        "series.window_mul_s": secs("series.window_mul"),
        "series.power_calls": calls["series.power"],
        "series.power_s": secs("series.power"),
        "series.scale_s": secs("series.scale"),
        "presentation.embed_calls": embed_calls,
        "presentation.embed_hit_ratio": ratio(calls["presentation.embed_hit"], embed_calls),
        "presentation.embed_miss_s": secs("presentation.embed_miss"),
        "presentation.mul_elements_calls": calls["presentation.mul_elements"],
        "presentation.load_s": secs("presentation.load"),
        "linalg.rref_calls": calls["linalg.rref"],
        "linalg.rref_cells": counts["linalg.rref_cells"],
        "linalg.rref_max_cells": counts["linalg.rref_max_cells"],
        "linalg.rref_s": secs("linalg.rref"),
        "linalg.solve_calls": calls["linalg.solve_in_span"],
        "linalg.solve_s": secs("linalg.solve_in_span"),
        "linalg.kernel_calls": calls["linalg.kernel_basis"],
        "cohomology.h0_s": secs("cohomology.h0"),
        "cohomology.h1_s": secs("cohomology.h1"),
        "cohomology.h1_useful_elim_ratio": ratio(calls["cohomology.h1"], rref_under_h1),
        "cohomology.assembly_s": secs("cohomology.curve_from_parts"),
        "section_ring.build_s": secs("section_ring.build"),
        "section_ring.generation_s": secs("section_ring.generation"),
        "section_ring.express_calls": calls["section_ring.express"],
        "periodic.tate_s": secs("periodic.tate"),
        "periodic.pipeline_s": secs("periodic.pipeline"),
        "periodic.image_check_s": secs("periodic.image_equals_fil0", "periodic.injective"),
        "periodic.expand_base_calls": calls["periodic.expand_base"],
        "periodic.useful_expand_ratio": ratio(counts["periodic.pipeline_M"], expand_in_pipeline),
        "harbater.completion_calls": calls["harbater.completion"],
        "harbater.completion_s": secs("harbater.completion"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_ns[layer] * speed / 1e9
    return out


def _arith_codes(cls, names) -> set:
    """cProfile keys of the named methods (those this Python version has)."""
    return {(c.co_filename, c.co_firstlineno, c.co_name)
            for c in (cls.__dict__[n].__code__ for n in names if n in cls.__dict__)}


def scalar_op_counts(run_pass, gaussian_cls) -> dict:
    """Fraction and Gaussian-rational arithmetic calls made by ``run_pass()``."""
    fraction_codes = _arith_codes(fractions.Fraction, [
        "_add", "_sub", "_mul", "_div", "_floordiv", "_divmod", "_mod",
        "__pow__", "__neg__", "__pos__", "__abs__"])
    gaussian_codes = _arith_codes(gaussian_cls, [
        "__add__", "__sub__", "__mul__", "__truediv__", "__neg__"])
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_pass()
    finally:
        profiler.disable()
    profiler.create_stats()
    fraction_ops = gaussian_ops = 0
    for key, (_cc, ncalls, *_rest) in profiler.stats.items():
        if key in fraction_codes:
            fraction_ops += ncalls
        elif key in gaussian_codes:
            gaussian_ops += ncalls
    return {"scalars.fraction_ops": fraction_ops, "scalars.gaussian_ops": gaussian_ops}
