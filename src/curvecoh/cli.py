"""Command-line interface.

Subcommands::

    curvecoh cohomology  --curve {p1,twistor,FILE} --n A..B [--cutoff D]
    curvecoh section-ring --curve {p1,twistor,FILE} --max-degree D
    curvecoh pipeline    --f EXPR --M M [--prec P]
    curvecoh dream       --x POINT --r RADIUS --M M --n A..B

Output is an aligned table by default or canonical JSON with
``--format json`` (sorted keys, two-space indent, re-serializable to the
same bytes). A JSON config file can replace flags (``--config``); flags
given explicitly win. Exit codes: 0 success, 1 computation failure (a
result too large to print included), 2 usage/config failure. Reports
always include certification status and the cutoffs used, so heuristic
results are never silently exact-looking.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from functools import cache

from . import cohomology as coh
from . import section_ring as sect
from .errors import ComputationError, CutoffTooSmall, ResultTooLarge
from .harbater import local_completion, poly_str
from .periodic import TwoPeriodicPresentation, pipeline_trace, tate_degree_zero
from .presentation import load_presentation, p1_presentation, twistor_presentation
from .scalars import (
    TruncatedPowerSeries,
    as_fraction,
    parse_gaussian,
    rational_tps,
)


def parse_range(text: str) -> list:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def parse_f_expression(text: str, order: int) -> TruncatedPowerSeries:
    """Tiny expression grammar over Q[[xi]]: numbers, xi, + - * ^ ( )."""
    tokens = []
    i, s = 0, text.replace(" ", "")
    while i < len(s):
        ch = s[i]
        if ch.isdigit():
            j = i
            while j < len(s) and (s[j].isdigit() or s[j] == "/"):
                j += 1
            tokens.append(("num", as_fraction(s[i:j])))
            i = j
        elif s.startswith("xi", i):
            tokens.append(("xi", None))
            i += 2
        elif ch in "+-*^()":
            tokens.append((ch, None))
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} in f-expression {text!r}")
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ValueError(f"f-expression {text!r} ends early")
        tok = tokens[pos]
        pos += 1
        return tok

    def atom() -> TruncatedPowerSeries:
        kind, value = take()
        if kind == "num":
            return rational_tps([value], order)
        if kind == "xi":
            return rational_tps([0, 1], order)
        if kind == "(":
            e = expr()
            if peek() != ")":
                raise ValueError("unbalanced parentheses in f-expression")
            take()
            return e
        raise ValueError(f"unexpected token {kind!r} in f-expression")

    def factor() -> TruncatedPowerSeries:
        # unary minus binds looser than ^: -a^b is -(a^b)
        if peek() == "-":
            take()
            return -factor()
        base = atom()
        while peek() == "^":
            take()
            kind, value = take()
            if kind != "num" or value.denominator != 1:
                raise ValueError("exponent must be a non-negative integer")
            # square-and-multiply: O(log k) products for base^k
            k, out = int(value), rational_tps([1], order)
            while k:
                if k & 1:
                    out = out * base
                k >>= 1
                if k:
                    base = base * base
            base = out
        return base

    def term() -> TruncatedPowerSeries:
        out = factor()
        while peek() == "*":
            take()
            out = out * factor()
        return out

    def expr() -> TruncatedPowerSeries:
        out = term()
        while peek() in ("+", "-"):
            kind, _ = take()
            rhs = term()
            out = out + rhs if kind == "+" else out - rhs
        return out

    try:
        result = expr()
    except RecursionError:
        raise ValueError("f-expression nested too deeply") from None
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in f-expression {text!r}")
    return result


def resolve_curve(name: str):
    if name == "p1":
        return p1_presentation()
    if name == "twistor":
        return twistor_presentation()
    try:
        with open(name) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"unknown curve {name!r} (not a builtin or readable file): {exc}")
    return load_presentation(text, name=name)


def emit(payload, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@contextmanager
def _printable():
    """Report CPython's int-to-str digit limit as ResultTooLarge (input is parsed before)."""
    try:
        yield
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        raise ResultTooLarge(f"an integer in the result exceeds the {limit}-digit limit") from None


def _table(rows: list, header: list) -> str:
    cols = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(header))]
    lines = []
    for k, row in enumerate(cols):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_cohomology(args) -> int:
    pres = resolve_curve(args.curve)
    ns = parse_range(str(args.n))
    for n in ns:
        default = coh.resolved_default_cutoff(pres, n)
        if args.cutoff is not None and args.cutoff < default and not args.uncertified_ok:
            raise CutoffTooSmall(
                f"cutoff {args.cutoff} below the default {default} for n={n} "
                f"(pass --uncertified-ok to force)"
            )
    with _printable():
        results = coh.compute_twists(pres, ns, D=args.cutoff)
        if args.format == "json":
            payload = results[0].to_json() if len(results) == 1 else [r.to_json() for r in results]
            emit(payload, args)
        else:
            rows = []
            for r in results:
                gr = ", ".join(f"{m}:{g0 + g1}" for m, (g0, g1) in r.graded.items())
                rows.append([r.n, r.h0_dim, r.h1_dim, gr or "-", r.certified, r.cutoff_used])
            emit(_table(rows, ["n", "h0", "h1", "gr", "certified", "cutoff"]), args)
        return 0


def cmd_section_ring(args) -> int:
    pres = resolve_curve(args.curve)
    with _printable():
        sr = sect.build_section_ring(pres, args.max_degree)
        hilbert = sect.hilbert_function(sr)
        report = sect.degree_one_generation(sr)
        if args.format == "json":
            payload = {"hilbert": hilbert, **report.to_json()}
            emit(payload, args)
        else:
            lines = [f"hilbert function: {hilbert}"]
            rows = [
                [n, report.surjective[n], report.kernel_dims[n]]
                for n in sorted(report.surjective)
            ]
            lines.append(_table(rows, ["degree", "surjective", "relations"]))
            for n, gens in sorted(report.kernel_generators.items()):
                for gen in gens:
                    terms = " + ".join(f"{c}*{m}" if c != "1" else m for m, c in gen.items())
                    lines.append(f"degree-{n} relation: {terms}")
            emit("\n".join(lines), args)
        return 0


#: the parameter xi at any tracked order, as a series prints it
_PARAMETER = re.compile(r"xi \+ O\(xi\^\d+\)")


def cmd_pipeline(args) -> int:
    f = parse_f_expression(args.f, args.M)
    with _printable():
        pres = TwoPeriodicPresentation(f=f)
        trace = pipeline_trace(pres, args.M if args.prec is None else args.prec)
        # series print one form per value, so this is rebase_round_trip(model) == xi + O(xi^order)
        round_trip = _PARAMETER.fullmatch(trace["rebase_round_trip"]) is not None
        checks_pass = trace["hfp_image_equals_fil0"] and trace["injective"] and round_trip
        if args.format == "json":
            emit(trace, args)
        else:
            lines = [
                f"f = {args.f}  (A = k[[xi]] mod xi^{args.M})",
                f"beta*v = {trace['beta_v']}",
                f"jump index = {trace['jump_index']}, carrier = {trace['carrier']}",
                f"reversion: {trace['reversion']}",
                f"rebase round trip: {trace['rebase_round_trip']}{'' if round_trip else '  FAIL'}",
                f"fixed-point image = Fil_0: {'PASS' if trace['hfp_image_equals_fil0'] else 'FAIL'}",
                f"injectivity: {'PASS' if trace['injective'] else 'FAIL'}",
            ]
            emit("\n".join(lines), args)
        return 0 if checks_pass else 1


def cmd_dream(args) -> int:
    x = parse_gaussian(args.x)
    r = as_fraction(args.r)
    ns = parse_range(str(args.n))
    with _printable():
        completion = local_completion(x, r, args.M)
        model = tate_degree_zero(completion.base_presentation(), args.M)
        curves = [
            ("twistor", twistor_presentation(), coh.twistor_formal_embedding(model)),
            ("p1", p1_presentation(), coh.p1_formal_embedding(model)),
        ]
        rows, all_ok = [], True
        for label, pres, embed in curves:
            pairs = zip(coh.curve_from_parts(pres, model, embed, ns), coh.compute_twists(pres, ns))
            for n, (assembled, direct) in zip(ns, pairs, strict=True):
                ok = direct.dims == assembled.dims and direct.graded == assembled.graded
                all_ok = all_ok and ok
                rows.append(
                    [label, n, f"{direct.dims}", f"{assembled.dims}", "PASS" if ok else "FAIL"]
                )
        if args.format == "json":
            payload = {
                "x": str(x),
                "r": str(r),
                "M": args.M,
                "kernel_generator": poly_str(completion.g),
                "results": [
                    {"curve": c, "n": n, "direct": d, "assembled": a, "ok": s == "PASS"}
                    for c, n, d, a, s in rows
                ],
                "all_match": all_ok,
            }
            emit(payload, args)
        else:
            lines = [
                f"completion at x = {x} (r = {r}, M = {args.M}); xi = {poly_str(completion.g)}",
                _table(rows, ["curve", "n", "direct", "assembled", "status"]),
                f"overall: {'PASS' if all_ok else 'FAIL'}",
            ]
            emit("\n".join(lines), args)
        return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``main`` never changes it."""
    parser = argparse.ArgumentParser(
        prog="curvecoh",
        description="Exact cohomology of line bundles on curves glued from an "
        "affine chart and a formal disc at infinity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["table", "json"], default=None)
        p.add_argument("--output", default=None, help="write the report to a file")
        p.add_argument("--config", default=None, help="JSON file supplying defaults")

    p = sub.add_parser("cohomology", help="H^0/H^1 tables with graded pieces")
    p.add_argument("--curve", default=None, help="p1, twistor, or a presentation file")
    p.add_argument("--n", default=None, help="single integer or range A..B")
    p.add_argument("--cutoff", type=int, default=None, help="affine degree cutoff")
    p.add_argument("--uncertified-ok", action="store_true")
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("section-ring", help="Hilbert function, generation, relations")
    p.add_argument("--curve", default=None)
    p.add_argument("--max-degree", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_section_ring)

    p = sub.add_parser("pipeline", help="degree-zero extraction trace")
    p.add_argument("--f", default=None, help="Bott coefficient, e.g. '1+xi'")
    p.add_argument("--M", type=int, default=None, help="truncation order of k[[xi]]")
    p.add_argument("--prec", type=int, default=None, help="carrier window depth")
    common(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("dream", help="end-to-end assembly against the direct route")
    p.add_argument("--x", default=None, help="completion point, e.g. '1/3' or 'i/2'")
    p.add_argument("--r", default=None, help="disc radius, e.g. '1/2'")
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--n", default=None, help="range of twists, e.g. '-3..3'")
    common(p)
    p.set_defaults(func=cmd_dream)

    return parser


def _apply_config(args, parser) -> None:
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: a bad document or an over-long int
        parser.error(f"cannot read config {args.config!r}: {exc}")
    for key, value in config.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"unknown config key {key!r}")
        if getattr(args, attr) in (None, False):
            setattr(args, attr, value)


#: the type each option must have once flags and config are merged; a config
#: file can supply any JSON value and ``--x=--`` makes argparse store []
_OPTION_TYPES = {
    "curve": str, "n": (str, int), "cutoff": int, "max_degree": int, "f": str,
    "M": int, "prec": int, "x": str, "r": str, "format": str, "output": str,
    "uncertified_ok": bool,
}


def _validate(args, parser) -> None:
    for key, expected in _OPTION_TYPES.items():
        if not hasattr(args, key):
            continue
        value = getattr(args, key)
        # None means "not given", except for a switch, which argparse sets to
        # False; a bool is only a switch's value (JSON true is not an int)
        if value is None and expected is not bool:
            continue
        if isinstance(value, bool) != (expected is bool) or not isinstance(value, expected):
            parser.error(f"--{key.replace('_', '-')}: invalid value {value!r}")
    if args.format is None:
        args.format = "table"
    required = {
        cmd_cohomology: ["curve", "n"],
        cmd_section_ring: ["curve", "max_degree"],
        cmd_pipeline: ["f", "M"],
        cmd_dream: ["x", "r", "M", "n"],
    }[args.func]
    for key in required:
        if getattr(args, key) is None:
            parser.error(f"missing --{key.replace('_', '-')}")
    if args.func is cmd_section_ring and args.max_degree < 2:
        parser.error("--max-degree must be >= 2")
    if args.func in (cmd_pipeline, cmd_dream) and args.M < 2:
        parser.error("--M must be >= 2")
    if args.func is cmd_dream:
        try:
            x = parse_gaussian(args.x)
            r = as_fraction(args.r)
        except ValueError as exc:
            parser.error(str(exc))
        if not 0 < r < 1:
            parser.error(f"r must satisfy 0 < r < 1, got {r}")
        if x.norm_squared > r * r:
            parser.error(f"|x| > r: {args.x} lies outside the disc of radius {args.r}")
    for key in ("n",):
        if hasattr(args, key) and getattr(args, key) is not None:
            try:
                parse_range(str(getattr(args, key)))
            except ValueError as exc:
                parser.error(str(exc))


_VALUE_FLAGS = {"--n", "--x", "--r", "--f", "--cutoff"}


def _merge_negative_values(argv: list) -> list:
    """Join value flags with arguments that look like options (e.g. --n -3..3).

    A bare ``--`` is argparse's end-of-options marker, never a value.
    """
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        dashed = nxt is not None and nxt.startswith("-") and nxt not in ("-", "--")
        if tok in _VALUE_FLAGS and dashed:
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    _apply_config(args, parser)
    _validate(args, parser)
    try:
        return args.func(args)
    except ComputationError as exc:
        print(f"error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
