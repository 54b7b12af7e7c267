"""Fuzzing of the three parsers of outside input: Gaussian literals, f-expressions, presentation files.

Every input gives a value or a named error (``ValueError`` or a
``ComputationError``), and through ``curvecoh.cli.main`` a parse failure
exits 2 without a traceback. Exponents in f-expressions are kept to one
digit and two carets, so that no example builds an integer of millions of
digits.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from curvecoh.cli import main, parse_f_expression  # noqa: E402
from curvecoh.errors import ComputationError  # noqa: E402
from curvecoh.presentation import AffinePresentation, load_presentation  # noqa: E402
from curvecoh.scalars import GaussianRational, TruncatedPowerSeries, parse_gaussian  # noqa: E402

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _outcome(parse, text):
    """The parsed value, or the named error it raised."""
    try:
        return parse(text)
    except (ValueError, ComputationError) as exc:
        return exc


def _cli_exit(argv):
    """Exit code of ``main(argv)``; fails on a traceback or an unnamed exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


def _expected_exit(outcome):
    if isinstance(outcome, ValueError):
        return {2}
    if isinstance(outcome, ComputationError):
        return {1}
    return {0, 1}


gaussian_texts = st.text(alphabet="0123456789/+-*i. ", max_size=14) | st.text(max_size=8)


@FUZZ
@given(gaussian_texts)
def test_parse_gaussian_gives_value_or_value_error(text):
    value = _outcome(parse_gaussian, text)
    assert isinstance(value, (GaussianRational, ValueError))


def _bounded_exponents(text):
    s = text.replace(" ", "")
    return s.count("^") <= 2 and not re.search(r"\^[\d/]*\d[\d/]*\d", s)


f_texts = st.text(alphabet="0123456789/xi+-*^() ", max_size=20).filter(_bounded_exponents)


@FUZZ
@given(f_texts)
def test_parse_f_expression_gives_value_or_value_error(text):
    value = _outcome(lambda s: parse_f_expression(s, 4), text)
    assert isinstance(value, (TruncatedPowerSeries, ValueError))


# the line t -> t over Q(i) to degree 2; examples keep, replace, drop or add lines
_BASE = [
    "fields gaussian gaussian", "flags leading_exact",
    "basis w0 0", "basis w1 1", "basis w2 2",
    "mul w0 w0 = 1*w0", "mul w0 w1 = 1*w1", "mul w0 w2 = 1*w2", "mul w1 w1 = 1*w2",
    "embed w0 = 1*1", "embed w1 = 1*t", "embed w2 = 1*t^2",
]
_symbols = st.sampled_from(["w0", "w1", "w2", "w3", "1"])
_coeffs = st.sampled_from(["1", "-1", "2", "1/2", "1/0", "i", "3/10i", "0", "x", ""])
_monomials = st.sampled_from(["t", "t^2", "t^-1", "1", "t^x", "u", ""])
_degrees = st.sampled_from(["0", "1", "2", "-1", "x", ""])


def _sum(terms):
    return " + ".join(f"{c}*{s}" if c else s for c, s in terms)


_lines = st.one_of(
    st.sampled_from([
        "fields rational gaussian", "fields rational", "fields real gaussian",
        "flags", "# comment", "",
    ]),
    st.builds("basis {} {}".format, _symbols, _degrees),
    st.builds(
        lambda a, b, terms: f"mul {a} {b} = {_sum(terms)}",
        _symbols, _symbols, st.lists(st.tuples(_coeffs, _symbols), min_size=1, max_size=3),
    ),
    st.builds(
        lambda s, terms: f"embed {s} = {_sum(terms)}",
        _symbols, st.lists(st.tuples(_coeffs, _monomials), min_size=1, max_size=3),
    ),
    st.text(max_size=12),
)


def _edited(edits):
    lines = []
    for base, (op, line) in zip(_BASE, edits):
        if op != "drop":
            lines.append(line if op == "replace" else base)
        if op == "add":
            lines.append(line)
    return "\n".join(lines)


_edits = st.tuples(st.sampled_from(["keep"] * 9 + ["replace", "drop", "add"]), _lines)
presentation_texts = st.lists(_edits, min_size=len(_BASE), max_size=len(_BASE)).map(_edited)


@FUZZ
@given(presentation_texts)
def test_load_presentation_gives_value_or_named_error(text):
    value = _outcome(load_presentation, text)
    assert isinstance(value, (AffinePresentation, ValueError, ComputationError))


@FUZZ
@given(gaussian_texts)
def test_cli_x_parse_failures_exit_2(text):
    code = _cli_exit(["dream", f"--x={text}", "--r", "1/2", "--M", "2", "--n", "0"])
    if isinstance(_outcome(parse_gaussian, text), ValueError):
        assert code == 2
    else:
        assert code in (0, 1, 2)  # a point outside the disc is a usage error too


@FUZZ
@given(f_texts)
def test_cli_f_parse_failures_exit_2(text):
    code = _cli_exit(["pipeline", f"--f={text}", "--M", "2"])
    assert code in _expected_exit(_outcome(lambda s: parse_f_expression(s, 2), text))


@FUZZ
@given(presentation_texts)
def test_cli_presentation_file_parse_failures_exit_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.pres"
        path.write_text(text)
        code = _cli_exit(["cohomology", "--curve", str(path), "--n", "0"])
    assert code in _expected_exit(_outcome(load_presentation, text))
