"""Fuzzing of the four parsers of outside input: Gaussian literals, f-expressions, presentation files, elements.

Every input gives a value or a named error (``ValueError`` or a
``ComputationError``), and through ``curvecoh.cli.main`` a parse failure
exits 2 without a traceback. Exponents in f-expressions (``^`` or ``**``)
are kept to one digit and two carets, so that no example builds an integer
of millions of digits; sympy checks the value of every f-expression that
parses.
Presentation monomials include t^-1000000000 and t^999999999, whose windows
span too many exponents for the ring-map check to pack. Elements keep every
digit run to three digits: ``parse_element`` refuses an exponent above
``MAX_EXPONENT`` before it builds a list, but a ``RationalFn`` reduces by a
dense polynomial gcd, which takes seconds at degrees in the thousands.
"""

import contextlib
import io
import re
import tempfile
from functools import partial
from math import gcd, lcm
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from curvecoh.cli import main, parse_f_expression  # noqa: E402
from curvecoh.errors import ComputationError  # noqa: E402
from curvecoh.harbater import CertifiedSeries, RationalFn, parse_element  # noqa: E402
from curvecoh.presentation import AffinePresentation, load_presentation  # noqa: E402
from curvecoh.scalars import (  # noqa: E402
    GaussianRational,
    TruncatedPowerSeries,
    common_denominator,
    gaussian_numerators,
    parse_gaussian,
)
from curvecoh.series import LaurentWindow  # noqa: E402

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _outcome(parse, text):
    """The parsed value, or the named error it raised."""
    try:
        return parse(text)
    except (ValueError, ComputationError) as exc:
        return exc


def _cli_run(argv):
    """(exit code, stdout, stderr) of ``main(argv)``; fails on a traceback or an unnamed exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _cli_exit(argv):
    """Exit code of ``main(argv)``; fails on a traceback or an unnamed exception."""
    return _cli_run(argv)[0]


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
    s = text.replace(" ", "").replace("**", "^")  # the parser reads ** as ^
    return s.count("^") <= 2 and not re.search(r"\^[\d/]*\d[\d/]*\d", s)


f_texts = st.text(alphabet="0123456789/xi+-*^() ", max_size=20).filter(_bounded_exponents)


@FUZZ
@given(f_texts)
def test_parse_f_expression_gives_value_or_value_error(text):
    value = _outcome(lambda s: parse_f_expression(s, 4), text)
    assert isinstance(value, (TruncatedPowerSeries, ValueError))


_f_atoms = st.sampled_from(["xi", "0", "1", "2", "7", "12", "00", "3/2", "1/7", "x i", "1 2"])
f_expressions = st.recursive(_f_atoms, lambda e: st.one_of(
    st.builds("-{}".format, e),
    st.builds("({})".format, e),
    st.builds("{}^{}".format, e, st.sampled_from(["0", "1", "2", "3", "(2)"])),
    st.builds("{}{}{}".format, e, st.sampled_from(["+", "-", "*", " - ", "**", "/"]), e),
), max_leaves=8)


@FUZZ
@given(f_texts | f_expressions, st.integers(1, 6))
def test_parse_f_expression_agrees_with_sympy(text, order):
    sympy = pytest.importorskip("sympy")
    value = _outcome(lambda s: parse_f_expression(s, order), text)
    if isinstance(value, ValueError):
        return
    xi = sympy.Symbol("xi")
    # the grammar's two rules that Python's lacks: spaces are ignored and a/b is one number
    source = re.sub(r"\d+/\d+", r"(\g<0>)", text.replace(" ", "")).replace("^", "**")
    expected = sympy.expand(sympy.parse_expr(source, local_dict={"xi": xi}))
    assert value.order == order
    assert [sympy.Rational(c.numerator, c.denominator) for c in value.coeffs] == [
        expected.coeff(xi, k) for k in range(order)]


# the line t -> t over Q(i) to degree 2; examples keep, replace, drop or add lines
_BASE = [
    "fields gaussian gaussian", "flags leading_exact",
    "basis w0 0", "basis w1 1", "basis w2 2",
    "mul w0 w0 = 1*w0", "mul w0 w1 = 1*w1", "mul w0 w2 = 1*w2", "mul w1 w1 = 1*w2",
    "embed w0 = 1*1", "embed w1 = 1*t", "embed w2 = 1*t^2",
]
_symbols = st.sampled_from(["w0", "w1", "w2", "w3", "1"])
_coeffs = st.sampled_from(["1", "-1", "2", "1/2", "1/0", "i", "3/10i", "0", "x", ""])
_monomials = st.sampled_from(["t", "t^2", "t^-1", "1", "t^x", "u", "", "t^-1000000000", "t^999999999"])
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


# the line to degree 8, past the degrees the loader's ring-map check reads, with
# w_i * w_j listed in both orders when 3 divides i + j: dropping one of those leaves
# its mirror rule, dropping any other leaves a product without a rule
_MIRRORED = [
    "fields gaussian gaussian", "flags leading_exact",
    *(f"basis w{k} {k}" for k in range(9)),
    *(f"mul w{a} w{b} = 1*w{i + j}" for i in range(9) for j in range(i, 9 - i)
      for a, b in ((i, j), (j, i))[:1 + ((i + j) % 3 == 0 and i != j)]),
    *(f"embed w{k} = 1*t^{k}" for k in range(9)),
]
_dropped_rules = st.sampled_from([_BASE, _MIRRORED]).flatmap(
    lambda lines: st.sampled_from([k for k, line in enumerate(lines) if line.startswith("mul ")]).map(
        lambda k: (lines, k)))

_edits = st.tuples(st.sampled_from(["keep"] * 9 + ["replace", "drop", "add"]), _lines)
presentation_texts = st.lists(_edits, min_size=len(_BASE), max_size=len(_BASE)).map(_edited)


@FUZZ
@given(presentation_texts)
def test_load_presentation_gives_value_or_named_error(text):
    value = _outcome(load_presentation, text)
    assert isinstance(value, (AffinePresentation, ValueError, ComputationError))


def _short_digit_runs(text):
    return not re.search(r"\d{4}", text.replace(" ", ""))


_polys = st.lists(st.sampled_from(["1", "-2", "3/4", "1/0", "T", "T^2", "3T", "2*T^3", "T^-1", "x", "", "0", "1.5",
                                   "T^999", "-201/100*T^100"]),
                  min_size=1, max_size=3).map(" + ".join)
element_texts = st.one_of(
    st.text(alphabet="0123456789/+-*^T:;,. bound", max_size=16),
    st.builds("{} / {}".format, _polys, _polys),
    st.builds(
        "{} ; {} ; {}".format,
        st.sampled_from(["-", "-1:2", "-2:1,-1:1/2", "1:2", "0:1", "-1:1/0", "x:1", "-1:", "-1:2:3", "",
                         "-999:1,-1:2"]),
        st.sampled_from(["", "1", "1 2 3", "1/0", "x", "1/2 0", "-3/4"]),
        st.sampled_from(["bound 1 1", "bound 2 3/4", "bound", "bound 1", "bound 1/0 1", "bound 1 0",
                         "bound 1 -1", "", "bnd 1 1", "bound 1 1 2", "bound 1 1/0", "bound x 1",
                         "bound 2 3/4 deg 2", "bound 1 1 deg", "bound 1 1 deg -1", "bound 1 1 deg x",
                         "bound 1 1 deg 1 2", "bound 1 1 dg 1"]),
    ),
).filter(_short_digit_runs)


@FUZZ
@given(element_texts)
def test_parse_element_gives_value_or_value_error(text):
    value = _outcome(parse_element, text)
    assert isinstance(value, (RationalFn, CertifiedSeries, ValueError))


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


@FUZZ
@given(_dropped_rules)
def test_a_dropped_rule_is_covered_by_its_mirror_or_refused_at_load(case):
    lines, k = case
    full, text = "\n".join(lines), "\n".join(lines[:k] + lines[k + 1:])
    value = _outcome(load_presentation, text)
    assert isinstance(value, (AffinePresentation, ValueError))
    top = max(int(line.split()[2]) for line in lines if line.startswith("basis "))
    with tempfile.TemporaryDirectory() as tmp:
        for name, curve in (("full", full), ("dropped", text)):
            (Path(tmp) / f"{name}.pres").write_text(curve)
        for argv in (["cohomology", "--n", f"-1..{top - 2}", "--format", "json"],
                     ["section-ring", "--max-degree", str(top), "--format", "json"]):
            want, got = (_cli_run([*argv, "--curve", str(Path(tmp) / f"{name}.pres")])
                         for name in ("full", "dropped"))
            assert want[0] == 0
            if isinstance(value, ValueError):  # refused at load, with the loader's message
                assert got[:2] == (2, "") and str(value) in got[2]
            else:  # the mirror rule gives the same answer
                assert got == want


# ---------------------------------------------------------------------------
# the loader against a term-by-term reference
# ---------------------------------------------------------------------------
#
# The reference reads each term as the loader did before it read plain embed
# terms in one match and each distinct right-hand side once: the term is cut
# at its first '*' that a target follows, and the coefficient goes through
# ``gaussian_numerators``.

_REF_EXPONENT = re.compile(r"t\^\s*([+-]?\d+)")


def _reference_cut(term, read):
    """(coefficient, target, read(target)) of one term, cut as the loader cuts it."""
    first = k = term.find("*")
    if k < 0:
        target = term.strip()
        return "1", target, read(target)
    while k >= 0:
        target = term[k + 1:].strip()
        value = read(target)
        if value is not None:
            return term[:k].strip(), target, value
        k = term.find("*", k + 1)
    return term[:first].strip(), term[first + 1:].strip(), None


def _reference_exponent(mono):
    if m := _REF_EXPONENT.fullmatch(mono):
        return int(m[1])
    return 1 if mono == "t" else 0 if mono == "1" else None


def _reference_embedding(sym, rhs):
    terms = {}
    for term in rhs.strip().split(" + "):
        coeff, mono, e = _reference_cut(term, _reference_exponent)
        if e is None:
            raise ValueError(f"bad embed monomial {mono!r}, expected 't^<exponent>', 't' or '1'")
        if e in terms:
            raise ValueError(f"exponent {e} repeated in the embedding of {sym!r}")
        terms[e] = gaussian_numerators(coeff)
    return LaurentWindow.from_integers(*common_denominator(terms))


def _reference_rule(a, b, rhs, index, split):
    dens, terms = {}, {}
    for term in rhs.strip().split(" + "):
        coeff, sym, k = _reference_cut(term, index.get)
        if k is None:
            raise ValueError(f"mul result references unknown symbol {sym!r}")
        if k in terms:
            raise ValueError(f"symbol {sym!r} repeated in the rule for {a} * {b}")
        den, re_, im = gaussian_numerators(coeff)
        if im and split:
            raise ValueError(f"structure constant {coeff!r} is not rational")
        g = gcd(den, re_, im)
        dens[k], terms[k] = den // g, (re_ // g, im // g)
    den = lcm(*dens.values())
    return den, {k: (x * (den // dens[k]), y * (den // dens[k])) for k, (x, y) in terms.items()}


# plain coefficients "<int>[/<int>][i]", the general syntax, and malformed text
_plain_coeffs = st.builds(
    "{}{}{}{}".format, st.sampled_from(["", "-", "+"]), st.integers(0, 120),
    st.one_of(st.just(""), st.just("/0"), st.integers(1, 40).map("/{}".format)), st.sampled_from(["i", ""]))
_general_coeffs = st.sampled_from(["1/2+1/3i", "i/2", "-i", "i", "3/4*i", "-5/4*i", "1 / 2", " 2", "2 ", "1/-2",
                                   "-2/3+i", "7 i"])
_malformed_coeffs = st.sampled_from(["x", "", "1/0i", "1/2+1/0", "1.5", "--1", "2*3", "i2"])
_term_coeffs = st.one_of(_plain_coeffs, _plain_coeffs, _general_coeffs, _general_coeffs, _malformed_coeffs)
_embed_monos = st.one_of(
    st.builds("t^{}".format, st.integers(-9, 9)),
    st.sampled_from(["t", "1", "t^ 3", "t^+2", "t^-0", " t^1", "t^1 ", "t^x", "u", "", "t^", "t^1.5"]),
)
_rule_symbols = st.sampled_from(["one", "z", "a*b"] * 4 + [" z", "one ", "a", "w", ""])


def _terms(coeffs, targets):
    """Terms "c*x", "c * x" or "x" (coefficient 1)."""
    return st.tuples(st.sampled_from(["{}*{}", "{} * {}", "{1}"]), coeffs, targets).map(
        lambda term: term[0].format(*term[1:]))


_embed_terms = st.one_of(st.builds("{}*t^{}".format, _plain_coeffs, st.integers(-9, 9)),
                         _terms(_term_coeffs, _embed_monos))
_rule_texts = st.lists(_terms(_term_coeffs, _rule_symbols), min_size=1, max_size=3).map(" + ".join)
_differential_cases = st.tuples(
    st.sampled_from(["rational", "gaussian"]),
    st.lists(_embed_terms, min_size=1, max_size=4).map(" + ".join),
    _rule_texts,
    st.sampled_from(["same", "digit", "longer"]) | _rule_texts,
)
#: the second rule's right-hand side as the first's, or a text that differs from it late
_SECOND = {"same": lambda rule: rule, "digit": lambda rule: rule[::-1].replace("1", "2", 1)[::-1],
           "longer": lambda rule: rule + " + 0*one"}


def _load_against_reference(field, drawn, outcomes):
    """The file of degree 7 with the ``drawn`` lines, loaded; None when it must be refused.

    ``outcomes`` holds the reference's value, refusal or None for each drawn
    line; the first refusal must be the loader's, with its line number. one
    and a*b frame the products one*z and z*one of degree 7, past the degrees
    the load checks, so the ring-map check reads none of the drawn text.
    """
    head = [f"fields {field} gaussian", "basis one 0", "basis z 7", "basis a*b 7",
            "mul one one = 1*one", "mul one a*b = 1*a*b", "embed one = 1*t^0", "embed a*b = 1*t^7"]
    text = "\n".join(head + drawn)
    for number, outcome in enumerate(outcomes, len(head) + 1):
        if isinstance(outcome, ValueError):
            with pytest.raises(ValueError) as refused:
                load_presentation(text)
            assert str(refused.value) == f"line {number}: {outcome}"
            return None
    return load_presentation(text)


@settings(FUZZ, max_examples=240)
@given(_differential_cases)
def test_loaded_windows_and_rules_match_the_term_by_term_reference(case):
    # the drawn embedding of z, then the drawn rules for one*z and z*one: the second
    # rule's right-hand side is the first's (read once), the first's with its last
    # digit 1 made 2 or with one more term, or its own
    field, embedding, rule, second = case
    second = _SECOND[second](rule) if second in _SECOND else second
    window = _outcome(partial(_reference_embedding, "z"), embedding)
    if pres := _load_against_reference(field, [f"embed z = {embedding}", "mul one z = 1*z"], [window, None]):
        assert pres.embed_basis(1) == window
    index = {"one": 0, "z": 1, "a*b": 2}
    rules = [_outcome(partial(_reference_rule, a, b, index=index, split=field == "rational"), rhs)
             for a, b, rhs in (("one", "z", rule), ("z", "one", second))]
    drawn = ["embed z = 1*t^7", f"mul one z = {rule}", f"mul z one = {second}"]
    if pres := _load_against_reference(field, drawn, [None, *rules]):
        assert [pres.rule(0, 1), pres.rule(1, 0)] == rules
        if second == rule:
            assert pres.rule(0, 1) is pres.rule(1, 0)
