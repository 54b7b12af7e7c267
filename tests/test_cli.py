"""Command-line interface: outputs, exit codes, JSON round trips."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest

from curvecoh.cli import main, parse_f_expression, parse_range
from curvecoh.scalars import TruncatedPowerSeries, rational_tps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("-3..3") == list(range(-3, 4))
    assert parse_range("5") == [5]
    with pytest.raises(ValueError):
        parse_range("3..-3")


def test_parse_f_expression():
    assert parse_f_expression("1+xi", 8) == rational_tps([1, 1], 8)
    assert parse_f_expression("xi*(1+xi)", 8) == rational_tps([0, 1, 1], 8)
    assert parse_f_expression("2", 8) == rational_tps([2], 8)
    assert parse_f_expression("xi^2 - 3/2", 8) == rational_tps([Fraction(-3, 2), 0, 1], 8)
    # unary minus binds looser than ^
    assert parse_f_expression("-xi^2", 8) == rational_tps([0, 0, -1], 8)
    assert parse_f_expression("-(1+xi)^2", 8) == rational_tps([-1, -2, -1], 8)
    assert parse_f_expression("-2^2", 8) == rational_tps([-4], 8)
    assert parse_f_expression("xi*-xi^2", 8) == rational_tps([0, 0, 0, -1], 8)
    # a/b is one number, bound tighter than unary minus and ^; spaces are ignored
    assert parse_f_expression("-3/2 + x i", 8) == rational_tps([Fraction(-3, 2), 1], 8)
    assert parse_f_expression("3/2^2", 8) == rational_tps([Fraction(9, 4)], 8)
    assert parse_f_expression("1 2*xi**2", 8) == rational_tps([0, 0, 12], 8)


@pytest.mark.parametrize("text", [
    "xi + %",
    "0x171",  # a hex literal: only decimal digits
    "01",  # a leading zero, which Python's parser refuses
    "2^2^3",  # a chained power: once (2^2)^3, while Python reads 2^(2^3)
    "xi^4/2",  # an exponent written as a/b: once xi^2, while Python reads (xi^4)/2
    "xi/2", "1/2/3", "+1", "2^-1", "xi^xi", "()",
])
def test_parse_f_expression_refuses(text):
    with pytest.raises(ValueError):
        parse_f_expression(text, 8)


def test_parse_f_expression_powers_by_squaring(monkeypatch):
    base = parse_f_expression("1/2+xi-3*xi*xi", 8)
    expected = rational_tps([1], 8)
    for k in range(13):
        got = parse_f_expression(f"(1/2+xi-3*xi*xi)^{k}", 8)
        assert (got.coeffs, got.order) == (expected.coeffs, expected.order), k
        assert all(type(c) is Fraction for c in got.coeffs)
        expected = expected * base
    calls = []
    mul = TruncatedPowerSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(TruncatedPowerSeries, "__mul__", counted)
    k = 10**5
    parse_f_expression(f"(1+xi)^{k}", 4)
    # one squaring per bit after the first, one product per set bit
    assert len(calls) == (k.bit_length() - 1) + bin(k).count("1")


def test_cohomology_table(capsys):
    code, out, err = run(capsys, "cohomology", "--curve", "p1", "--n", "-3..3")
    assert code == 0
    lines = out.splitlines()[2:]  # header and separator
    dims = {}
    for line in lines:
        parts = line.split()
        dims[int(parts[0])] = (int(parts[1]), int(parts[2]))
    for n in range(-3, 4):
        assert dims[n] == (max(n + 1, 0), max(-n - 1, 0))


def test_cohomology_json_example(capsys):
    code, out, _ = run(capsys, "cohomology", "--curve", "twistor", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["h0"] == 5 and data["h1"] == 0
    assert data["gr"] == {"0": 1, "1": 2, "2": 2}
    assert data["certified"] is True and "cutoff" in data


def test_json_round_trips_byte_identical(capsys):
    code, out, _ = run(capsys, "cohomology", "--curve", "twistor", "--n", "-2..2", "--format", "json")
    assert code == 0
    text = out.rstrip("\n")
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) == text


def test_cutoff_too_small_exits_1(capsys):
    code, out, err = run(capsys, "cohomology", "--curve", "p1", "--n", "-8", "--cutoff", "1")
    assert code == 1
    assert "CutoffTooSmall" in err


def test_cutoff_is_checked_for_every_twist_before_any_is_computed(capsys, tmp_path, monkeypatch,
                                                                   p1_file):
    import curvecoh.cohomology as coh

    computed = []
    compute_twists = coh.compute_twists
    monkeypatch.setattr(coh, "compute_twists",
                        lambda pres, ns, D=None: computed.append(ns) or compute_twists(pres, ns, D))
    code, out, err = run(capsys, "cohomology", "--curve", "twistor", "--n", "0..6", "--cutoff", "8")
    assert (code, out, computed) == (1, "", [])
    assert "CutoffTooSmall: cutoff 8 below the default 9 for n=5" in err
    # t9 -> t^10 fails the certificate in degree 9, which n = 0 reads at D = 9;
    # the cutoff too small for n = 6 is reported first
    curve = tmp_path / "broken.pres"
    curve.write_text(p1_file(12, lambda k: 10 if k == 9 else k))
    code, out, err = run(capsys, "cohomology", "--curve", str(curve), "--n", "0..10", "--cutoff", "9")
    assert (code, out, computed) == (1, "", [])
    assert "CutoffTooSmall: cutoff 9 below the default 10 for n=6" in err
    code, out, err = run(capsys, "cohomology", "--curve", str(curve), "--n", "0..5", "--cutoff", "9")
    assert (code, out, len(computed)) == (1, "", 1)
    assert "EmbeddingNotRingMap" in err


def test_cutoff_forced_with_uncertified_ok(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--curve", "p1", "--n", "-8", "--cutoff", "1", "--uncertified-ok"
    )
    assert code == 0


def test_invalid_curve_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cohomology", "--curve", "nope", "--n", "1"])
    assert info.value.code == 2


def test_missing_argument_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["cohomology", "--curve", "p1"])
    assert info.value.code == 2


_DREAM = ["--r", "1/2", "--M", "4", "--n", "0"]
_BAD_FILES = {
    "@bad-mul": "fields rational gaussian\nbasis a 0\nmul a a = 1/0*a\nembed a = 1*t^0\n",
    "@bad-embed": "fields rational gaussian\nbasis a 0\nmul a a = 1*a\nembed a = 1/0*t^0\n",
    # a space between two digits once joined them: 1 0 read as 10
    "@spaced-constant": "fields rational gaussian\nbasis a 0\nmul a a = 1*a\nembed a = 1 0*t^0\n",
    "@numeric-x-r": '{"x": 5, "r": 0.5}',
    "@numeric-f": '{"f": 1}',
    "@string-M": '{"M": "8"}',
    "@string-switch": '{"uncertified_ok": "false"}',
    "@numeric-switch": '{"uncertified_ok": 1}',
    "@null-switch": '{"uncertified_ok": null}',
    "@huge-M": '{"M": ' + "1" * 5000 + "}",
    "@bad-format": '{"format": "xml"}',
}


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--curve", "@bad-mul", "--n", "0"],
        ["cohomology", "--curve", "@bad-embed", "--n", "0"],
        ["cohomology", "--curve", "@spaced-constant", "--n", "0"],
        ["pipeline", "--f", "1/0", "--M", "4"],
        ["pipeline", "--f", "1+", "--M", "4"],
        ["pipeline", "--f", "xi^", "--M", "4"],
        ["pipeline", "--f", "xi*", "--M", "4"],
        ["pipeline", "--f", "(" * 2000 + "1" + ")" * 2000, "--M", "4"],
        ["pipeline", "--f=" + "-" * 2000 + "1", "--M", "4"],
        ["dream", "--x", "1/0", *_DREAM],
        ["dream", "--x", "i/0", *_DREAM],
        ["dream", "--x", "--", *_DREAM],
        ["dream", "--x", "0 1/3", *_DREAM],
        ["dream", "--x", "0", "--r", "0 1/2", "--M", "4", "--n", "0"],
        # a radius outside the Gaussian grammar, read by Python's Fraction grammar once
        # (1e-10000000 took 40 s and exited 1)
        *(["dream", "--x", "0", "--r", r, "--M", "2", "--n", "0"] for r in ("0.5", "1e-3", "1_0/2_0", "1e-10000000")),
        ["pipeline", "--f", "1", "--M", "4", "--prec", "0"],
        ["dream", "--x=--", *_DREAM],
        ["pipeline", "--f=--", "--M", "4"],
        ["cohomology", "--curve", "p1", "--n", "0", "--cutoff=--"],
        ["dream", "--config", "@numeric-x-r", "--M", "4", "--n", "0"],
        ["pipeline", "--config", "@numeric-f", "--M", "4"],
        ["pipeline", "--config", "@string-M", "--f", "1"],
        ["cohomology", "--curve", "p1", "--n", "0", "--config", "@bad-format"],
        *(["cohomology", "--curve", "p1", "--n", "3", "--cutoff", "4", "--config", switch]
          for switch in ("@string-switch", "@numeric-switch", "@null-switch")),
        # literals and config values over the int-to-str digit limit
        ["pipeline", "--config", "@huge-M", "--f", "1"],
        ["dream", "--x", "1" * 5000, *_DREAM],
        ["pipeline", "--f", "1" * 5000 + "+xi", "--M", "4"],
        ["cohomology", "--curve", "p1", "--n", "0", "--output", "/nonexistent-dir/out.txt"],
    ],
)
def test_malformed_input_exits_2(tmp_path, argv):
    path = tmp_path / "bad.pres"
    for name, text in _BAD_FILES.items():
        if name in argv:
            path.write_text(text)
    with pytest.raises(SystemExit) as info:
        main([str(path) if a in _BAD_FILES else a for a in argv])
    assert info.value.code == 2


def test_unwritable_output_exits_2_with_one_line(capsys, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["cohomology", "--curve", "p1", "--n", "0", "--output", str(tmp_path)])
    assert info.value.code == 2
    err = capsys.readouterr().err  # no usage text and no traceback, after the report was built
    assert err.startswith("curvecoh: error: cannot write --output: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_a_value_error_of_a_computation_propagates(monkeypatch):
    from curvecoh import cohomology

    def failing(*args, **kwargs):
        raise ValueError("a fault inside the computation")

    monkeypatch.setattr(cohomology, "compute_twists", failing)
    with pytest.raises(ValueError, match="a fault inside the computation"):
        main(["cohomology", "--curve", "p1", "--n", "0"])


@pytest.mark.parametrize("argv", [
    ["dream", "--x", "1/3", "--r", "1/2", "--M", "4", "--n", "0..1"],
    ["pipeline", "--f", "1+xi", "--M", "4"],
    ["cohomology", "--curve", "FILE", "--n", "0..1"],
    ["section-ring", "--curve", "FILE", "--max-degree", "4"],
])
def test_each_input_is_parsed_once(capsys, monkeypatch, tmp_path, p1_file, argv):
    from collections import Counter

    from curvecoh import cli

    calls = Counter()
    for parser in ("parse_range", "parse_gaussian", "as_fraction", "parse_f_expression", "load_presentation"):
        def counted(*args, _parse=getattr(cli, parser), _parser=parser, **kwargs):
            calls[_parser] += 1
            return _parse(*args, **kwargs)

        monkeypatch.setattr(cli, parser, counted)
    curve = tmp_path / "p1.pres"
    curve.write_text(p1_file(6, lambda k: k))
    assert main([str(curve) if a == "FILE" else a for a in argv]) == 0
    expected = {"dream": ["parse_gaussian", "as_fraction", "parse_range"], "pipeline": ["parse_f_expression"],
                "cohomology": ["parse_range", "load_presentation"], "section-ring": ["load_presentation"]}
    assert calls == Counter(expected[argv[0]])


@pytest.mark.parametrize("command", [["cohomology", "--n", "1"], ["section-ring", "--max-degree", "8"]])
def test_malformed_mul_constant_above_the_checked_degrees_exits_2(capsys, tmp_path, p1_file, command):
    # t1*t7 lies in degree 8: above the load-time checks (degree 6) and above what --n 1 reads
    curve = tmp_path / "bad.pres"
    curve.write_text(p1_file(8, lambda k: k).replace("mul t1 t7 = 1*t8", "mul t1 t7 = 1/0*t8"))
    with pytest.raises(SystemExit) as info:
        main([command[0], "--curve", str(curve), *command[1:]])
    assert info.value.code == 2
    assert "zero denominator" in capsys.readouterr().err


def test_section_ring_table(capsys):
    code, out, _ = run(capsys, "section-ring", "--curve", "twistor", "--max-degree", "6")
    assert code == 0
    assert "[1, 3, 5, 7, 9, 11, 13]" in out
    assert "u*u + v*v + 1*1" in out


def test_section_ring_p1_json(capsys):
    code, out, _ = run(
        capsys, "section-ring", "--curve", "p1", "--max-degree", "4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["hilbert"] == [1, 2, 3, 4, 5]
    assert all(v == 0 for v in data["kernel_dims"].values())


def test_section_ring_past_the_declared_degree_exits_1(capsys, tmp_path, rescaled_twistor_file):
    curve = tmp_path / "curve.txt"
    curve.write_text(rescaled_twistor_file(6, Fraction(3, 2)))
    code, out, err = run(capsys, "section-ring", "--curve", str(curve), "--max-degree", "9")
    assert (code, out) == (1, "")
    assert "CutoffTooLarge: presentation declares degrees up to 6" in err
    code, out, _ = run(capsys, "section-ring", "--curve", str(curve), "--max-degree", "6")
    assert code == 0 and "[1, 3, 5, 7, 9, 11, 13]" in out


def test_section_ring_on_a_rule_that_leaves_its_degree_exits_1(capsys, tmp_path, p1_file):
    # t1*t1 = t9 with t9 embedded as t^2 passes every check through degree 8 but the graded one
    curve = tmp_path / "curve.txt"
    curve.write_text(p1_file(10, lambda k: 2 if k == 9 else k).replace("mul t1 t1 = 1*t2", "mul t1 t1 = 1*t9"))
    code, out, err = run(capsys, "section-ring", "--curve", str(curve), "--max-degree", "8")
    assert (code, out) == (1, "")
    assert err == f"error: section-ring: EmbeddingNotRingMap: {curve}: t1*t1 = t9 has degree > 2\n"


def test_pipeline_pass(capsys):
    code, out, _ = run(capsys, "pipeline", "--f", "1", "--M", "16")
    assert code == 0
    assert "jump index = 1" in out
    assert "Fil_0: PASS" in out
    assert "injectivity: PASS" in out


def test_pipeline_reversion_printed(capsys):
    code, out, _ = run(capsys, "pipeline", "--f", "1+xi", "--M", "16")
    assert code == 0
    assert "reversion" in out and "-1*xi^2" in out
    assert "rebase round trip: xi + O" in out


def test_pipeline_fails_when_the_round_trip_fails(capsys, monkeypatch):
    reversion = TruncatedPowerSeries.reversion

    def perturbed(self):
        g = reversion(self)
        coeffs = list(g.coeffs)
        coeffs[3] += 1
        return TruncatedPowerSeries(coeffs, g.order)

    monkeypatch.setattr(TruncatedPowerSeries, "reversion", perturbed)
    code, out, _ = run(capsys, "pipeline", "--f", "1+xi", "--M", "16")
    assert code == 1
    line = next(line for line in out.splitlines() if line.startswith("rebase round trip:"))
    assert line.endswith("  FAIL") and not line.startswith("rebase round trip: xi + O(")
    code, out, _ = run(capsys, "pipeline", "--f", "1+xi", "--M", "16", "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["injective"] and payload["hfp_image_equals_fil0"]
    assert payload["rebase_round_trip"] != "xi + O(xi^17)"


def test_pipeline_zero_bott_exits_1(capsys):
    code, _, err = run(capsys, "pipeline", "--f", "0", "--M", "8")
    assert code == 1
    assert "ZeroBott" in err


def test_pipeline_m_too_small_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["pipeline", "--f", "1", "--M", "1"])
    assert info.value.code == 2


def test_result_too_large_to_print_exits_1(capsys):
    # parses and computes; the reversion's coefficients outgrow int-to-str conversion
    code, out, err = run(capsys, "pipeline", "--f", "1+2^2000*xi", "--M", "32")
    assert code == 1 and out == ""
    assert err.startswith("error: pipeline: ResultTooLarge:")
    assert f"{sys.get_int_max_str_digits()}-digit limit" in err
    assert "Traceback" not in err


def test_dream_pass(capsys):
    code, out, _ = run(capsys, "dream", "--x", "i/2", "--r", "1/2", "--M", "16", "--n", "-2..2")
    assert code == 0
    assert "FAIL" not in out
    assert "overall: PASS" in out


def test_dream_point_outside_disc_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["dream", "--x", "2", "--r", "1/2", "--M", "8", "--n", "1"])
    assert info.value.code == 2


# sha256 of the canonical JSON (``--format json``) of each command line, each
# recorded on an earlier implementation of the code it covers (dream: per-twist
# ring-map checks and Fraction series products; section-ring and pipeline:
# per-degree H^0 eliminations and a rank of the image). ``@file`` is the
# twistor line up to degree 10 with t -> 3/2*t, written as a presentation file.
CANONICAL_DIGESTS = {
    "dream --x 1/3 --r 1/2 --M 24 --n -2..2": "95818aa7fcc27b00f1a82e674216457d106877761c2f53273ef003fa9728e0ff",
    "dream --x 1/4+1/5i --r 1/2 --M 24 --n -2..2": "b7f7b6f4545d674d650451d9baa2c3412bad69cfcbe9f90bf9368f56c024a0db",
    "section-ring --curve twistor --max-degree 8": "05bbc141976ef61ba3a6ca6eae8d8ef9ede42651d3816e2f873c46be4ba6371a",
    "section-ring --curve twistor --max-degree 14": "502a8379b8a55d0ebd2a228a4a22b2e7eb51129c46fbbc0da908e02dd7eeff3d",
    "section-ring --curve p1 --max-degree 8": "9c4c2b848a4121430e24910a4ecc5da4b1c429987337f9c019bc401b9e992a9a",
    "section-ring --curve p1 --max-degree 14": "ea8cdd749d358f490db045fc2387264a458e76aa1dc5b3b15b21a81b5df8197e",
    "section-ring --curve @file --max-degree 8": "ca3b8e421f4a85429543c53f656c3bac5200f8b481f786394ccab57a16c9493a",
    "pipeline --f 1+xi --M 12": "3bc5a3487b471328dc1dcd72fb9fd965aeebb3622c23cfb6f727a192807a0ff4",
    "pipeline --f 1+xi --M 24": "90975a7dac64c4c89dd3b30d7c670cc6a1fe7f957dd6a8d2559546b93df0e49a",
    "pipeline --f 1+xi --M 64": "dbbd893db4c92331fd5c4bb250a6d4b0d404e570f627f7017bcb6d04761c2f01",
    "pipeline --f -1+2*xi+xi^2 --M 12": "531e42c5c71272b6642ea42d0f1ca9409c707519de0f3d75c2a49054b83b9b01",
    "pipeline --f -1+2*xi+xi^2 --M 24": "e1dd4c39281730f3a9f3b0556e9dc2c836ada380400aa4a099292153d7fe2be0",
    "pipeline --f -1+2*xi+xi^2 --M 64": "8d0fd76a413b388bbfd4939a19b069837b5c3b5818a83476c9c0244114179423",
    "pipeline --f xi^2*(1+xi) --M 12": "dc01c2b78ef8fd0f5f2e1eebf0368885db23fe19112c51fe9d726e449146cd91",
    "pipeline --f xi^2*(1+xi) --M 24": "8ae2f6971aaf4324a729944094ea03c3268e291e74a5078442fefb3276e72107",
    "pipeline --f xi^2*(1+xi) --M 64": "b7a74f065f8da986a5067335439f234db4ca6445739cf86783adace498ad071d",
    "pipeline --f 1-xi-xi^2 --M 128": "623b3fb3eb8188af4e01a7709b1ab54423da474cf558d5d20fccb7af6467e8b0",
    "dream --x 1/3+1/3i --r 1/2 --M 32 --n -2..2": "0a11870f77ba361c34ad6b1b4fadc6d8ff944ce868f9697759e9376902a45a60",
    # recorded with one H^0 elimination per twist
    "cohomology --curve p1 --n -24..24": "02992cab322d77abbc266ac23bb56bd39d36b48154e4cc3e8b4d3fa556c337b1",
    "cohomology --curve twistor --n -12..24": "cc2760e81b09b47ea8994183ad126f7b2ecb1196c1419c992d140d810de03a4c",
    "cohomology --curve @file --n -6..8": "93fecda19c2ad84fa89f2db0f4cdc2962025136bf702427a75adb7d795c399cd",
    "cohomology --curve twistor --n 0..6 --cutoff 8 --uncertified-ok": "1fa7491d8a967d7e78e1b30052215af22d486b05d1ced040193c3293ad35105a",
}


@pytest.mark.parametrize("command", sorted(CANONICAL_DIGESTS),
                         ids=lambda command: command.replace(" ", "_"))
def test_canonical_json_is_unchanged(capsys, tmp_path, rescaled_twistor_file, command):
    curve = tmp_path / "curve.pres"
    curve.write_text(rescaled_twistor_file(10, Fraction(3, 2)))
    argv = [str(curve) if a == "@file" else a for a in command.split()]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CANONICAL_DIGESTS[command]


def test_dream_checks_ring_map_once_per_curve(capsys, monkeypatch):
    import curvecoh.cohomology as coh
    import curvecoh.presentation as presentation

    checks, certified_to = [], []
    check_ring_map, leading_exact_failure = presentation.check_ring_map, presentation.leading_exact_failure

    def counting_check(pres, window, max_degree, *args):
        checks.append((pres.name, max_degree))
        return check_ring_map(pres, window, max_degree, *args)

    def recording_failure(pres, window, jump, max_degree, *args):
        certified_to.append((pres.name, max_degree))
        return leading_exact_failure(pres, window, jump, max_degree, *args)

    monkeypatch.setattr(presentation, "check_ring_map", counting_check)
    monkeypatch.setattr(presentation, "leading_exact_failure", recording_failure)
    code, out, _ = run(capsys, "dream", "--x", "1/3", "--r", "1/2", "--M", "8", "--n", "-2..3",
                       "--format", "json")
    assert code == 0 and json.loads(out)["all_match"]
    # one ring-map check and one leading_exact pass per curve, both through
    # the highest degree D + 2 an H^1 reads
    top = max(coh.default_cutoff(n) for n in range(-2, 4)) + 2
    assert checks == [("twistor", top), ("p1", top)]
    assert certified_to == [("twistor", top), ("p1", top)]


def test_dream_computes_the_direct_rows_once_per_curve(capsys, monkeypatch):
    import curvecoh.cohomology as coh

    calls = []
    compute_twists = coh.compute_twists

    def counting(pres, ns, D=None):
        calls.append((pres.name, list(ns), D))
        return compute_twists(pres, ns, D)

    def refused(*args, **kwargs):
        raise AssertionError("compute called per twist")

    monkeypatch.setattr(coh, "compute_twists", counting)
    monkeypatch.setattr(coh, "compute", refused)
    code, out, _ = run(capsys, "dream", "--x", "1/3", "--r", "1/2", "--M", "8", "--n", "-2..2",
                       "--format", "json")
    assert code == 0 and json.loads(out)["all_match"]
    assert calls == [("twistor", [-2, -1, 0, 1, 2], None), ("p1", [-2, -1, 0, 1, 2], None)]


def test_dream_single_n(capsys):
    code, out, _ = run(
        capsys, "dream", "--x", "1/3", "--r", "1/2", "--M", "16", "--n", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    tw = [row for row in data["results"] if row["curve"] == "twistor" and row["n"] == 1]
    assert tw[0]["direct"] == "(3, 0)" and tw[0]["ok"]


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"curve": "p1", "n": "0..1", "format": "json"}))
    code, out, _ = run(capsys, "cohomology", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert [d["h0"] for d in data] == [1, 2]


def test_config_switch_takes_json_true(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"uncertified_ok": True}))
    argv = ["cohomology", "--curve", "p1", "--n", "3", "--cutoff", "4"]
    assert run(capsys, *argv, "--config", str(cfg))[0] == 0
    assert run(capsys, *argv)[0] == 1  # CutoffTooSmall without the switch


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "cohomology", "--curve", "p1", "--n", "0", "--format", "json",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["h0"] == 1


def test_pipeline_prec_flag(capsys):
    code, out, _ = run(capsys, "pipeline", "--f", "1", "--M", "8", "--prec", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["jump_index"] == 1 and data["hfp_image_equals_fil0"] is True


def test_readme_quickstart_runs():
    import pathlib
    import re as _re

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    blocks = _re.findall(r"```python\n(.*?)```", readme.read_text(), _re.S)
    assert blocks, "README quick start block missing"
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_consecutive_calls_match_fresh_processes(tmp_path):
    import contextlib
    import io
    import os
    import pathlib
    import subprocess

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"curve": "p1", "n": "-1..1", "format": "json"}))
    switch = tmp_path / "switch.json"
    switch.write_text(json.dumps({"uncertified_ok": True}))
    commands = [
        ["cohomology", "--curve", "p1", "--n", "-2..2"],
        ["section-ring", "--curve", "twistor", "--max-degree", "4", "--format", "json"],
        ["cohomology", "--config", str(cfg)],
        ["cohomology", "--curve", "no-such-curve", "--n", "0"],
        ["pipeline", "--f", "1+xi"],
        ["cohomology", "--curve", "p1", "--n", "3", "--cutoff", "2"],
        ["cohomology", "--curve", "p1", "--n", "3", "--cutoff", "2", "--config", str(switch)],
        ["pipeline", "--f", "1+xi", "--M", "4", "--config", str(cfg)],
        ["dream", "--x", "1/3", "--r", "1/2", "--M", "4", "--n", "0"],
        ["cohomology", "--curve", "p1", "--n", "-2..2"],
    ]

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    codes = set()
    for argv in commands:
        fresh = subprocess.run([sys.executable, "-m", "curvecoh.cli", *argv], env=env,
                               cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert in_process(argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.add(fresh.returncode)
    assert codes == {0, 1, 2}
