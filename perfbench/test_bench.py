"""The benchmark's own tests: tiny smoke runs and gate self-tests.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_without_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "section-ring", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_bench(name, curve_text=None):
    sys.path.insert(0, str(run.SRC))
    wl = workloads.build(name, 7, "tiny")
    if curve_text is not None:
        wl.curve_text = curve_text(wl.curve_text)
    return run.Bench(wl, run.import_package())


def test_altered_structure_constant_fails_the_job():
    def alter(text):
        assert "mul u1 u1 = 1*u2\n" in text
        return text.replace("mul u1 u1 = 1*u2\n", "mul u1 u1 = 2*u2\n")

    bench = _tiny_bench("section-ring", alter)
    try:
        bench.run_pass()
    finally:
        bench.close()
    assert bench.attempted == 3
    assert len(bench.failures) == 1
    key, reason = bench.failures[0]
    assert workloads.CURVE_FILE in key
    assert reason.startswith("exit code 1") and "EmbeddingNotRingMap" in reason


def test_wrong_dimension_and_digest_fail():
    job = workloads.Job("cohomology twistor 2", [], "cohomology", {"curve": "twistor"})
    good = json.dumps({"n": 2, "certified": True, **gate.expected_cohomology("twistor", 2)})
    assert gate.check(job, 0, good, "", None) is None
    assert gate.check(job, 0, good, "", gate.digest(good)) is None
    assert "digest" in gate.check(job, 0, good, "", gate.digest(good + " "))
    bad = json.dumps({"n": 2, "certified": True, **gate.expected_cohomology("p1", 2)})
    assert "want" in gate.check(job, 0, bad, "", None)


def test_curve_file_writes_imaginary_parts_without_star():
    from fractions import Fraction

    assert workloads.format_coeff(Fraction(0), Fraction(3, 10)) == "3/10i"
    assert workloads.format_coeff(Fraction(1, 2), Fraction(-3, 10)) == "1/2-3/10i"
    text = workloads.rescaled_twistor_text(Fraction(2, 3), 4)
    assert "*i" not in text
