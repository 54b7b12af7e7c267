"""Benchmark of the curvecoh command line, end to end and layer by layer.

    python3 perfbench/run.py --workload cohomology-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each job is one in-process call of ``curvecoh.cli.main`` with ``--format
json``: parsing, the exact computation, certification and canonical JSON.
Jobs run as a closed loop in one thread, one after another; a pass is the
workload's whole job list, and passes repeat until ``--seconds`` have gone
by. Every output goes through the gate (``gate.py``).

Times are reported at reference speed. While a job runs, SIGALRM fires every
PROBE_PERIOD_S seconds and the handler times ``probe``, a fixed loop of
standard-library Fraction arithmetic; it also runs once before and once
after the job. The job's wall time, less the handler's, is scaled by
PROBE_REF_S over the mean probe time. On a shared 2-vCPU virtual machine the
same code ran up to 1.5x slower for stretches of seconds to minutes;
unscaled medians of 30-second runs spread by 20-50% across runs, scaled ones
by a few percent. The raw wall time of a pass is printed above the result
line.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it runs one pass under cProfile that counts scalar arithmetic, one untraced
pass and one pass with spans recorded around each layer's entry points
(``spans.py``), and reports the per-layer metrics; the spans are written to
``perfbench/.work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
DEFAULT_SEED = 1
SETUP_REPEATS = 15
#: what ``probe`` takes at reference speed, and how often it runs during a job
PROBE_REF_S = 0.0015
PROBE_PERIOD_S = 0.05

END_TO_END_UNITS = {
    "pass_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def probe() -> float:
    """Wall time of a fixed Fraction loop: how fast the machine runs right now."""
    start = time.perf_counter()
    acc, step = Fraction(0), Fraction(1, 3)
    for k in range(1, 300):
        acc += step * Fraction(k, k + 1)
    return time.perf_counter() - start


def timed(fn, *args):
    """Call ``fn(*args)``; returns (wall s, s at reference speed, its result).

    The machine's speed is probed before, after and every PROBE_PERIOD_S
    during the call. The probes' own time is left out of both times.
    """
    probes = [probe()]
    spent = 0.0

    def on_alarm(_signum, _frame):
        nonlocal spent
        start = time.perf_counter()
        probes.append(probe())
        spent += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    probes.append(probe())
    busy = elapsed - spent
    return busy, busy * PROBE_REF_S / statistics.mean(probes), result


def import_package() -> dict:
    """Import ``curvecoh.cli`` afresh from this checkout's ``src``.

    Returns the package modules by short name (the package itself is
    ``curvecoh``). Raises ImportError when the package found is not the one
    in this checkout.
    """
    for name in [m for m in sys.modules if m == "curvecoh" or m.startswith("curvecoh.")]:
        del sys.modules[name]
    importlib.import_module("curvecoh.cli")
    package = sys.modules["curvecoh"]
    if Path(package.__file__).resolve().parent != SRC / "curvecoh":
        raise ImportError(f"curvecoh imported from {package.__file__}, not from {SRC}")
    return {name.split(".", 1)[-1]: mod for name, mod in sys.modules.items()
            if name == "curvecoh" or name.startswith("curvecoh.")}


class Bench:
    """One workload's jobs, ready to run against a freshly imported package."""

    def __init__(self, workload: workloads.Workload, modules: dict):
        self.workload = workload
        self.modules = modules
        self.curve_path = None
        if workload.curve_text is not None:
            WORK.mkdir(exist_ok=True)
            self.curve_path = WORK / f"curve-{workload.name}-{os.getpid()}.txt"
            self.curve_path.write_text(workload.curve_text)
        self.argvs = [
            [str(self.curve_path) if a == workloads.CURVE_FILE else a for a in job.argv]
            for job in workload.jobs
        ]
        self.digests = None
        if workload.seed == DEFAULT_SEED:
            self.digests = gate.load_digests().get(workload.name, {})
        self.attempted = 0
        self.failures = []

    def close(self) -> None:
        if self.curve_path is not None:
            self.curve_path.unlink(missing_ok=True)

    def run_pass(self, on_job=None, timing=True):
        """Run every job once; returns (wall times, times at reference speed).

        Without ``timing`` nothing is timed or probed and both lists are
        empty. Outputs are checked after the pass.
        """
        cli = self.modules["cli"]
        outcomes, wall, scaled = [], [], []
        for k, argv in enumerate(self.argvs):
            if on_job is not None:
                on_job(k)
            if timing:
                busy, at_ref, outcome = timed(run_job, cli, argv)
                wall.append(busy)
                scaled.append(at_ref)
            else:
                outcome = run_job(cli, argv)
            outcomes.append(outcome)
        self._check(outcomes)
        return wall, scaled

    def _check(self, outcomes) -> None:
        for job, (code, out, err) in zip(self.workload.jobs, outcomes):
            self.attempted += 1
            want = None if self.digests is None else self.digests.get(job.key, "")
            reason = gate.check(job, code, out, err, want)
            if reason is not None:
                self.failures.append((job.key, reason))


def run_job(cli, argv):
    """(exit code, stdout, stderr) of one ``curvecoh`` invocation."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails the job; the benchmark goes on
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def setup(name: str, seed: int, scale: str) -> Bench:
    """Import the package afresh and generate the seeded inputs."""
    return Bench(workloads.build(name, seed, scale), import_package())


def measure(name: str, seed: int, seconds: float, scale: str) -> tuple:
    """End-to-end metrics: passes until ``seconds`` are used, tracing off."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        _, at_ref, bench = timed(setup, name, seed, scale)
        setup_times.append(at_ref)
        bench.close()
    bench = setup(name, seed, scale)
    walls, passes = [], []
    deadline = time.perf_counter() + seconds
    try:
        while not passes or time.perf_counter() < deadline:
            wall, scaled = bench.run_pass()
            walls.append(sum(wall))
            passes.append(scaled)
    finally:
        bench.close()
    # each job's median over the passes; percentiles are over the job list
    per_job = sorted(statistics.median(runs) for runs in zip(*passes))
    metrics = {
        "pass_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_p90_s": statistics.quantiles(per_job, n=10, method="inclusive")[-1]
        if len(per_job) > 1 else per_job[0],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"passes": len(passes), "jobs per pass": len(per_job),
               "setups": len(setup_times), "wall pass_s median": statistics.median(walls)}
    return metrics, END_TO_END_UNITS, bench, samples


def trace(name: str, seed: int, scale: str) -> tuple:
    """Per-layer metrics: a counting pass, an untraced pass and a traced pass."""
    bench = setup(name, seed, scale)
    try:
        # the counting pass goes first, so that the timed passes run warm
        counts = spans.scalar_op_counts(lambda: bench.run_pass(timing=False),
                                        bench.modules["scalars"].GaussianRational)
        plain = sum(bench.run_pass()[1])
        tracer = spans.Tracer(bench.modules)
        tracer.install()
        try:
            wall, scaled = bench.run_pass(on_job=lambda k: setattr(tracer, "job", k))
        finally:
            tracer.uninstall()
    finally:
        bench.close()
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{name}-{seed}.tsv")
    # span times are wall times; scale them like the pass they ran in
    layers = spans.layer_metrics(tracer, sum(scaled) / sum(wall))
    metrics = {"trace_overhead_ratio": sum(scaled) / plain, **layers, **counts}
    units = {k: unit_of(k) for k in metrics}
    samples = {"passes": 3, "jobs per pass": len(bench.argvs), "spans": len(tracer.spans)}
    return metrics, units, bench, samples


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "1"
    return "count"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def report(name: str, metrics: dict, units: dict, bench: Bench, samples: dict) -> None:
    print(f"== {name} (seed {bench.workload.seed}): {bench.attempted} jobs attempted, "
          f"{len(bench.failures)} failed; {json.dumps(samples)}")
    for key, reason in bench.failures:
        print(f"FAIL {key}: {reason}")
    for metric, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{metric:36s} {shown} {units[metric]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import curvecoh from {SRC}: {exc}", file=sys.stderr)
        return 2
    scale = "tiny" if args.tiny else "full"
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    print(f"machine: {json.dumps(machine())}")
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.trace:
            metrics, units, bench, samples = trace(name, args.seed, scale)
        else:
            metrics, units, bench, samples = measure(name, args.seed, args.seconds, scale)
        report(name, metrics, units, bench, samples)
        prefix = f"{name}:" if len(names) > 1 else ""
        for metric, value in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
        result["attempted"] += bench.attempted
        result["failed"] += len(bench.failures)
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
