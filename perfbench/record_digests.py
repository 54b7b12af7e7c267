"""Write ``digests.json``: sha256 of each job's output for the default seed.

    python3 perfbench/record_digests.py

Run it at the commit whose outputs are the reference, and only when a
change to the canonical JSON is intended and explained.
"""

from __future__ import annotations

import json
import sys

import gate
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    table = {}
    for name in workloads.WORKLOADS:
        bench = run.setup(name, run.DEFAULT_SEED, "full")
        try:
            cli = bench.modules["cli"]
            table[name] = {}
            for job, argv in zip(bench.workload.jobs, bench.argvs):
                code, out, err = run.run_job(cli, argv)
                reason = gate.check(job, code, out, err, None)
                if reason is not None:
                    print(f"{job.key}: {reason}", file=sys.stderr)
                    return 1
                table[name][job.key] = gate.digest(out)
        finally:
            bench.close()
    gate.DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} digests to {gate.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
