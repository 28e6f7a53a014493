"""ddsolve benchmark: one workload for a fixed number of seconds.

Usage, from the root of a source tree::

    python3 perfbench/run.py --workload subdomain-bound --seed 1 \\
        --seconds 30 --trace 0

Builds nothing: the solver is imported from ``src/`` of the tree this script
sits in.  ``--trace 0`` prints the end-to-end metrics (job time, its tail,
peak memory, set-up time); ``--trace 1`` prints the per-layer metrics of
traced jobs.  Every job's outputs are checked.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# BLAS runs single-threaded unless the caller says otherwise.  With two
# threads on a two-CPU machine shared with other tenants, job times jumped
# between two modes (0.33 s and 0.46 s on subdomain-bound) depending on
# whether the second CPU was free.  Set before numpy is first imported.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ddsolve" / "__init__.py").is_file():
        print(f"error: no ddsolve source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in BLAS_THREAD_ENV:
        os.environ.setdefault(name, "1")

    from bench import measure
    from machine import machine_facts

    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        out = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), work_dir, SRC)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    tally = out["tally"]
    print("machine " + json.dumps(machine_facts(ROOT), sort_keys=True))
    print("run " + json.dumps(out["summary"], sort_keys=True))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:<26} {value:>16.6g} {unit}")
    result = {
        "correct": not tally.failed,
        "attempted": len(tally.attempted),
        "failed": len(tally.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
