"""One set-up sample: import ddsolve in this fresh process, then run one tiny
solve, which also pays any JIT compilation.  Prints the elapsed seconds.

Usage: python3 setup_probe.py <path of the source tree holding ddsolve>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from ddsolve import ProblemConfig, RunConfig, run_pipeline  # noqa: E402
from ddsolve.driver import RESIDUAL_GATE  # noqa: E402

report = run_pipeline(RunConfig(ProblemConfig(side_lambda=1.0, ppw=10,
                                              px=2, py=2))).report
if not report.residual_inf <= RESIDUAL_GATE:
    sys.exit(f"warm-up residual {report.residual_inf!r} above gate")
print(time.perf_counter() - T0)
