"""Time of the block factor and the block solve, and digests of what they
return.

Usage, from the root of the source tree::

    python3 tools/factor_times.py 2.4,10,12x12 8,10,16x16 16,10,32x32

The solver is imported from ``src/`` of the tree this script sits in, so
running the same command in two checkouts compares their factor and solve
stages.

Each argument is one geometry, ``SIDE,PPW,PXxPY`` (side in wavelengths,
points per wavelength, tiles along x and y).  Per geometry the script runs
``run_pipeline`` once (incidence angle 0.3 rad) and prints

- the number of interface blocks and the factor's flop count;
- the best of ``--repeat`` timings of ``factor.block_ldlt`` on the run's
  reduced matrix and plan, and of ``factor.block_solve`` on its load;
- sha256 digests of every array of the block factor (each panel, each
  ``panel_rows[j]``, and each diagonal factor's ``L``, ``d``, ``e``,
  ``perm``, ``tags``, growth and 2x2 count, each array with its shape and
  dtype), of ``FactorStats``, of λ, of the solution and of
  ``residual_inf``, so two commits with equal digests factor and solve to
  the same bits.

BLAS runs at 1 thread, so the digests do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import time

from memory_table import SRC, parse_geometry


def _array_bytes(a) -> bytes:
    return repr((a.shape, a.dtype.str)).encode() + a.tobytes()


def factor_digest(F) -> str:
    """sha256 of every array of the block factor, in factor order."""
    h = hashlib.sha256()
    for a in (*F.panels, *F.panel_rows):
        h.update(_array_bytes(a))
    for f in F.diag:
        for a in (f.L, f.d, f.e, f.perm, f.tags):
            h.update(_array_bytes(a))
        h.update(repr((f.growth, f.n_2x2)).encode())
    return h.hexdigest()


def stats_digest(stats) -> str:
    """sha256 of ``FactorStats``; floats by their exact ``repr``."""
    return hashlib.sha256(repr(dataclasses.astuple(stats)).encode()).hexdigest()


def value_digest(x) -> str:
    """sha256 of an array's or a float's bits."""
    import numpy as np

    return hashlib.sha256(_array_bytes(np.asarray(x))).hexdigest()


def best_time(fn, repeat: int) -> float:
    """Best wall time of ``repeat`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def report(geometry, repeat: int) -> str:
    from ddsolve.config import RunConfig
    from ddsolve.driver import run_pipeline
    from ddsolve.factor import block_ldlt, block_solve
    from ddsolve.mesh import ProblemConfig

    side, ppw, px, py = geometry
    run = RunConfig(ProblemConfig(side, ppw, px, py, theta_inc=0.3))
    result = run_pipeline(run)
    K, g = result.reduced_system.K, result.reduced_system.g
    F = result.block_factor
    t_ldlt = best_time(lambda: block_ldlt(K, result.plan, run.pivot_tol), repeat)
    t_solve = best_time(lambda: block_solve(F, g), repeat)
    return "\n".join([
        f"{side:g} wavelengths, ppw {ppw:g}, {px}x{py} tiles: {K.nblocks} blocks, "
        f"{F.stats.flops:.3g} flops",
        f"  block_ldlt          {1e3 * t_ldlt:.2f} ms (best of {repeat})",
        f"  block_solve         {1e3 * t_solve:.2f} ms (best of {repeat})",
        f"  factor sha256       {factor_digest(F)}",
        f"  stats sha256        {stats_digest(F.stats)}",
        f"  lambda sha256       {value_digest(result.lam)}",
        f"  solution sha256     {value_digest(result.solution)}",
        f"  residual sha256     {value_digest(result.report.residual_inf)}",
    ])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("geometry", nargs="+", type=parse_geometry,
                    help="SIDE,PPW,PXxPY, e.g. 16,10,32x32")
    ap.add_argument("--repeat", type=int, default=5,
                    help="timed calls per geometry and stage; the best is printed")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    for i, geometry in enumerate(args.geometry):
        if i:
            print()
        print(report(geometry, args.repeat))
    return 0


if __name__ == "__main__":
    sys.exit(main())
