"""Time the dense Bunch-Kaufman kernel and one end-to-end solve.

For each size, times ``dense_ldlt_bk`` on a random complex symmetric matrix
and ``DenseFactor.solve`` with a multi-column right-hand side (the shape
subdomain reduction uses), then times one full 2-wavelength, 4x4-tile solve.
Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--sizes 64,144] \
        [--repeats 3]

Set ``OPENBLAS_NUM_THREADS`` to fix the BLAS thread count; factors and
solves are bit-identical across runs for a fixed count.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ddsolve.config import RunConfig
from ddsolve.driver import run_pipeline
from ddsolve.factor import dense_ldlt_bk
from ddsolve.mesh import ProblemConfig

# Right-hand-side columns per solve: the 24 interface unknowns plus the load
# of a 144-dof subdomain in the 1-wavelength, ppw 22, 2x2-tile case.
N_RHS = 25


def rand_sym(n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (G + G.T) / 2


def time_call(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernel(sizes, n_rhs, repeats):
    print(f"{'n':>6} {'factor (s)':>12} {f'solve x{n_rhs} (s)':>15} {'2x2':>5} "
          f"{'growth':>7}")
    for n in sizes:
        M = rand_sym(n, n)
        B = np.ones((n, n_rhs), dtype=np.complex128)
        fac = dense_ldlt_bk(M)
        t_fac = time_call(lambda: dense_ldlt_bk(M), repeats)
        t_sol = time_call(lambda: fac.solve(B), repeats)
        print(f"{n:>6} {t_fac:>12.4f} {t_sol:>15.5f} {fac.n_2x2:>5} "
              f"{fac.growth:>7.3f}")


def bench_pipeline():
    cfg = ProblemConfig(side_lambda=2.0, ppw=16, px=4, py=4, theta_inc=0.3)
    run = RunConfig(problem=cfg, case_id="bench")
    t0 = time.perf_counter()
    result = run_pipeline(run)
    total = time.perf_counter() - t0
    print()
    print(f"end-to-end 2-wavelength 4x4 case: {total:.2f}s total, "
          f"residual {result.report.residual_inf:.2e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="64,144,256",
                    help="comma-separated dense matrix sizes")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    bench_kernel(sizes, N_RHS, args.repeats)
    bench_pipeline()


if __name__ == "__main__":
    main()
