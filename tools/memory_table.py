"""Memory of a whole ``run_pipeline`` against SuperLU's factors.

Usage, from the root of the source tree::

    python3 tools/memory_table.py 8,20,8x8 12,20,16x16

The solver is imported from ``src/`` of the tree this script sits in.

Each argument is one geometry, ``SIDE,PPW,PXxPY`` (side in wavelengths,
points per wavelength, tiles along x and y).  Per geometry it prints

- the max RSS of a fresh process that runs ``run_pipeline`` once: the
  median and the range over three such processes, since one process's max
  RSS varies by several MB from run to run; and the median RSS before the
  run;
- the ``tracemalloc`` peak of ``run_pipeline`` in a second fresh process,
  and per stage the peak inside the stage and what is still held after it,
  as the run's ``report.stages`` records them under ``tracemalloc``; the
  run's peak is the largest stage peak;
- the bytes of the distinct band buffers the systems hold, each counted
  once: a tile class's band holds its A_d until the reduce stage factors
  it in place into the class's one LU, which every member then holds, with
  the LU's pivots; and the number of tile classes; the build allocates
  every domain's band in one buffer, which stays held as long as one LU
  is a view of it, so the held bytes after ``reduce`` can exceed the
  distinct LUs;
- the bytes of the stored blocks of the reduced matrix K, which the
  assemble-reduced stage returns;
- 16 bytes per stored entry of the L and U factors of
  ``scipy.sparse.linalg.splu`` (default options) on the monolithic matrix,
  SuperLU's own working memory not included, and the run's traced peak
  divided by it.

Every child runs at 1 BLAS thread.  Sizes are in MB (10^6 bytes).  Max RSS
is read with ``resource.getrusage``, so the script needs a POSIX system.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

MB = 1e6
SRC = Path(__file__).resolve().parent.parent / "src"
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
RSS_RUNS = 3  # fresh processes whose max RSS is summarised


def parse_geometry(spec: str) -> tuple[float, float, int, int]:
    try:
        side, ppw, tiles = spec.split(",")
        px, py = tiles.lower().split("x")
        return float(side), float(ppw), int(px), int(py)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"geometry {spec!r} is not SIDE,PPW,PXxPY (e.g. 8,20,8x8)") from None


def _max_rss_bytes() -> int:
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else 1024 * rss


def _problem(geometry):
    from ddsolve.mesh import ProblemConfig

    side, ppw, px, py = geometry
    return ProblemConfig(side, ppw, px, py, theta_inc=0.3)


def run_geometry(geometry):
    """``run_pipeline`` on the geometry at incidence angle 0.3 rad."""
    from ddsolve.config import RunConfig
    from ddsolve.driver import run_pipeline

    return run_pipeline(RunConfig(_problem(geometry)))


def child_rss(geometry) -> dict:
    """Max RSS of this process before and after one run."""
    import ddsolve.driver  # noqa: F401  (imports count in the baseline)

    before = _max_rss_bytes()
    run_geometry(geometry)
    return {"rss_before": before, "max_rss": _max_rss_bytes()}


def child_traced(geometry) -> dict:
    """Traced peak of one run, stage by stage, and the sizes it is compared
    with."""
    import tracemalloc

    import scipy.sparse.linalg as spla

    from ddsolve.mesh import assemble_helmholtz

    tracemalloc.start()
    try:
        result = run_geometry(geometry)
    finally:
        tracemalloc.stop()
    stages = [s._asdict() for s in result.report.stages]

    A, _ = assemble_helmholtz(result.mesh, _problem(geometry))
    lu = spla.splu(A.tocsc())
    return {
        "dofs": result.mesh.n_nodes,
        "max_kl": max(s.kl for s in result.systems),
        "band": sum(s.A.nbytes + s.piv.nbytes
                    for s in {id(s.A): s for s in result.systems}.values()),
        "classes": result.report.n_classes,
        "k_blocks": sum(b.nbytes for b in result.reduced_system.K.blocks.values()),
        "residual": result.report.residual_inf,
        "run_peak": max(s["peak_bytes"] for s in stages),
        "stages": stages,
        "superlu": 16 * int(lu.L.nnz + lu.U.nnz),
    }


def _child(mode: str, geometry) -> dict:
    """Run one measurement in a fresh interpreter at 1 BLAS thread."""
    env = dict(os.environ, **ONE_BLAS_THREAD)
    spec = "{},{},{}x{}".format(*geometry)
    proc = subprocess.run([sys.executable, __file__, "--child", mode, spec],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"the {mode} run of {spec} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(geometry) -> str:
    side, ppw, px, py = geometry
    rss = [_child("rss", geometry) for _ in range(RSS_RUNS)]
    max_rss = sorted(r["max_rss"] for r in rss)
    before = sorted(r["rss_before"] for r in rss)
    tr = _child("traced", geometry)
    lines = [
        f"{side:g} wavelengths, ppw {ppw:g}, {px}x{py} tiles: "
        f"{tr['dofs']:,} dofs, max kl {tr['max_kl']}, residual {tr['residual']:.2e}",
        f"  max RSS (median of {RSS_RUNS} runs)   {max_rss[RSS_RUNS // 2] / MB:8.1f} MB"
        f"   (range {max_rss[0] / MB:.1f}-{max_rss[-1] / MB:.1f} MB over fresh"
        f" processes, {before[RSS_RUNS // 2] / MB:.1f} MB before the run)",
        f"  traced peak of run_pipeline  {tr['run_peak'] / MB:8.1f} MB",
        f"  band buffers (A_d, then LU)  {tr['band'] / MB:8.1f} MB"
        f"   ({tr['classes']} tile classes, one LU each)",
        f"  K stored blocks              {tr['k_blocks'] / MB:8.1f} MB",
        f"  SuperLU L+U                  {tr['superlu'] / MB:8.1f} MB",
        f"  traced peak / SuperLU L+U    {tr['run_peak'] / tr['superlu']:8.2f}",
        "  stage               peak MB   held after MB",
    ]
    lines += [f"  {s['stage']:<18} {s['peak_bytes'] / MB:8.1f}   "
              f"{s['held_bytes'] / MB:8.1f}" for s in tr["stages"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("geometry", nargs="+", type=parse_geometry,
                    help="SIDE,PPW,PXxPY, e.g. 8,20,8x8")
    ap.add_argument("--child", choices=["rss", "traced"], help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.child:
        fn = child_rss if args.child == "rss" else child_traced
        print(json.dumps(fn(args.geometry[0])))
        return 0
    for i, geometry in enumerate(args.geometry):
        if i:
            print()
        print(report(geometry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
