"""Time of every pipeline stage, and digests of what the stages return.

Usage, from the root of the source tree::

    python3 tools/stage_times.py 2.4,10,12x12 8,10,16x16 16,10,32x32 --repeat 7

The solver is imported from ``src/`` of the tree this script sits in, so
running the same command in two checkouts compares their stages.

The first line is the best of three wall times of ``import ddsolve`` from
that ``src/``, each in a fresh interpreter.  Each argument is one geometry,
``SIDE,PPW,PXxPY`` (side in wavelengths, points per wavelength, tiles along
x and y).  Per geometry the script runs ``run_pipeline`` ``--repeat`` times
(incidence angle 0.3 rad) and prints

- the number of tile classes (one band LU each, ``report.n_classes``), the
  number of interface blocks and the factor's flop count;
- per stage of the run's ``report.stages``, the best of its wall times;
- the plan's ``total_factor_entries``;
- sha256 digests of what the front end returns: the mesh (nodes,
  triangles, boundary edges and owners); the subdomain systems as the run
  leaves them (per domain its ``dof_map``, ``interface_rows``, ``D``,
  ``f``, ``lam_index``, band buffer and pivots); and the reduced system
  (K's sizes, its keys in order, its blocks, and g);
- sha256 digests of the order (``perm`` as little-endian int64) and of the
  whole plan (the order, ``etree_parent`` and every ``pattern[j]``, each
  prefixed by its length); of every array of the block factor (each panel,
  each ``panel_rows[j]``, and each diagonal factor's ``L``, ``d``, ``e``,
  ``perm``, ``tags``, growth and 2x2 count as ``diag_factor(j)`` views the
  flat arrays, each array with its shape and dtype); of ``FactorStats``; of λ; of the solution and of
  ``residual_inf``.  Two commits with equal digests order, factor and solve
  to the same bits.

BLAS runs at 1 thread, whatever the environment asks for, so the digests do
not depend on the thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys

from memory_table import ONE_BLAS_THREAD, SRC, parse_geometry, run_geometry


IMPORT_RUNS = 3  # fresh interpreters whose best import time is printed


def import_seconds(src) -> float:
    """Best wall time of ``import ddsolve`` from ``src`` over ``IMPORT_RUNS``
    fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import ddsolve; "
            "print(time.perf_counter() - t)")
    return min(float(subprocess.run([sys.executable, "-c", code, str(src)],
                                    capture_output=True, text=True,
                                    check=True).stdout)
               for _ in range(IMPORT_RUNS))


def _int64_bytes(a) -> bytes:
    import numpy as np

    return np.asarray(a, dtype="<i8").tobytes()


def plan_digests(plan) -> tuple[str, str]:
    """sha256 of the order and of the whole plan."""
    order = _int64_bytes(plan.order.perm)
    h = hashlib.sha256(order)
    h.update(_int64_bytes(plan.etree_parent))
    for rows in plan.pattern:
        h.update(len(rows).to_bytes(8, "little"))
        h.update(_int64_bytes(rows))
    return hashlib.sha256(order).hexdigest(), h.hexdigest()


def _array_bytes(a) -> bytes:
    return repr((a.shape, a.dtype.str)).encode() + a.tobytes()


def mesh_digest(mesh) -> str:
    """sha256 of the mesh's four arrays."""
    h = hashlib.sha256()
    for a in (mesh.nodes, mesh.tris, mesh.boundary_edges, mesh.boundary_owner):
        h.update(_array_bytes(a))
    return h.hexdigest()


def systems_digest(systems) -> str:
    """sha256 of every subdomain system's arrays, in domain order."""
    h = hashlib.sha256()
    for s in systems:
        for a in (s.dof_map, s.interface_rows, s.D, s.f, s.lam_index, s.A, s.piv):
            h.update(_array_bytes(a))
    return h.hexdigest()


def reduced_digest(rsys) -> str:
    """sha256 of the reduced system: K's sizes, its keys in order, its
    blocks, and g."""
    import numpy as np

    h = hashlib.sha256(_array_bytes(np.asarray(rsys.K.sizes)))
    h.update(_array_bytes(np.array(list(rsys.K.blocks), dtype="<i8").reshape(-1, 2)))
    for blk in rsys.K.blocks.values():
        h.update(_array_bytes(blk))
    h.update(_array_bytes(rsys.g))
    return h.hexdigest()


def factor_digest(F) -> str:
    """sha256 of every array of the block factor, in factor order."""
    h = hashlib.sha256()
    for a in (*F.panels, *F.panel_rows):
        h.update(_array_bytes(a))
    for j in range(len(F.L)):
        f = F.diag_factor(j)
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


def report(geometry, repeat: int) -> str:
    best: dict[str, float] = {}
    for _ in range(repeat):
        result = run_geometry(geometry)
        for s in result.report.stages:
            best[s.stage] = min(best.get(s.stage, s.wall_s), s.wall_s)
    F, plan = result.block_factor, result.plan
    order_sha, plan_sha = plan_digests(plan)
    side, ppw, px, py = geometry
    return "\n".join([
        f"{side:g} wavelengths, ppw {ppw:g}, {px}x{py} tiles: "
        f"{result.report.n_classes} tile classes, {result.report.n_blocks} blocks, "
        f"{F.stats.flops:.3g} flops",
        *(f"  {stage:<20}{1e3 * t:.2f} ms (best of {repeat})"
          for stage, t in best.items()),
        f"  factor entries      {plan.total_factor_entries}",
        f"  mesh sha256         {mesh_digest(result.mesh)}",
        f"  systems sha256      {systems_digest(result.systems)}",
        f"  reduced sha256      {reduced_digest(result.reduced_system)}",
        f"  order sha256        {order_sha}",
        f"  plan sha256         {plan_sha}",
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
                    help="runs per geometry; each stage's best time is printed")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    # Before numpy is imported, which reads the thread count once.
    os.environ.update(ONE_BLAS_THREAD)
    print(f"import ddsolve       {1e3 * import_seconds(SRC):.2f} ms "
          f"(best of {IMPORT_RUNS} fresh processes)")
    sys.path.insert(0, str(SRC))
    for geometry in args.geometry:
        print()
        print(report(geometry, args.repeat))
    return 0


if __name__ == "__main__":
    sys.exit(main())
