"""Time of the ordering stage, and a digest of the plan it returns.

Usage, from the root of the source tree::

    python3 tools/ordering_times.py 2.4,10,12x12 8,10,16x16 16,10,32x32

The solver is imported from ``src/`` of the tree this script sits in, so
running the same command in two checkouts compares their ordering stages.

Each argument is one geometry, ``SIDE,PPW,PXxPY`` (side in wavelengths,
points per wavelength, tiles along x and y).  Per geometry the script builds
the reduced interface system as ``run_pipeline`` does and prints

- the number of interface blocks;
- the best of ``--repeat`` timings of ``ordering.reorder_with_plan``
  (minimum degree, the natural-order guard and their symbolic passes);
- the plan's ``total_factor_entries``;
- the sha256 of the order (``perm`` as little-endian int64) and of the
  whole plan (the order, ``etree_parent`` and every ``pattern[j]``, each
  prefixed by its length), so two commits with equal digests return
  identical plans.

BLAS runs at 1 thread; the ordering stage itself does not call BLAS.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

from memory_table import SRC, parse_geometry


def reduced_graph(geometry):
    """The clique graph and block sizes of the geometry's reduced system."""
    from ddsolve import blockmat, mesh, subdomain

    side, ppw, px, py = geometry
    cfg = mesh.ProblemConfig(side, ppw, px, py, theta_inc=0.3)
    m = mesh.build_rect_mesh(side, ppw)
    part = mesh.partition_mesh(m, px, py)
    systems = subdomain.build_subdomain_systems(m, part, cfg)
    rsys = subdomain.assemble_reduced(
        [subdomain.reduce_domain(s) for s in systems], part)
    return blockmat.clique_graph(rsys.K), rsys.K.sizes


def plan_digests(plan) -> tuple[str, str]:
    """sha256 of the order and of the whole plan."""
    import numpy as np

    def int64_bytes(a) -> bytes:
        return np.asarray(a, dtype="<i8").tobytes()

    order = int64_bytes(plan.order.perm)
    h = hashlib.sha256(order)
    h.update(int64_bytes(plan.etree_parent))
    for rows in plan.pattern:
        h.update(len(rows).to_bytes(8, "little"))
        h.update(int64_bytes(rows))
    return hashlib.sha256(order).hexdigest(), h.hexdigest()


def report(geometry, repeat: int) -> str:
    from ddsolve.ordering import reorder_with_plan

    g, sizes = reduced_graph(geometry)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        plan = reorder_with_plan(g, sizes)
        best = min(best, time.perf_counter() - t0)
    order_sha, plan_sha = plan_digests(plan)
    side, ppw, px, py = geometry
    return "\n".join([
        f"{side:g} wavelengths, ppw {ppw:g}, {px}x{py} tiles: {g.n} blocks",
        f"  reorder_with_plan   {1e3 * best:.1f} ms (best of {repeat})",
        f"  factor entries      {plan.total_factor_entries}",
        f"  order sha256        {order_sha}",
        f"  plan sha256         {plan_sha}",
    ])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("geometry", nargs="+", type=parse_geometry,
                    help="SIDE,PPW,PXxPY, e.g. 16,10,32x32")
    ap.add_argument("--repeat", type=int, default=5,
                    help="timed calls per geometry; the best is printed")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    for i, geometry in enumerate(args.geometry):
        if i:
            print()
        print(report(geometry, args.repeat))
    return 0


if __name__ == "__main__":
    sys.exit(main())
