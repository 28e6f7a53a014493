"""Benchmark workloads: problem geometries and seeded incidence angles.

A workload fixes the geometry (side, points per wavelength, tiling) and how
many incidence angles one job solves.  The seed only picks the angles.  The
matrices do not depend on the angle, so every seed costs the same while the
right-hand sides and solutions differ.  See README.md for why each geometry
was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Distinct jobs generated per run; the timed loop cycles through them.
JOB_POOL = 8


@dataclass(frozen=True)
class Workload:
    name: str
    side_lambda: float
    ppw: float
    tiles: int          # tiles along x and along y
    angles: int         # configs (incidence angles) solved by one job


WORKLOADS = {w.name: w for w in [
    # 4 dense domains of 144 dofs: reduce is about 90% of a job.
    Workload("subdomain-bound", side_lambda=1.0, ppw=22, tiles=2, angles=1),
    # 144 domains of at most 9 dofs, 264 interface blocks: ordering and the
    # block factor outweigh reduce, which is per-call overhead here.
    Workload("interface-bound", side_lambda=2.4, ppw=10, tiles=12, angles=1),
    # One geometry at 4 angles per job: the only workload whose matrix work
    # repeats within a job.
    Workload("angle-sweep", side_lambda=2.0, ppw=10, tiles=4, angles=4),
]}


def job_angles(workload: Workload, seed: int) -> list[list[float]]:
    """Incidence angles in degrees, one list per job of the pool."""
    rng = random.Random(seed)
    return [[rng.uniform(0.0, 360.0) for _ in range(workload.angles)]
            for _ in range(JOB_POOL)]


def config_text(workload: Workload, theta_deg: float) -> str:
    return (f"side_lambda   = {workload.side_lambda!r}\n"
            f"ppw           = {workload.ppw!r}\n"
            f"px            = {workload.tiles}\n"
            f"py            = {workload.tiles}\n"
            f"theta_inc_deg = {theta_deg!r}\n")


def write_jobs(workload: Workload, seed: int, directory: Path) -> list[list[Path]]:
    """Write the config files of every pooled job; returns their paths."""
    jobs = []
    for j, angles in enumerate(job_angles(workload, seed)):
        paths = []
        for a, theta in enumerate(angles):
            path = directory / f"{workload.name}-job{j}-angle{a}.cfg"
            path.write_text(config_text(workload, theta))
            paths.append(path)
        jobs.append(paths)
    return jobs
