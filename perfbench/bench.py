"""Measurement loops behind run.py.

A job runs one workload's config files through ``parse_config_file`` and
``run_pipeline``, the path ``ddsolve solve`` takes, and ends with a
residual-checked primal solution.  Jobs run back to back in one process (a
closed loop with one client) until the run's seconds are used up.  The first
job of a run is a warm-up: it is checked like every job, and also against a
monolithic reference and the traced replica, but its time is not a sample.
End-to-end times are scaled to a reference CPU speed measured by a
calibration loop around each sample; per-layer times are raw wall clock.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ddsolve import run_pipeline
from ddsolve.config import parse_config_file

from checks import check_reference, check_replica, check_result
from tracing import Tracer, job_layers, traced_job
from workloads import Workload, write_jobs

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
# Traced self times must add up to the job span to within this share.
ACCOUNTING_TOL = 1e-9
# The tail is read at the highest quantile with at least this many samples
# beyond it.
TAIL_SAMPLES = 10
# Timings are reported at a fixed CPU speed: the one at which calibration_s()
# takes this long, as it does on the reference machine (2-CPU Xeon, 2.1 GHz)
# when no other tenant competes for it.  See README.md, "Reference speed".
REFERENCE_CAL_S = 0.0045

UNITS = {
    "job_s": "s", "job_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "ordering.fill_ratio": "ratio", "workload.repeat_share": "ratio",
    "factor.growth": "ratio", "factor.gflops": "GFLOP/s",
    "factor.flops": "flop", "factor.factor_bytes": "bytes",
    "factor.peak_bytes": "bytes",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


@dataclass
class Tally:
    """Jobs attempted and failed; a traced job counts apart from the
    untraced job on the same configs."""

    attempted: set = field(default_factory=set)
    failed: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    def record(self, key: tuple, problems: list[str]) -> None:
        self.attempted.add(key)
        if problems:
            self.failed.add(key)
            self.problems.extend(f"{key[0]} job {key[1]}: {p}" for p in problems)


def tail_quantile(n: int) -> float:
    return max(0.5, 1.0 - TAIL_SAMPLES / n)


def calibration_s() -> float:
    """Best of three timings of a fixed loop of small numpy element-wise
    operations, 48x48 complex matrix products and pure-Python arithmetic.
    It tracks the CPU's current speed and does not depend on the solver's
    code."""
    a = np.arange(64, dtype=np.complex128)
    m = np.arange(48 * 48).reshape(48, 48) * (1e-3 + 1e-3j)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(750):
            acc += float(np.abs(a * (k + 1j) + a[::-1]).max())
        x = m
        for _ in range(50):
            x = (m @ x) * 0.01
        for _ in range(3750):
            acc += sum(range(20))
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(elapsed: float, cal_before: float,
                       cal_after: float) -> float:
    """Scale a wall time measured between two calibrations to the speed at
    which the calibration loop takes REFERENCE_CAL_S."""
    return elapsed * REFERENCE_CAL_S / (0.5 * (cal_before + cal_after))


def setup_seconds(src: Path) -> list[float]:
    """Set-up samples, each from a fresh interpreter, at reference speed."""
    samples = []
    cal_before = calibration_s()
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(src)],
            capture_output=True, text=True, timeout=120, cwd=src.parent)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        cal_after = calibration_s()
        samples.append(at_reference_speed(float(out.stdout.split()[-1]),
                                          cal_before, cal_after))
        cal_before = cal_after
    return samples


def untraced_job(paths, tally: Tally, job: int):
    """Run and check one job; returns (results, seconds), or (None, None)
    when the job raised."""
    t0 = time.perf_counter()
    try:
        results = [run_pipeline(parse_config_file(p)) for p in paths]
    except Exception:
        tally.record(("run", job), [traceback.format_exc()])
        return None, None
    elapsed = time.perf_counter() - t0
    tally.record(("run", job), [p for r in results for p in check_result(r)])
    return results, elapsed


def run_traced(paths, tracer: Tracer, tally: Tally, job: int):
    try:
        return traced_job(paths, tracer, job)
    except Exception:
        tally.record(("traced", job), [traceback.format_exc()])
        return None


def check_traced(results, traced, tracer: Tracer, tally: Tally, job: int):
    """Per-layer metrics of a traced job, or None when its replica differs
    from the untraced run or its spans do not account for the job."""
    layers = job_layers(tracer, job, traced)
    problems = [p for r, t in zip(results, traced) for p in check_replica(r, t)]
    if abs(layers.pop("trace.accounting_error_s")) > (
            ACCOUNTING_TOL * layers["driver.job_s"]):
        problems.append("stage self times do not add up to the job span")
    tally.record(("traced", job), problems)
    return None if problems else layers


def warm_up(jobs, tally: Tally) -> None:
    paths = jobs[0]
    results, _ = untraced_job(paths, tally, 0)
    if results is None:
        return
    tally.record(("run", 0), [p for r, path in zip(results, paths)
                              for p in check_reference(r, parse_config_file(path))])
    tracer = Tracer()
    traced = run_traced(paths, tracer, tally, 0)
    if traced is not None:
        check_traced(results, traced, tracer, tally, 0)


def timed_loop(jobs, seconds: float, tally: Tally) -> tuple[list, list]:
    """Untraced jobs back to back; returns their wall times and the same
    times scaled to the reference speed."""
    wall, scaled = [], []
    cal_before = calibration_s()
    job = 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        _, elapsed = untraced_job(jobs[job % len(jobs)], tally, job)
        cal_after = calibration_s()
        if elapsed is not None:
            wall.append(elapsed)
            scaled.append(at_reference_speed(elapsed, cal_before, cal_after))
        cal_before = cal_after
        job += 1
    return wall, scaled


def traced_loop(jobs, seconds: float, tally: Tally) -> tuple[list, list]:
    """Each config set runs untraced and traced, in alternating order so
    that neither side always finds the caches warm; returns the untraced
    wall times and the per-layer metrics of the traced jobs."""
    tracer = Tracer()
    wall, layers = [], []
    job = 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        paths = jobs[job % len(jobs)]
        traced = run_traced(paths, tracer, tally, job) if job % 2 == 0 else None
        results, elapsed = untraced_job(paths, tally, job)
        if elapsed is not None:
            wall.append(elapsed)
        if job % 2 == 1:
            traced = run_traced(paths, tracer, tally, job)
        if traced is not None and results is None:
            tally.record(("traced", job), [])
        elif traced is not None:
            layer = check_traced(results, traced, tracer, tally, job)
            if layer is not None:
                layers.append(layer)
        job += 1
    return wall, layers


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work_dir: Path, src: Path) -> dict:
    """One run: returns the summary, the metrics as (value, unit) and the
    tally of jobs."""
    jobs = write_jobs(workload, seed, work_dir)
    tally = Tally()
    setup = [] if trace else setup_seconds(src)
    warm_up(jobs, tally)
    if trace:
        wall, layers = traced_loop(jobs, seconds, tally)
    else:
        wall, scaled = timed_loop(jobs, seconds, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not wall:
        raise RuntimeError("no job completed:\n" + "\n".join(tally.problems))

    q = tail_quantile(len(wall))
    summary = {"workload": workload.name, "seed": seed, "seconds": seconds,
               "timed_jobs": len(wall), "tail_quantile": q,
               "job_wall_s": statistics.median(wall),
               "job_wall_s_tail": float(np.quantile(wall, q))}
    if not trace:
        values = {
            "job_s": statistics.median(scaled),
            "job_s_tail": float(np.quantile(scaled, q)),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
    else:
        if not layers:
            raise RuntimeError("no traced job completed:\n"
                               + "\n".join(tally.problems))
        # median_low keeps counts whole when the number of jobs is even.
        values = {name: statistics.median_low(l[name] for l in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = values["driver.job_s"] - summary["job_wall_s"]
        summary["traced_jobs"] = len(layers)
    metrics = {name: (v, unit(name)) for name, v in values.items()}
    return {"summary": summary, "metrics": metrics, "tally": tally}
