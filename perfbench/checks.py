"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means it passed.  A
job with any problem counts as failed.  Accuracy is a gate, not a metric:
residuals near 1e-14 legitimately change in their last bits when kernels
change.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse.linalg as spla

from ddsolve import assemble_helmholtz
from ddsolve.driver import RESIDUAL_GATE

REFERENCE_TOL = 1e-8


def check_result(result) -> list[str]:
    """Residual gate and factor size against the symbolic prediction for
    one ``run_pipeline`` result."""
    problems = []
    res = result.report.residual_inf
    if not res <= RESIDUAL_GATE:
        problems.append(f"residual {res!r} above gate {RESIDUAL_GATE}")
    got = result.block_factor.stats.factor_entries
    want = result.plan.total_factor_entries
    if got != want:
        problems.append(f"factor entries {got} != symbolic prediction {want}")
    return problems


def check_reference(result, run) -> list[str]:
    """Agreement with a monolithic sparse solve of the same problem."""
    A, f = assemble_helmholtz(result.mesh, run.problem)
    u_ref = spla.spsolve(A.tocsc(), f)
    rel = float(np.linalg.norm(result.solution - u_ref) / np.linalg.norm(u_ref))
    if not rel <= REFERENCE_TOL:
        return [f"differs from monolithic solve by {rel!r} "
                f"(limit {REFERENCE_TOL})"]
    return []


def check_replica(result, traced) -> list[str]:
    """The traced replica must reproduce ``run_pipeline`` bit for bit; if it
    drifts, the per-layer numbers no longer describe the measured job."""
    problems = []
    want = result.report.residual_inf
    if not (math.isfinite(traced.residual) and traced.residual == want):
        problems.append(f"traced replica residual {traced.residual!r} != "
                        f"run_pipeline residual {want!r}")
    if traced.factor_bytes != result.report.factor_bytes:
        problems.append(f"traced replica factor_bytes {traced.factor_bytes} "
                        f"!= run_pipeline {result.report.factor_bytes}")
    return problems
