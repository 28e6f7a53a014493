"""End-to-end pipeline orchestration, verification and scaling sweeps."""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from . import blockmat, factor, ordering, subdomain, symbolic
from .config import RunConfig
from .mesh import Mesh, Partition, assemble_helmholtz, build_rect_mesh, \
    partition_mesh
from .symbolic import format_plan

CSV_COLUMNS = ["case_id", "n_dofs", "n_lambda", "n_blocks", "factor_time_s",
               "solve_time_s", "factor_bytes", "peak_bytes", "residual_inf",
               "growth_factor", "status", "detail"]

RESIDUAL_GATE = 1e-10
AGREEMENT_GATE = 1e-8     # relative 2-norm distance to the monolithic solve


class PipelineError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class SolveReport:
    """One configuration's outcome.  Times are kept as measured; the CSV
    row and the text report print them to 3 decimals."""

    case_id: str
    n_dofs: int
    n_lambda: int
    n_blocks: int
    factor_time_s: float
    solve_time_s: float
    factor_bytes: int
    peak_bytes: int
    residual_inf: float
    growth_factor: float
    status: str = "ok"
    detail: str = ""
    # populated by verify runs only
    rel_diff_monolithic: float | None = None

    def csv_row(self) -> list:
        return [self.case_id, self.n_dofs, self.n_lambda, self.n_blocks,
                f"{self.factor_time_s:.3f}", f"{self.solve_time_s:.3f}",
                self.factor_bytes, self.peak_bytes,
                f"{self.residual_inf:.6e}", f"{self.growth_factor:.6f}",
                self.status, self.detail]

    def text(self) -> str:
        lines = [f"case            : {self.case_id}",
                 f"primal dofs     : {self.n_dofs}",
                 f"multiplier dofs : {self.n_lambda}",
                 f"interface blocks: {self.n_blocks}",
                 f"factor time     : {self.factor_time_s:.3f} s",
                 f"solve time      : {self.solve_time_s:.3f} s",
                 f"factor bytes    : {self.factor_bytes}",
                 f"peak bytes      : {self.peak_bytes}",
                 f"residual (inf)  : {self.residual_inf:.3e}",
                 f"growth factor   : {self.growth_factor:.3f}"]
        if self.rel_diff_monolithic is not None:
            lines.append(f"vs monolithic   : {self.rel_diff_monolithic:.3e}")
        return "\n".join(lines)


@dataclass
class PipelineResult:
    mesh: Mesh
    part: Partition
    systems: list
    reduced_system: subdomain.ReducedSystem
    plan: symbolic.EliminationPlan
    block_factor: factor.BlockFactor
    lam: np.ndarray
    solution: np.ndarray
    report: SolveReport


def _staged(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as err:
        raise PipelineError(stage, err) from err


def make_plan(spec: str, g, sizes) -> symbolic.EliminationPlan:
    """Symbolic plan of the ordering named by ``spec``.  The builtin order
    comes with the plan its guard computed; a file order is analysed here."""
    if spec == "builtin":
        return _staged("ordering", ordering.reorder_with_plan, g, sizes)
    if spec.startswith("file:"):
        order = _staged("ordering", ordering.load_ordering_file, spec[5:], g.n)
        return _staged("symbolic", symbolic.symbolic_factor, g, order, sizes)
    raise PipelineError("ordering", ValueError(f"unknown ordering spec {spec!r}"))


def run_pipeline(run: RunConfig, print_symbolic: bool = False,
                 dump_k: str | None = None) -> PipelineResult:
    """Execute the seven solver stages for one configuration."""
    cfg = run.problem
    mesh = _staged("mesh", build_rect_mesh, cfg.side_lambda, cfg.ppw)
    part = _staged("partition", partition_mesh, mesh, cfg.px, cfg.py)
    systems = _staged("subdomains", subdomain.build_subdomain_systems,
                      mesh, part, cfg)
    reduced = _staged("reduce", lambda: [
        subdomain.reduce_domain(s, run.pivot_tol) for s in systems])
    rsys = _staged("assemble-reduced", subdomain.assemble_reduced, reduced, part)
    if dump_k is not None:
        _staged("dump-k", blockmat.save_blk, dump_k, rsys.K)
    g = _staged("clique-graph", blockmat.clique_graph, rsys.K)
    plan = make_plan(run.ordering, g, rsys.K.sizes)
    if print_symbolic:
        print(format_plan(plan))
    t0 = time.perf_counter()
    F = _staged("numeric-factor", factor.block_ldlt, rsys.K, plan, run.pivot_tol)
    t_factor = time.perf_counter() - t0
    t0 = time.perf_counter()
    lam = _staged("numeric-solve", factor.block_solve, F, rsys.g)
    t_solve = time.perf_counter() - t0
    rsys.lam = lam
    sol = _staged("recover", subdomain.recover_primal, systems, lam)
    res = _staged("residual", subdomain.global_residual, mesh, cfg, sol)
    report = SolveReport(
        case_id=run.case_id,
        n_dofs=mesh.n_nodes,
        n_lambda=rsys.n_lambda,
        n_blocks=rsys.K.nblocks,
        factor_time_s=t_factor,
        solve_time_s=t_solve,
        factor_bytes=16 * F.stats.factor_entries,
        peak_bytes=F.stats.peak_bytes,
        residual_inf=res,
        growth_factor=F.stats.growth_factor,
    )
    return PipelineResult(mesh, part, systems, rsys, plan, F, lam, sol, report)


def run_verify(run: RunConfig, print_symbolic: bool = False,
               dump_k: str | None = None) -> PipelineResult:
    """Full solve plus comparison against a monolithic sparse direct solve."""
    # Imported here, its only use, so that importing ddsolve stays cheap.
    import scipy.sparse.linalg as spla

    result = run_pipeline(run, print_symbolic=print_symbolic, dump_k=dump_k)
    cfg = run.problem
    A, f = _staged("monolithic", assemble_helmholtz, result.mesh, cfg)
    u_ref = _staged("monolithic", lambda: spla.spsolve(A.tocsc(), f))
    denom = np.linalg.norm(u_ref)
    rel = float(np.linalg.norm(result.solution - u_ref) / denom) if denom else 0.0
    result.report.rel_diff_monolithic = rel
    return result


def fit_loglog_slope(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    if np.unique(x[keep]).size < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])


def run_sweep(runs: list[RunConfig], csv_path: str | None = None
              ) -> tuple[list[SolveReport], dict[str, float]]:
    """Run every configuration, emit one CSV row each (failures recorded
    in-row), and fit log-log slopes of factor time and bytes vs dofs."""
    if len(runs) < 2:
        raise ValueError("a sweep needs at least 2 configurations")
    reports: list[SolveReport] = []
    for run in runs:
        try:
            reports.append(run_pipeline(run).report)
        except PipelineError as err:
            reports.append(SolveReport(
                case_id=run.case_id, n_dofs=0, n_lambda=0, n_blocks=0,
                factor_time_s=0.0, solve_time_s=0.0, factor_bytes=0,
                peak_bytes=0, residual_inf=float("nan"), growth_factor=0.0,
                status="error", detail=str(err)))
    ok = [r for r in reports if r.status == "ok"]
    slopes = {
        "factor_bytes_vs_dofs": fit_loglog_slope(
            [r.n_dofs for r in ok], [r.factor_bytes for r in ok]),
        "factor_time_vs_dofs": fit_loglog_slope(
            [r.n_dofs for r in ok], [r.factor_time_s for r in ok]),
    }
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(csv_text(reports, slopes))
    return reports, slopes


def csv_text(reports: list[SolveReport],
             slopes: dict[str, float] | None = None) -> str:
    """The CSV report: header, one row per report, then ``# slope`` lines."""
    buf = io.StringIO()
    # "\n" like the footer lines; the csv default ends rows with "\r\n".
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow(r.csv_row())
    for name, value in (slopes or {}).items():
        buf.write(f"# slope {name} = {value:.4f}\n")
    return buf.getvalue()
