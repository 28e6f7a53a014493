"""Spans around each call into a solver module, and the traced job.

The traced job replays ``driver.run_pipeline`` stage by stage, in the order
of the README "Library" example, through the package's public functions
only.  Every call into a module sits inside a span named
``<module>.<stage>``; the spans of one job share its job id, and each config
of a job gets a ``driver.pipeline`` span between the job and its stages.
Spans stay in memory; per-layer numbers are derived from them and from the
counts the returned objects carry.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ddsolve import (assemble_reduced, block_ldlt, block_solve,
                     build_rect_mesh, build_subdomain_systems, clique_graph,
                     global_residual, partition_mesh, recover_primal,
                     reduce_domain, reorder, symbolic_factor)
from ddsolve.config import parse_config_file

JOB = "driver.job"
PIPELINE = "driver.pipeline"

# Stage span -> which input decides whether it repeats an earlier angle's
# work: the geometry scalars, the dense subdomain matrices, or the reduced
# matrix K.  Stages missing here consume right-hand sides and never repeat.
REPEAT_KEY = {
    "mesh.build": "geometry",
    "mesh.partition": "geometry",
    "subdomain.build": "geometry",
    "subdomain.reduce": "subdomain_matrices",
    "subdomain.assemble": "K",
    "blockmat.clique_graph": "K",
    "ordering.reorder": "K",
    "symbolic.plan": "K",
    "factor.ldlt": "K",
}

# Per-layer time metrics: metric name -> span name whose self times add up.
STAGE_METRICS = {
    "mesh.build_s": "mesh.build",
    "mesh.partition_s": "mesh.partition",
    "subdomain.build_s": "subdomain.build",
    "subdomain.reduce_s": "subdomain.reduce",
    "subdomain.assemble_s": "subdomain.assemble",
    "blockmat.clique_graph_s": "blockmat.clique_graph",
    "ordering.reorder_s": "ordering.reorder",
    "symbolic.plan_s": "symbolic.plan",
    "factor.ldlt_s": "factor.ldlt",
    "factor.solve_s": "factor.solve",
    "subdomain.recover_s": "subdomain.recover",
    "subdomain.residual_s": "subdomain.residual",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index into Tracer.spans
    job: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: int):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               parent, job))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def job_spans(self, job: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.job == job]


def self_times(spans: list[tuple[int, Span]]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    out = {i: s.duration for i, s in spans}
    for _, s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out


@dataclass
class TracedResult:
    """What the replica returns for one config: the objects whose counts
    feed the per-layer metrics, plus the two values compared against
    ``run_pipeline``."""

    run: object
    mesh: object
    systems: list
    rsys: object
    plan: object
    factor: object
    solution: object
    residual: float

    @property
    def factor_bytes(self) -> int:
        return 16 * self.factor.stats.factor_entries


def traced_pipeline(run, tracer: Tracer, job: int) -> TracedResult:
    """``driver.run_pipeline`` for a builtin-ordering config, one span per
    call into a module."""
    if run.ordering != "builtin":
        raise ValueError(f"traced replica supports builtin ordering only, "
                         f"got {run.ordering!r}")
    cfg = run.problem
    span = tracer.span
    with span(PIPELINE, job):
        with span("mesh.build", job):
            mesh = build_rect_mesh(cfg.side_lambda, cfg.ppw)
        with span("mesh.partition", job):
            part = partition_mesh(mesh, cfg.px, cfg.py)
        with span("subdomain.build", job):
            systems = build_subdomain_systems(mesh, part, cfg)
        reduced = []
        for s in systems:
            with span("subdomain.reduce", job):
                reduced.append(reduce_domain(s, run.pivot_tol))
        with span("subdomain.assemble", job):
            rsys = assemble_reduced(reduced, part)
        with span("blockmat.clique_graph", job):
            g = clique_graph(rsys.K)
        with span("ordering.reorder", job):
            order = reorder(g, rsys.K.sizes)
        with span("symbolic.plan", job):
            plan = symbolic_factor(g, order, rsys.K.sizes)
        with span("factor.ldlt", job):
            F = block_ldlt(rsys.K, plan, run.pivot_tol)
        with span("factor.solve", job):
            lam = block_solve(F, rsys.g)
        rsys.lam = lam
        with span("subdomain.recover", job):
            sol = recover_primal(systems, lam)
        with span("subdomain.residual", job):
            res = global_residual(mesh, cfg, sol)
    return TracedResult(run, mesh, systems, rsys, plan, F, sol, res)


def traced_job(config_paths, tracer: Tracer, job: int) -> list[TracedResult]:
    with tracer.span(JOB, job):
        return [traced_pipeline(parse_config_file(p), tracer, job)
                for p in config_paths]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def repeat_keys(r: TracedResult) -> dict[str, object]:
    """Fingerprints of the inputs named in REPEAT_KEY, taken after the job
    so that hashing stays out of the traced time."""
    p = r.run.problem
    return {
        "geometry": (p.side_lambda, p.ppw, p.px, p.py, p.wavelength, p.alpha,
                     p.mu_r, p.eps_r),
        "subdomain_matrices": _digest(
            [s.A for s in r.systems]
            + [c.D for s in r.systems for c in s.couplings]),
        "K": _digest([r.rsys.K.sizes] + [r.rsys.K.blocks[k]
                                          for k in sorted(r.rsys.K.blocks)]),
    }


def job_layers(tracer: Tracer, job: int,
               results: list[TracedResult]) -> dict[str, float]:
    """Per-layer metrics of one traced job.

    Stage times are self times summed over the job's configs.  Counts come
    from the first config (every config of a job shares one geometry).
    """
    spans = tracer.job_spans(job)
    selfs = self_times(spans)
    (job_index, job_span), = [(i, s) for i, s in spans if s.name == JOB]
    m: dict[str, float] = {
        name: sum(selfs[i] for i, s in spans if s.name == stage)
        for name, stage in STAGE_METRICS.items()}
    m["subdomain.reduce_max_s"] = max(
        s.duration for _, s in spans if s.name == "subdomain.reduce")
    m["driver.job_s"] = job_span.duration
    m["driver.unattributed_s"] = sum(
        selfs[i] for i, s in spans if s.name in (JOB, PIPELINE))
    m["trace.accounting_error_s"] = sum(selfs.values()) - job_span.duration

    # Share of the job spent in stages whose inputs repeat an earlier
    # config's; the pipeline spans are in config order.
    pipelines = [i for i, s in spans if s.name == PIPELINE]
    keys = [repeat_keys(r) for r in results]
    repeated = 0.0
    for n, p_index in enumerate(pipelines):
        for i, s in spans:
            key = REPEAT_KEY.get(s.name)
            if s.parent == p_index and key is not None and any(
                    keys[n][key] == keys[e][key] for e in range(n)):
                repeated += selfs[i]
    m["workload.repeat_share"] = repeated / job_span.duration

    r = results[0]
    stats = r.factor.stats
    ldlt_s = m["factor.ldlt_s"]
    flops = sum(x.factor.stats.flops for x in results)
    stored = sum(b.size for b in r.rsys.K.blocks.values())
    m.update({
        "mesh.dofs": r.mesh.n_nodes,
        "subdomain.domains": len(r.systems),
        "subdomain.max_dofs": max(s.n_dofs for s in r.systems),
        "blockmat.blocks": r.rsys.K.nblocks,
        "blockmat.lambda_dofs": r.rsys.n_lambda,
        "ordering.fill_ratio": r.plan.total_factor_entries / stored,
        "symbolic.factor_entries": r.plan.total_factor_entries,
        "factor.flops": stats.flops,
        "factor.gflops": flops / ldlt_s / 1e9,
        "factor.factor_bytes": r.factor_bytes,
        "factor.peak_bytes": stats.peak_bytes,
        "factor.pivots_2x2": stats.n_2x2_pivots,
        "factor.growth": stats.growth_factor,
    })
    return m
