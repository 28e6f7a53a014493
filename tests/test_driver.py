"""The driver's stage record, ``report.stages``, and the mapping of each
stage's failure to its ``PipelineError`` and exit code."""

import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import rand_block_system, subdomain_system
from ddsolve import blockmat, cli, driver, factor, ordering, subdomain, symbolic
from ddsolve.cli import main
from ddsolve.config import RunConfig
from ddsolve.mesh import ProblemConfig
from test_cli import write_cfg
from test_memory_table import STAGES

FILE_ORDER = ["--ordering", "file:{tmp}/perm.txt"]
DUMP_K = ["--dump-k", "{tmp}/K.blk"]


@pytest.fixture()
def small_cfg(tmp_path):
    (tmp_path / "perm.txt").write_text("3\n2\n1\n0\n")
    return write_cfg(tmp_path / "small.cfg", side_lambda=1.0, ppw=10,
                     px=2, py=2, theta_inc_deg=30)


def library_run(cfg, tmp_path, command="solve", flags=()):
    """What ``ddsolve <command> <cfg> <flags>`` runs, as a library call."""
    args = cli.build_parser().parse_args(
        [command, cfg, *(f.format(tmp=tmp_path) for f in flags)])
    fn = driver.run_verify if command == "verify" else driver.run_pipeline
    return fn(cli._load(cfg, args), dump_k=args.dump_k)


def test_acceptance_gates_keep_their_values():
    # the CLI's exit codes and the benchmark's check read these two gates
    assert driver.RESIDUAL_GATE == 1e-10
    assert driver.AGREEMENT_GATE == 1e-8


def _block_ldlt(tol):
    K, _ = rand_block_system(0)
    g = blockmat.clique_graph(K)
    return factor.block_ldlt(K, symbolic.symbolic_factor(
        g, ordering.identity_ordering(len(g)), K.sizes), tol)


# every library entry that takes pivot_tol; the config file and --pivot-tol
# are test_cli's
PIVOT_TOL_ENTRIES = {
    "dense_ldlt_bk": lambda tol: factor.dense_ldlt_bk(np.eye(2), tol),
    "block_ldlt": _block_ldlt,
    "reduce_domain": lambda tol: subdomain.reduce_domain(
        subdomain_system(0, 2 * np.eye(3), np.ones(3)), tol),
    "run_pipeline": lambda tol: driver.run_pipeline(
        RunConfig(ProblemConfig(1.0, 10, 2, 2), pivot_tol=tol)),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("entry", sorted(PIVOT_TOL_ENTRIES))
def test_every_entry_rejects_an_unusable_pivot_tol(entry, tol):
    # with any of these thresholds no singularity test could fire
    error = driver.PipelineError if entry == "run_pipeline" else ValueError
    with pytest.raises(error, match="pivot_tol must be finite and non-negative"):
        PIVOT_TOL_ENTRIES[entry](tol)


def test_run_records_every_stage_in_order(small_cfg, tmp_path):
    report = library_run(small_cfg, tmp_path).report
    assert [s.stage for s in report.stages] == STAGES
    wall = {s.stage: s.wall_s for s in report.stages}
    assert report.factor_time_s == wall["numeric-factor"]
    assert report.solve_time_s == wall["numeric-solve"]
    assert all(s.wall_s >= 0.0 for s in report.stages)
    assert all(s.peak_bytes is None and s.held_bytes is None
               for s in report.stages)


def test_text_report_prints_the_factor_counts(small_cfg, tmp_path):
    r = library_run(small_cfg, tmp_path)
    stats = r.block_factor.stats
    assert (r.report.flops, r.report.n_2x2_pivots) == \
        (stats.flops, stats.n_2x2_pivots)
    lines = r.report.text().splitlines()
    assert lines[9:13] == [f"growth factor   : {stats.growth_factor:.3f}",
                           f"factor flops    : {stats.flops}",
                           f"2x2 pivots      : {stats.n_2x2_pivots}",
                           f"tile classes    : {r.report.n_classes}"]
    # one band LU per class, which every member holds
    assert r.report.n_classes == len({id(s.A) for s in r.systems})
    assert stats.flops > 0
    assert len(r.report.csv_row()) == 12     # the CSV schema stays


def test_stage_bytes_are_read_only_under_tracemalloc(small_cfg, tmp_path):
    tracemalloc.start()
    try:
        report = library_run(small_cfg, tmp_path).report
    finally:
        tracemalloc.stop()
    assert [s.stage for s in report.stages] == STAGES
    for s in report.stages:
        assert type(s.peak_bytes) is int and type(s.held_bytes) is int
        assert 0 < s.held_bytes <= s.peak_bytes
    # each stage's peak starts from what the run holds when the stage
    # starts, so a stage that allocates little peaks below an earlier one
    peak = {s.stage: s.peak_bytes for s in report.stages}
    assert peak["clique-graph"] < peak["subdomains"]


def test_run_checks_k_symmetry_once(small_cfg, tmp_path, monkeypatch):
    # the factor, the stage that needs a symmetric K, is the one to check it:
    # once, on every diagonal block placed in its panels; the run builds no
    # K to validate
    checked, validated = [], []
    check = factor.check_diagonal_blocks

    def counted(groups):
        checked.append(sum(len(ids) for ids, _ in groups))
        check(groups)

    monkeypatch.setattr(factor, "check_diagonal_blocks", counted)
    monkeypatch.setattr(blockmat.BlockSparseSym, "validate", validated.append)
    result = library_run(small_cfg, tmp_path)
    assert checked == [np.count_nonzero(result.plan.sizes_perm)]
    assert validated == []


@pytest.mark.parametrize("flags,built", [([], 0), (DUMP_K, 1)])
def test_run_builds_k_only_to_dump_it(small_cfg, tmp_path, monkeypatch, flags,
                                      built):
    # the plan comes from the partition and the Schur blocks go straight
    # into the factor's panels: a run builds no K and no clique graph of
    # one, unless --dump-k asks for K to be written
    made, graphs = [], []
    init, clique_graph = blockmat.BlockSparseSym.__init__, blockmat.clique_graph

    def counted_init(K, sizes):
        made.append(K)
        init(K, sizes)

    def counted_clique_graph(K):
        graphs.append(K)
        return clique_graph(K)

    monkeypatch.setattr(blockmat.BlockSparseSym, "__init__", counted_init)
    monkeypatch.setattr(blockmat, "clique_graph", counted_clique_graph)
    result = library_run(small_cfg, tmp_path, "solve", flags)
    assert len(made) == built and graphs == []
    assert result.reduced_system.K is None


def test_schur_complements_are_freed_once_k_is_assembled(small_cfg, tmp_path,
                                                         monkeypatch):
    # the assemble-reduced stage copies every (K_D, g_d) into the factor's
    # panels and g, so none of them may outlive it
    refs, alive = [], []
    reduce_domains, factor_panels = subdomain.reduce_domains, factor.factor_panels

    def watched_reduce(*args, **kwargs):
        out = reduce_domains(*args, **kwargs)
        refs.extend(weakref.ref(a) for pair in out[0] for a in pair)
        return out

    def counting_factor_panels(*args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        return factor_panels(*args, **kwargs)

    monkeypatch.setattr(subdomain, "reduce_domains", watched_reduce)
    monkeypatch.setattr(factor, "factor_panels", counting_factor_panels)
    result = library_run(small_cfg, tmp_path)
    assert len(refs) == 2 * len(result.systems) and alive == [0]
    assert not hasattr(result.reduced_system, "lam")


@pytest.mark.parametrize("command,flags,stages", [
    ("solve", FILE_ORDER, STAGES[:6] + ["symbolic"] + STAGES[6:]),
    ("solve", DUMP_K, STAGES[:4] + ["dump-k"] + STAGES[4:]),
    ("verify", [], STAGES + ["monolithic"]),
])
def test_optional_stages_are_recorded(small_cfg, tmp_path, command, flags,
                                      stages):
    report = library_run(small_cfg, tmp_path, command, flags).report
    assert [s.stage for s in report.stages] == stages


# Each recorded stage, the callee that runs it, and the command and flags of
# a run that reaches it.
FAILURES = [
    ("mesh", driver, "build_rect_mesh", "solve", []),
    ("partition", driver, "partition_mesh", "solve", []),
    ("subdomains", subdomain, "build_subdomain_systems", "solve", []),
    ("reduce", subdomain, "reduce_domains", "solve", []),
    ("dump-k", subdomain, "assemble_reduced", "solve", DUMP_K),
    ("dump-k", blockmat, "save_blk", "solve", DUMP_K),
    ("clique-graph", driver, "partition_graph", "solve", []),
    ("ordering", ordering, "reorder_with_plan", "solve", []),
    ("ordering", ordering, "load_ordering_file", "solve", FILE_ORDER),
    ("symbolic", symbolic, "symbolic_factor", "solve", FILE_ORDER),
    ("assemble-reduced", factor, "panel_layout", "solve", []),
    ("assemble-reduced", subdomain, "place_reduced", "solve", []),
    ("numeric-factor", factor, "factor_panels", "solve", []),
    ("numeric-solve", factor, "block_solve", "solve", []),
    ("recover", subdomain, "recover_primal", "solve", []),
    ("residual", subdomain, "global_residual", "solve", []),
    ("monolithic", driver, "assemble_helmholtz", "verify", []),
]


def test_every_recorded_stage_has_a_failure_case(small_cfg, tmp_path):
    recorded = set()
    for command, flags in {(f[3], tuple(f[4])) for f in FAILURES}:
        report = library_run(small_cfg, tmp_path, command, flags).report
        recorded.update(s.stage for s in report.stages)
    assert recorded == {stage for stage, *_ in FAILURES}


@pytest.mark.parametrize("stage,module,name,command,flags", FAILURES,
                         ids=[f"{f[0]}-{f[2]}" for f in FAILURES])
def test_stage_failure_is_its_pipeline_error_and_exit_2(
        small_cfg, tmp_path, monkeypatch, capsys, stage, module, name,
        command, flags):
    cause = RuntimeError(f"{name} failed")

    def fail(*args, **kwargs):
        raise cause

    monkeypatch.setattr(module, name, fail)
    with pytest.raises(driver.PipelineError) as err:
        library_run(small_cfg, tmp_path, command, flags)
    assert err.value.stage == stage
    assert err.value.cause is cause

    rc = main([command, small_cfg, *(f.format(tmp=tmp_path) for f in flags)])
    assert rc == 2
    assert f"pipeline error: stage {stage}: {name} failed" in capsys.readouterr().err
