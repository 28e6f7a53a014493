"""``tools/stage_times.py`` end to end on one small geometry."""

import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ddsolve.blockmat import clique_graph
from ddsolve.config import RunConfig
from ddsolve.driver import run_pipeline
from ddsolve.mesh import ProblemConfig, build_rect_mesh
from ddsolve.ordering import reorder_with_plan

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import stage_times  # noqa: E402
from test_memory_table import STAGES  # noqa: E402


def run_tool(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "stage_times.py"),
                           *args], capture_output=True, text=True)


def test_prints_stage_times_and_the_digests_of_the_library_run():
    proc = run_tool("2,10,4x4", "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    import_line, blank, *lines = proc.stdout.splitlines()
    assert re.fullmatch(r"import ddsolve +\d+\.\d\d ms \(best of 3 fresh processes\)",
                        import_line)
    assert blank == ""

    result = run_pipeline(RunConfig(ProblemConfig(2.0, 10.0, 4, 4, theta_inc=0.3)))
    F, plan = result.block_factor, result.plan
    assert result.report.n_classes == 9
    assert lines[0] == ("2 wavelengths, ppw 10, 4x4 tiles: 9 tile classes, 24 blocks, "
                        f"{F.stats.flops:.3g} flops")
    timed = lines[1:1 + len(STAGES)]
    assert [line.split()[0] for line in timed] == STAGES
    assert all(line.endswith("ms (best of 2)") for line in timed)
    order_sha, plan_sha = stage_times.plan_digests(plan)
    assert lines[1 + len(STAGES):] == [
        f"  factor entries      {plan.total_factor_entries}",
        f"  mesh sha256         {stage_times.mesh_digest(result.mesh)}",
        f"  systems sha256      {stage_times.systems_digest(result.systems)}",
        "  reduced sha256      "
        f"{stage_times.reduced_digest(stage_times.library_reduced((2.0, 10.0, 4, 4)))}",
        f"  order sha256        {order_sha}",
        f"  plan sha256         {plan_sha}",
        f"  factor sha256       {stage_times.factor_digest(F)}",
        f"  stats sha256        {stage_times.stats_digest(F.stats)}",
        f"  lambda sha256       {stage_times.value_digest(result.lam)}",
        f"  solution sha256     {stage_times.value_digest(result.solution)}",
        "  residual sha256     "
        f"{stage_times.value_digest(result.report.residual_inf)}"]


def test_import_time_is_the_best_of_fresh_imports_from_the_given_tree(tmp_path):
    # each fresh interpreter imports this package, which takes 0.05 s the
    # first time and 0.5 s every later time
    (tmp_path / "ddsolve").mkdir()
    (tmp_path / "count").write_text("")
    (tmp_path / "ddsolve" / "__init__.py").write_text(
        "import pathlib, time\n"
        "count = pathlib.Path(__file__).parents[1] / 'count'\n"
        "count.write_text(count.read_text() + 'x')\n"
        "time.sleep(0.05 if count.read_text() == 'x' else 0.5)\n")
    t = stage_times.import_seconds(tmp_path)
    assert (tmp_path / "count").read_text() == "x" * stage_times.IMPORT_RUNS
    assert 0.05 <= t < 0.5


def test_runs_blas_at_one_thread_whatever_the_environment_asks(monkeypatch,
                                                               capsys):
    # numpy is loaded already, so only the environment shows the setting
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert stage_times.main(["1,10,2x2", "--repeat", "1"]) == 0
    capsys.readouterr()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


# sha256 of the order and of the plan of each benchmark geometry; a change
# to the built-in order or plan has to change these on purpose.
PLAN_DIGESTS = {
    "subdomain-bound": (
        "dec4a4e67a8fe70fc34318821c138fdebf36127dc912de79d63bd770f1becb27",
        "777fcaa293178b5b9da5dc179d89806c63fa5bce9100a48e361660560c29629c"),
    "interface-bound": (
        "a2d94a5e690562aed1f07e58dabb9dc0878628d767c73775b4b7401468b59eaf",
        "14b764bdec71300c1addd85a9bd06365b54b667a1b1f3ddb94ed6a0aaf5d5f3b"),
    "angle-sweep": (
        "2568ff2ee5c13e9e8464012b285c00bcb07cbe8c79f3be29e0aa9843f25e8a96",
        "02a65737f6b9f7be62ad4bcd34d5efde512063761c8b484769e5bdbc47c274bf"),
}


@pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
def test_benchmark_plans_keep_their_digests(reduced_systems, name):
    K = reduced_systems[name].K
    plan = reorder_with_plan(clique_graph(K), K.sizes)
    assert stage_times.plan_digests(plan) == PLAN_DIGESTS[name]


def test_plan_digest_tells_pattern_splits_apart():
    def plan(pattern):
        return SimpleNamespace(order=SimpleNamespace(perm=np.arange(3)),
                               etree_parent=np.array([1, 2, -1]),
                               pattern=[np.array(p, dtype=np.int64) for p in pattern])

    order_a, plan_a = stage_times.plan_digests(plan([[1, 2], [], []]))
    order_b, plan_b = stage_times.plan_digests(plan([[1], [2], []]))
    assert order_a == order_b
    assert plan_a != plan_b


def test_factor_digest_tells_panel_shapes_apart():
    def factor(shape):
        return SimpleNamespace(panels=[np.zeros(shape, dtype=np.complex128)],
                               panel_rows=[], L=[])

    assert stage_times.factor_digest(factor((2, 1))) != \
        stage_times.factor_digest(factor((1, 2)))
    assert stage_times.factor_digest(factor((2, 1))) == \
        stage_times.factor_digest(factor((2, 1)))


def _tells_one_changed_entry_apart(digest, make, parts):
    """``digest(make())`` is reproducible, and changes when one entry of
    any array ``part(obj)`` of a fresh ``obj = make()`` changes."""
    base = digest(make())
    assert digest(make()) == base
    for i, part in enumerate(parts):
        obj = make()
        a = part(obj)
        a.flat[a.size // 2] += 1
        assert digest(obj) != base, i


MESH_ARRAYS = ("nodes", "tris", "boundary_edges", "boundary_owner")
SYSTEM_ARRAYS = ("dof_map", "interface_rows", "D", "f", "lam_index", "A", "piv")


def test_mesh_digest_tells_one_changed_entry_apart():
    m = build_rect_mesh(1.0, 10.0)

    def make():
        return SimpleNamespace(**{k: getattr(m, k).copy() for k in MESH_ARRAYS})

    _tells_one_changed_entry_apart(stage_times.mesh_digest, make,
                                   [lambda o, k=k: getattr(o, k) for k in MESH_ARRAYS])


def test_systems_digest_tells_one_changed_entry_apart():
    systems = run_pipeline(RunConfig(ProblemConfig(1.0, 10.0, 2, 2))).systems

    def make():
        return [SimpleNamespace(**{k: getattr(s, k).copy() for k in SYSTEM_ARRAYS})
                for s in systems]

    _tells_one_changed_entry_apart(stage_times.systems_digest, make,
                                   [lambda o, k=k: getattr(o[-1], k) for k in SYSTEM_ARRAYS])


def test_reduced_digest_tells_one_changed_entry_apart():
    rsys = stage_times.library_reduced((1.0, 10.0, 2, 2))

    def make():
        K = SimpleNamespace(sizes=rsys.K.sizes.copy(),
                            blocks={k: b.copy() for k, b in rsys.K.blocks.items()})
        return SimpleNamespace(K=K, g=rsys.g.copy())

    last = list(rsys.K.blocks)[-1]
    _tells_one_changed_entry_apart(stage_times.reduced_digest, make,
                                   [lambda r: r.K.sizes, lambda r: r.K.blocks[last],
                                    lambda r: r.g])
    # the same keys and blocks in another order
    reordered = make()
    reordered.K.blocks = dict(reversed(reordered.K.blocks.items()))
    assert stage_times.reduced_digest(reordered) != stage_times.reduced_digest(make())


def test_rejects_a_malformed_geometry():
    proc = run_tool("2,10")
    assert proc.returncode == 2
    assert "SIDE,PPW,PXxPY" in proc.stderr
