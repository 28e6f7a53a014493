"""``tools/ordering_times.py`` end to end on one small geometry."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ddsolve.ordering import reorder_with_plan

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import ordering_times  # noqa: E402


def run_tool(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ordering_times.py"),
                           *args], capture_output=True, text=True)


def test_prints_blocks_time_entries_and_digests():
    proc = run_tool("2,10,4x4", "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "2 wavelengths, ppw 10, 4x4 tiles: 24 blocks"
    assert lines[1].startswith("  reorder_with_plan ")
    assert lines[1].endswith("ms (best of 2)")

    plan = reorder_with_plan(*ordering_times.reduced_graph((2.0, 10.0, 4, 4)))
    order_sha, plan_sha = ordering_times.plan_digests(plan)
    assert lines[2:] == [f"  factor entries      {plan.total_factor_entries}",
                         f"  order sha256        {order_sha}",
                         f"  plan sha256         {plan_sha}"]


def test_plan_digest_tells_pattern_splits_apart():
    def plan(pattern):
        return SimpleNamespace(order=SimpleNamespace(perm=np.arange(3)),
                               etree_parent=np.array([1, 2, -1]),
                               pattern=[np.array(p, dtype=np.int64) for p in pattern])

    order_a, plan_a = ordering_times.plan_digests(plan([[1, 2], [], []]))
    order_b, plan_b = ordering_times.plan_digests(plan([[1], [2], []]))
    assert order_a == order_b
    assert plan_a != plan_b


def test_rejects_a_malformed_geometry():
    proc = run_tool("2,10")
    assert proc.returncode == 2
    assert "SIDE,PPW,PXxPY" in proc.stderr
