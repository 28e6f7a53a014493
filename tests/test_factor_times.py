"""``tools/factor_times.py`` end to end on one small geometry."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ddsolve.config import RunConfig
from ddsolve.driver import run_pipeline
from ddsolve.mesh import ProblemConfig

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import factor_times  # noqa: E402


def run_tool(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "factor_times.py"),
                           *args], capture_output=True, text=True)


def test_prints_times_and_the_digests_of_the_library_run():
    proc = run_tool("2,10,4x4", "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()

    result = run_pipeline(RunConfig(ProblemConfig(2.0, 10.0, 4, 4, theta_inc=0.3)))
    F = result.block_factor
    assert lines[0] == ("2 wavelengths, ppw 10, 4x4 tiles: 24 blocks, "
                        f"{F.stats.flops:.3g} flops")
    for line, stage in zip(lines[1:3], ("block_ldlt", "block_solve")):
        assert line.startswith(f"  {stage} ")
        assert line.endswith("ms (best of 2)")
    assert lines[3:] == [
        f"  factor sha256       {factor_times.factor_digest(F)}",
        f"  stats sha256        {factor_times.stats_digest(F.stats)}",
        f"  lambda sha256       {factor_times.value_digest(result.lam)}",
        f"  solution sha256     {factor_times.value_digest(result.solution)}",
        "  residual sha256     "
        f"{factor_times.value_digest(result.report.residual_inf)}"]


def test_factor_digest_tells_panel_shapes_apart():
    def factor(shape):
        return SimpleNamespace(panels=[np.zeros(shape, dtype=np.complex128)],
                               panel_rows=[], diag=[])

    assert factor_times.factor_digest(factor((2, 1))) != \
        factor_times.factor_digest(factor((1, 2)))
    assert factor_times.factor_digest(factor((2, 1))) == \
        factor_times.factor_digest(factor((2, 1)))


def test_rejects_a_malformed_geometry():
    proc = run_tool("2,10")
    assert proc.returncode == 2
    assert "SIDE,PPW,PXxPY" in proc.stderr
