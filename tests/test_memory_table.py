"""``tools/memory_table.py`` end to end on one small geometry."""

import subprocess
import sys
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import memory_table  # noqa: E402

STAGES = ["mesh", "partition", "subdomains", "reduce", "assemble-reduced",
          "clique-graph", "ordering", "numeric-factor", "numeric-solve",
          "recover", "residual"]


def run_tool(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "memory_table.py"),
                           *args], capture_output=True, text=True)


def value(out, label):
    """The number after ``label`` on the line of ``out`` that starts with it."""
    line, = [line for line in out.splitlines() if line.strip().startswith(label)]
    return float(line.split(label)[1].split()[0])


def test_prints_every_measure_and_stage():
    proc = run_tool("2,10,4x4")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.startswith("2 wavelengths, ppw 10, 4x4 tiles: 441 dofs, max kl 7")
    for label in ("max RSS (median of 3 runs)", "traced peak of run_pipeline",
                  "band buffers (A_d, then LU)", "K stored blocks", "SuperLU L+U"):
        assert label in out
    # 9 tile classes of 16 domains: each class's one LU and pivots counted once
    assert "MB   (9 tile classes, one LU each)" in out
    # the median of three fresh processes lies in their range
    label = "max RSS (median of 3 runs)"
    low, high = out.split(label)[1].split("(range ")[1].split(" MB")[0].split("-")
    assert float(low) <= value(out, label) <= float(high)
    # the ratio is of the unrounded sizes, each printed to 0.05 MB
    peak, superlu = value(out, "traced peak of run_pipeline"), value(out, "SuperLU L+U")
    assert value(out, "traced peak / SuperLU L+U") == pytest.approx(
        peak / superlu, rel=0.05 / peak + 0.05 / superlu, abs=0.005)
    stages = [line.split()[0] for line in out.splitlines()
              if line.startswith("  ") and line.split()[0] in STAGES]
    assert stages == STAGES


def test_rejects_a_malformed_geometry():
    proc = run_tool("2,10")
    assert proc.returncode == 2
    assert "SIDE,PPW,PXxPY" in proc.stderr


def test_band_bytes_count_each_class_lu_once():
    tr = memory_table.child_traced((2.0, 10.0, 4, 4))
    systems = memory_table.run_geometry((2.0, 10.0, 4, 4)).systems
    distinct = {id(s.A): s for s in systems}.values()
    assert tr["classes"] == len(distinct) == 9
    assert tr["band"] == sum(s.A.nbytes + s.piv.nbytes for s in distinct)
    assert tr["band"] < sum(s.A.nbytes + s.piv.nbytes for s in systems)
