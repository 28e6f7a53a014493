"""Self-test of the benchmark on tiny configs.

Run from the root of the source tree::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ddsolve import run_pipeline  # noqa: E402
from ddsolve.config import parse_config_file  # noqa: E402

import bench  # noqa: E402
from checks import check_reference, check_replica, check_result  # noqa: E402
from tracing import STAGE_METRICS, Tracer, job_layers, traced_job  # noqa: E402
from workloads import WORKLOADS, Workload, job_angles, write_jobs  # noqa: E402

TINY = Workload("tiny", side_lambda=1.0, ppw=10, tiles=2, angles=2)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny_job(tmp_path):
    return write_jobs(TINY, seed=7, directory=tmp_path)[0]


def test_same_seed_gives_same_angles():
    w = WORKLOADS["angle-sweep"]
    assert job_angles(w, 3) == job_angles(w, 3)
    assert job_angles(w, 3) != job_angles(w, 4)
    assert all(len(a) == w.angles for a in job_angles(w, 3))


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_traced_replica_is_bit_identical(tiny_job):
    tracer = Tracer()
    traced = traced_job(tiny_job, tracer, job=0)
    for path, t in zip(tiny_job, traced):
        result = run_pipeline(parse_config_file(path))
        assert check_result(result) == []
        assert check_replica(result, t) == []
        result.report.residual_inf = math.nextafter(t.residual, 1.0)
        assert check_replica(result, t)


def test_spans_account_for_the_job(tiny_job):
    tracer = Tracer()
    traced = traced_job(tiny_job, tracer, job=0)
    m = job_layers(tracer, 0, traced)
    stages = sum(m[name] for name in STAGE_METRICS) + m["driver.unattributed_s"]
    assert stages == pytest.approx(m["driver.job_s"], rel=1e-12)
    assert abs(m["trace.accounting_error_s"]) < 1e-12
    assert m["subdomain.reduce_max_s"] <= m["subdomain.reduce_s"]
    assert m["subdomain.domains"] == 4


def test_repeat_share_counts_only_repeated_matrix_work(tiny_job):
    tracer = Tracer()
    m_two = job_layers(tracer, 0, traced_job(tiny_job, tracer, job=0))
    m_one = job_layers(tracer, 1, traced_job(tiny_job[:1], tracer, job=1))
    assert m_one["workload.repeat_share"] == 0.0
    assert 0.0 < m_two["workload.repeat_share"] < 1.0


def test_checks_flag_bad_outputs(tiny_job):
    run = parse_config_file(tiny_job[0])
    result = run_pipeline(run)
    assert check_reference(result, run) == []
    result.solution = result.solution * (1 + 1e-6)
    assert check_reference(result, run)
    result.report.residual_inf = 1e-9
    assert check_result(result)
    result.block_factor.stats.factor_entries += 1
    assert len(check_result(result)) == 2


def test_tail_quantile_leaves_ten_samples_beyond():
    assert bench.tail_quantile(10) == 0.5
    assert bench.tail_quantile(100) == pytest.approx(0.9)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"),
                                            (True, "per_layer")])
def test_measure_reports_every_declared_metric(tmp_path, trace, section):
    out = bench.measure(TINY, seed=1, seconds=0.3, trace=trace,
                        work_dir=tmp_path, src=ROOT / "src")
    assert not out["tally"].failed, out["tally"].problems
    assert len(out["tally"].attempted) >= 2
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: u for k, (_, u) in out["metrics"].items()} == declared


def test_refuses_tree_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        SPEC["command"] + ["--workload", "angle-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
