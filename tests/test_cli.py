import csv
import math
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ddsolve
from ddsolve import blockmat, cli, driver, ordering, symbolic
from ddsolve.cli import main
from ddsolve.config import ConfigError, parse_config_file
from ddsolve.driver import AGREEMENT_GATE, CSV_COLUMNS, fit_loglog_slope, \
    run_sweep, run_verify


def write_cfg(path, **kv):
    lines = [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def small_cfg(tmp_path):
    return write_cfg(tmp_path / "small.cfg", side_lambda=1.0, ppw=10,
                     px=2, py=2, theta_inc_deg=30)


class TestConfigFile:
    def test_parse_all_keys(self, tmp_path):
        p = write_cfg(tmp_path / "full.cfg", wavelength=1.0, side_lambda=2.0,
                      ppw=12, px=2, py=3, theta_inc_deg=45, alpha_imag=7.0,
                      pivot_tol="1e-10", ordering="builtin",
                      out_csv="report.csv")
        run = parse_config_file(p)
        assert run.problem.side_lambda == 2.0
        assert run.problem.px == 2 and run.problem.py == 3
        assert run.problem.theta_inc == pytest.approx(np.pi / 4)
        assert run.problem.alpha == 7j
        assert run.pivot_tol == 1e-10
        assert run.out_csv == "report.csv"
        assert run.case_id == "full"

    def test_defaults_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nside_lambda = 1.5   # trailing\n\nppw=11\n")
        run = parse_config_file(p)
        assert run.problem.side_lambda == 1.5
        assert run.problem.ppw == 11
        assert run.problem.alpha == pytest.approx(1j * run.problem.k)
        assert run.ordering == "builtin"

    @pytest.mark.parametrize("text", [
        "side_lambda = 1.0\nbogus_key = 2\n",
        "side_lambda = not_a_number\n",
        "ppw = 12\n",                                # missing side_lambda
        "side_lambda = 1.0\nside_lambda = 2.0\n",    # duplicate
        "side_lambda 1.0\n",                         # missing '='
        "side_lambda = 1.0\nordering = magic\n",
    ])
    def test_rejects_bad_files(self, tmp_path, text):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError):
            parse_config_file(p)


    @pytest.mark.parametrize("key,value,named", [
        ("theta_inc_deg", "nan", "theta_inc"),
        ("alpha_imag", "nan", "alpha"),
        ("side_lambda", "inf", "side_lambda"),
        ("pivot_tol", "nan", "pivot_tol"),
        ("pivot_tol", "inf", "pivot_tol"),
        ("pivot_tol", "-1", "pivot_tol"),
        ("wavelength", "0.1", "wavelength"),
    ])
    def test_rejects_non_finite_and_negative(self, tmp_path, capsys, key,
                                             value, named):
        fields = dict(side_lambda=1.0, ppw=10, px=2, py=2)
        fields[key] = value
        p = write_cfg(tmp_path / "bad.cfg", **fields)
        with pytest.raises(ConfigError, match=named):
            parse_config_file(p)
        assert main(["solve", p]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--pivot-tol=nan", "--pivot-tol=-1",
                                      "--pivot-tol=inf", "--ordering=foo"])
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_cli_overrides_are_checked(self, small_cfg, capsys, command, flag):
        configs = [small_cfg] * (2 if command == "sweep" else 1)
        assert main([command, *configs, flag]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert flag[2:].split("=")[0].replace("-", "_") in err


class TestSolveVerify:
    def test_solve_exit_code_and_report(self, small_cfg, capsys):
        rc = main(["solve", small_cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "residual (inf)" in out
        assert "vs monolithic" not in out

    def test_verify_reports_reference_difference(self, small_cfg, capsys):
        rc = main(["verify", small_cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "vs monolithic" in out

    def test_verify_single_domain_degenerates_to_direct_solve(self, tmp_path):
        cfg = write_cfg(tmp_path / "one.cfg", side_lambda=1.0, ppw=12)
        result = run_verify(parse_config_file(cfg))
        assert result.report.n_blocks == 0
        assert result.report.n_lambda == 0
        assert result.report.residual_inf <= 1e-13

    def test_dump_k_round_trip(self, small_cfg, tmp_path, capsys):
        out_path = tmp_path / "k.blk"
        rc = main(["solve", small_cfg, "--dump-k", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        K = blockmat.load_blk(out_path)
        assert K.nblocks == 4
        assert (0, 0) in K.blocks

    def test_print_symbolic(self, small_cfg, capsys):
        rc = main(["solve", small_cfg, "--print-symbolic"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "predicted factor bytes" in out

    def test_csv_written(self, small_cfg, tmp_path, capsys):
        csv_path = tmp_path / "row.csv"
        rc = main(["solve", small_cfg, "--csv", str(csv_path)])
        capsys.readouterr()
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS
        assert lines[1].split(",")[0] == "small"

    def test_csv_quotes_case_id_with_comma(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "plate,v2.cfg", side_lambda=1.0, ppw=10,
                        px=2, py=2)
        csv_path = tmp_path / "row.csv"
        rc = main(["solve", cfg, "--csv", str(csv_path)])
        capsys.readouterr()
        assert rc == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 2 and len(rows[1]) == len(CSV_COLUMNS)
        assert rows[1][0] == "plate,v2"
        assert b"\r" not in csv_path.read_bytes()

    def test_ordering_file_flag(self, small_cfg, tmp_path, capsys):
        ord_path = tmp_path / "perm.txt"
        ord_path.write_text("3\n2\n1\n0\n")
        rc = main(["solve", small_cfg, "--ordering", f"file:{ord_path}"])
        capsys.readouterr()
        assert rc == 0

    def test_bad_ordering_file_is_pipeline_error(self, small_cfg, tmp_path,
                                                 capsys):
        ord_path = tmp_path / "perm.txt"
        ord_path.write_text("0\n0\n1\n2\n")
        rc = main(["solve", small_cfg, "--ordering", f"file:{ord_path}"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "stage ordering" in err


    def test_builtin_plan_is_the_separate_passes_plan(self, small_cfg):
        """The pipeline takes the plan the ordering guard computed; it is
        the one a separate symbolic pass over the same order gives."""
        result = driver.run_pipeline(parse_config_file(small_cfg))
        K = result.reduced_system.K
        g = blockmat.clique_graph(K)
        ref = symbolic.symbolic_factor(g, ordering.reorder(g, K.sizes), K.sizes)
        plan = result.plan
        assert np.array_equal(plan.order.perm, ref.order.perm)
        assert np.array_equal(plan.etree_parent, ref.etree_parent)
        assert [p.tolist() for p in plan.pattern] == [p.tolist() for p in ref.pattern]
        assert plan.total_factor_entries == ref.total_factor_entries

    def test_unknown_ordering_spec_is_ordering_stage(self, small_cfg):
        run = parse_config_file(small_cfg)
        run.ordering = "metis"
        with pytest.raises(driver.PipelineError, match="stage ordering") as err:
            driver.run_pipeline(run)
        assert err.value.stage == "ordering"


class TestSweep:
    def test_sweep_csv_and_slopes(self, tmp_path, capsys):
        cfgs = [write_cfg(tmp_path / f"s{i}.cfg", side_lambda=s, ppw=16,
                          px=2, py=2)
                for i, s in enumerate([1.0, 1.5, 2.0])]
        csv_path = tmp_path / "sweep.csv"
        rc = main(["sweep", *cfgs, "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data) == 3
        assert any(l.startswith("# slope factor_bytes_vs_dofs") for l in lines)
        assert "# slope" in out

    def test_factor_bytes_increase_with_dofs(self, tmp_path):
        runs = [parse_config_file(write_cfg(tmp_path / f"m{i}.cfg",
                                            side_lambda=s, ppw=16, px=2, py=2))
                for i, s in enumerate([1.0, 2.0, 3.0])]
        reports, slopes = run_sweep(runs)
        dofs = [r.n_dofs for r in reports]
        fb = [r.factor_bytes for r in reports]
        assert dofs == sorted(dofs)
        assert fb == sorted(fb) and fb[0] < fb[-1]
        assert np.isfinite(slopes["factor_bytes_vs_dofs"])

    def test_slope_needs_two_distinct_dofs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(fit_loglog_slope([529, 529], [3.0e5, 3.1e5]))
            assert math.isnan(fit_loglog_slope([0, 529], [1.0, 3.0e5]))
        assert fit_loglog_slope([10, 100], [1.0, 100.0]) == pytest.approx(2.0)

    def test_time_slope_fitted_on_unrounded_times(self, tmp_path,
                                                  monkeypatch):
        # factor times like those of a small sweep: rounded to 3 decimals
        # they read 0.001/0.001/0.002/0.002 and the fitted slope would be
        # quantisation
        dofs = [121, 225, 361, 529]
        times = [0.00071, 0.00124, 0.00183, 0.00246]

        def fake_pipeline(run):
            i = int(run.case_id)
            return SimpleNamespace(report=driver.SolveReport(
                case_id=run.case_id, n_dofs=dofs[i], n_lambda=1, n_blocks=1,
                factor_time_s=times[i], solve_time_s=times[i] / 7,
                factor_bytes=16 * dofs[i], peak_bytes=32 * dofs[i],
                residual_inf=1e-15, growth_factor=1.0))

        monkeypatch.setattr(driver, "run_pipeline", fake_pipeline)
        runs = [parse_config_file(write_cfg(tmp_path / f"{i}.cfg",
                                            side_lambda=1.0, ppw=10))
                for i in range(len(dofs))]
        csv_path = tmp_path / "sweep.csv"
        reports, slopes = run_sweep(runs, csv_path=str(csv_path))
        assert [r.factor_time_s for r in reports] == times
        assert slopes["factor_time_vs_dofs"] == fit_loglog_slope(dofs, times)
        assert abs(slopes["factor_time_vs_dofs"] - fit_loglog_slope(
            dofs, [round(t, 3) for t in times])) > 0.1
        rows = list(csv.reader(csv_path.read_text().splitlines()[1:5]))
        assert [r[4] for r in rows] == ["0.001", "0.001", "0.002", "0.002"]

    def test_pipeline_report_keeps_unrounded_times(self, small_cfg,
                                                   monkeypatch):
        clock = iter([10.0, 10.0004567, 20.0, 20.0001234])
        monkeypatch.setattr(driver, "time",
                            SimpleNamespace(perf_counter=lambda: next(clock)))
        report = driver.run_pipeline(parse_config_file(small_cfg)).report
        assert report.factor_time_s == 10.0004567 - 10.0
        assert report.solve_time_s == 20.0001234 - 20.0
        assert "factor time     : 0.000 s" in report.text()

    def test_sweep_records_failures_in_row(self, tmp_path, capsys):
        good = write_cfg(tmp_path / "good.cfg", side_lambda=1.0, ppw=10,
                         px=2, py=2)
        bad = write_cfg(tmp_path / "bad.cfg", side_lambda=0.4, ppw=10,
                        px=5, py=5)   # too coarse: empty domains
        rc = main(["sweep", good, bad])
        out = capsys.readouterr().out
        assert rc == 2
        rows = [l for l in out.splitlines()[1:] if l and not l.startswith("#")]
        assert len(rows) == 2
        assert "error" in rows[1]
        assert "stage partition" in rows[1]

    def test_sweep_needs_two_configs(self, tmp_path, capsys):
        one = write_cfg(tmp_path / "one.cfg", side_lambda=1.0, ppw=10)
        rc = main(["sweep", one])
        capsys.readouterr()
        assert rc == 1

    def test_non_timing_columns_reproducible(self, tmp_path):
        runs1 = [parse_config_file(write_cfg(tmp_path / f"r{i}.cfg",
                                             side_lambda=s, ppw=12, px=2, py=2))
                 for i, s in enumerate([1.0, 1.5])]
        reports1, _ = run_sweep(runs1)
        reports2, _ = run_sweep(runs1)
        for a, b in zip(reports1, reports2):
            assert (a.case_id, a.n_dofs, a.n_lambda, a.n_blocks,
                    a.factor_bytes, a.peak_bytes, a.residual_inf,
                    a.growth_factor) == \
                   (b.case_id, b.n_dofs, b.n_lambda, b.n_blocks,
                    b.factor_bytes, b.peak_bytes, b.residual_inf,
                    b.growth_factor)


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        rc = main(["bogus-command"])
        capsys.readouterr()
        assert rc == 1

    def test_missing_config_is_1(self, capsys):
        rc = main(["solve", "/nonexistent/path.cfg"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("rel,code", [(AGREEMENT_GATE, 0),
                                          (2 * AGREEMENT_GATE, 2),
                                          (float("nan"), 2)])
    def test_verify_gates_monolithic_agreement(self, small_cfg, capsys,
                                               monkeypatch, rel, code):
        """``verify`` exits 2 when the solution is farther from the
        monolithic solve than the agreement gate, whatever its residual."""
        real = cli.run_verify

        def run_verify_at(run, **kwargs):
            result = real(run, **kwargs)
            assert result.report.residual_inf <= driver.RESIDUAL_GATE
            result.report.rel_diff_monolithic = rel
            return result

        monkeypatch.setattr(cli, "run_verify", run_verify_at)
        assert main(["verify", small_cfg]) == code
        assert "vs monolithic" in capsys.readouterr().out

    def test_module_entry_point(self, small_cfg):
        proc = subprocess.run([sys.executable, "-m", "ddsolve", "solve",
                               small_cfg], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "residual (inf)" in proc.stdout

    def test_import_leaves_sparse_linalg_unloaded(self):
        """Only ``run_verify`` needs scipy.sparse.linalg; importing the
        package in a fresh process does not load it."""
        src = str(Path(ddsolve.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import ddsolve; "
                "sys.exit('scipy.sparse.linalg' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr or "scipy.sparse.linalg loaded"
