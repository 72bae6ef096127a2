import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hdgplate import femspace as fs
from hdgplate import verification as vf
from hdgplate.assembly import PlateMaterial, SpaceConfig
from hdgplate.cli import _build_parser, _materials, main
from hdgplate.solver import SolveReport, SolverConfig


class TestSolveCommand:
    def test_prints_single_report(self, tmp_path, capsys):
        assert main(["solve", "--mesh", "quad", "--n", "4", "--k", "1",
                     "--t", "0.1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert out[0].startswith("n=4 iter=")
        assert "err_omega=" in out[0]

    @pytest.mark.parametrize("t", ["1", "0.01"])
    @pytest.mark.parametrize("k", ["1", "2", "3"])
    def test_one_quad_keeps_no_dirichlet_edge(self, k, t, capsys):
        # every edge is a boundary edge: the Dirichlet traces keep none
        assert main(["solve", "--mesh", "quad", "--n", "1", "--k", k,
                     "--t", t]) == 0
        assert capsys.readouterr().out.startswith("n=1 iter=")

    def test_prints_the_convergence_row(self, tmp_path, capsys):
        flags = ["--mesh", "tri", "--k", "1", "--t", "0.1"]
        assert main(["solve", "--n", "4"] + flags) == 0
        printed = dict(cell.split("=")
                       for cell in capsys.readouterr().out.split())
        out = tmp_path / "c.csv"
        assert main(["convergence", "--levels", "4", "--out", str(out)]
                    + flags) == 0
        capsys.readouterr()
        with out.open() as stream:
            (row,) = csv.DictReader(stream)
        assert printed == {key: row[key] for key in (
            "n", "iter", "err_theta", "err_tgamma", "err_sigma", "err_omega")}

    def test_fresh_interpreter_prints_the_in_process_line(self, capsys):
        # the CLI's module-level imports, run in an interpreter that has
        # loaded nothing else
        args = ["solve", "--mesh", "tri", "--n", "2"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run([sys.executable, "-m", "hdgplate.cli", *args],
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert (run.returncode, run.stdout, run.stderr) == (0, printed, "")


class TestConvergenceCommand:
    def test_csv_rows_and_rates(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["convergence", "--mesh", "tri", "--k", "1", "--t", "1",
                     "--levels", "2,4,8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + one row per level
        header = lines[0].split(",")
        assert header == ["k", "mesh_kind", "n", "t", "iter",
                          "err_theta", "rate_theta", "err_tgamma",
                          "rate_tgamma", "err_sigma", "rate_sigma",
                          "err_omega", "rate_omega"]
        rate_cols = [6, 8, 10, 12]
        first = lines[1].split(",")
        assert all(first[c] == "" for c in rate_cols)
        for row in lines[2:]:
            cells = row.split(",")
            assert all(cells[c] != "" for c in rate_cols)

    def test_metadata_sidecar(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["convergence", "--mesh", "quad", "--k", "2", "--l", "1",
                     "--t", "0.5", "--levels", "2,4",
                     "--out", str(out)]) == 0
        meta = json.loads((out.parent / "t.csv.meta.json").read_text())
        assert meta["k"] == 2 and meta["l"] == 1
        assert meta["material"]["t"] == 0.5
        assert meta["solver"]["tol"] == 1e-10
        assert meta["quadrature"] == dict(fs.quadrature_degrees(2),
                                          error_degree=vf.ERROR_DEGREE)
        assert "assembly_degree" in meta["quadrature"]
        assert meta["levels"] == [2, 4] and len(meta["wall_times"]) == 2
        # table_errors' seconds, part of each level's wall time
        assert len(meta["errors_times"]) == 2
        for errors_time, wall_time in zip(meta["errors_times"],
                                          meta["wall_times"]):
            assert 0 < errors_time < wall_time
        for key in ("iterations", "stop_reasons", "kernel_rejected",
                    "factor_fill", "factor_time"):
            assert key not in meta
        record_keys = {f.name for f in dataclasses.fields(SolveReport)}
        with out.open() as stream:
            rows = list(csv.DictReader(stream))
        assert len(meta["stages"]) == len(rows) == 2
        for level, row in zip(meta["stages"], rows):
            assert set(level) == {"step1", "step2", "step3"}
            for rec in level.values():
                assert set(rec) == record_keys
                assert rec["stop_reason"] in {"converged", "zero_rhs"}
                assert rec["kernel_rejected"] is False
            assert level["step2"]["deflated"] is True
            # stage three factors stage one's S again: no factor is kept
            for stage in ("step1", "step2", "step3"):
                assert level[stage]["factor_fill"] > 0
                assert level[stage]["factor_time"] > 0
            assert level["step3"]["factor_fill"] == level["step1"]["factor_fill"]
            assert level["step2"]["iterations"] == int(row["iter"])
        assert "git_revision" in meta and "seed" not in meta
        rss = meta["peak_rss_mb"]
        assert len(rss) == 2 and rss[0] > 0 and rss[1] >= rss[0]
        # each stage's peak_rss_mb, ru_maxrss when its trace solve returned
        for level, level_rss in zip(meta["stages"], rss):
            peaks = [level[stage]["peak_rss_mb"]
                     for stage in ("step1", "step2", "step3")]
            assert 0 < peaks[0] <= peaks[1] <= peaks[2] <= level_rss

    def test_revision_ignores_callers_repository(self, tmp_path,
                                                 monkeypatch):
        # a study run from inside another git repository must not record
        # that repository's HEAD
        git = ["git", "-c", "user.name=hdg", "-c", "user.email=hdg@localhost",
               "-c", "commit.gpgsign=false"]
        for args in (["init", "-q"], ["commit", "-q", "--allow-empty",
                                      "-m", "other"]):
            subprocess.run(git + args, cwd=tmp_path, check=True,
                           capture_output=True)
        foreign = subprocess.run(git + ["rev-parse", "HEAD"], cwd=tmp_path,
                                 check=True, capture_output=True,
                                 text=True).stdout.strip()
        monkeypatch.chdir(tmp_path)
        assert main(["convergence", "--mesh", "tri", "--levels", "2",
                     "--out", "c.csv"]) == 0
        revision = json.loads((tmp_path / "c.csv.meta.json").read_text())[
            "git_revision"]
        assert revision != foreign
        assert re.fullmatch(r"[0-9a-f]+|unknown", revision)

    def test_a_hanging_git_records_unknown(self, tmp_path, monkeypatch):
        # a git that outlives its timeout costs the revision, not the study
        def hang(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        monkeypatch.setattr(subprocess, "run", hang)
        out = tmp_path / "c.csv"
        assert main(["convergence", "--mesh", "tri", "--levels", "2",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2
        meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
        assert meta["git_revision"] == "unknown"

    def test_rerun_reproduces_csv_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["convergence", "--mesh", "tri", "--k", "1", "--t", "0.01",
                "--levels", "2,4"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestExitCodes:
    def test_config_error_bad_thickness(self, capsys):
        assert main(["solve", "--mesh", "tri", "--n", "2", "--t", "7"]) == 1
        assert "t must lie in" in capsys.readouterr().err

    def test_config_error_bad_trace_degree(self, capsys):
        assert main(["solve", "--mesh", "tri", "--n", "2", "--k", "2",
                     "--l", "0"]) == 1

    def test_config_error_bad_levels(self, tmp_path):
        assert main(["convergence", "--mesh", "tri", "--levels", "2,x",
                     "--out", str(tmp_path / "c.csv")]) == 1

    def test_config_error_non_positive_level(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["convergence", "--levels", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: --levels must list positive integers\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, name", [("--E", "E"),
                                            ("--kappa", "kappa"),
                                            ("--tol", "tol")])
    def test_config_error_non_finite_value(self, flag, name, capsys):
        assert main(["solve", "--mesh", "tri", "--n", "2", flag, "inf"]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: {name} must be positive and finite\n")

    def test_unknown_flag(self, capsys):
        assert main(["solve", "--frobnicate"]) == 1
        capsys.readouterr()

    def test_solver_failure_exits_two(self, tmp_path, capsys):
        # starving the iteration budget must surface as a solver failure
        code = main(["convergence", "--mesh", "tri", "--k", "1", "--t", "1",
                     "--levels", "4", "--max-iter", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "n=4" in err and "step2 solve stopped on max_iter" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_config_error_impossible_iteration_budget(self, budget, capsys):
        assert main(["solve", "--mesh", "tri", "--n", "2",
                     "--max-iter", budget]) == 1
        assert "max_iter must be >= 1" in capsys.readouterr().err

    def test_solve_failure_names_stage_and_stop(self, capsys):
        code = main(["solve", "--mesh", "tri", "--n", "4", "--t", "0.1",
                     "--max-iter", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "step2 solve stopped on max_iter" in err and "step1" not in err

    def test_both_commands_name_every_failed_stage(self, tmp_path, capsys):
        # one wording for both commands, every stage that stopped short named
        flags = ["--mesh", "tri", "--tol", "1e-300", "--max-iter", "1"]
        assert main(["solve", "--n", "4"] + flags) == 2
        solve_err = capsys.readouterr().err
        assert main(["convergence", "--levels", "4",
                     "--out", str(tmp_path / "x.csv")] + flags) == 2
        conv_err = capsys.readouterr().err
        assert solve_err == conv_err
        assert conv_err.startswith("solver error: level n=4: step1 solve "
                                   "stopped on max_iter (residual ")
        for stage in ("step2", "step3"):
            assert f", {stage} solve stopped on max_iter (residual " in conv_err

    def test_missing_out_directory_fails_before_the_study(
            self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("run_convergence was called")
        monkeypatch.setattr(vf, "run_convergence", never)
        out = tmp_path / "missing" / "x.csv"
        assert main(["convergence", "--levels", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: cannot write {out}: "
            f"no directory {out.parent}\n")

    def test_unwritable_out_is_a_configuration_error(self, tmp_path, capsys):
        # the output path is a directory: open() fails after the study
        assert main(["convergence", "--levels", "2",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot write {tmp_path}: ")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestDefaults:
    def test_flag_defaults_are_the_library_defaults(self):
        args = _build_parser().parse_args(["solve"])
        assert _materials(args) == (PlateMaterial(), SpaceConfig(1),
                                    SolverConfig())
