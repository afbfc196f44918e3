"""Command-line interface: dispatch, config merging, artifacts, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import mixlap
from mixlap import cli, kernels, mc, spectral
from mixlap.cli import build_parser, main
from mixlap.errors import AccuracyError
from mixlap.fileio import write_json
from mixlap.params import QuadratureSpec
from mixlap.solver import SolverConfig

import gridcoords

README = Path(__file__).resolve().parents[1] / "README.md"


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestKernelTab:
    def test_writes_profile_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "kernel-tab", "--n", "2", "--s", "0.5", "--kernel", "heat",
            "--t", "1", "--radii", "0.5,1,2", "--output-dir", str(out),
        ])
        assert code == 0
        rows = np.loadtxt(out / "heat.csv", delimiter=",", skiprows=1)
        assert rows.shape == (3, 2)
        assert np.all(rows[:, 1] > 0)
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "kernel-tab"
        assert manifest["pass"] is True
        assert "mixlap" in manifest["versions"]

    def test_second_call_inherits_no_options(self, tmp_path):
        # the parser is built once per process; nothing of one call's
        # arguments may reach the next
        out = tmp_path / "out"
        base = ["kernel-tab", "--n", "2", "--s", "0.5", "--radii", "0.5,1",
                "--output-dir", str(out)]
        assert main(base + ["--kernel", "heat", "--t", "1"]) == 0
        assert read_json(out / "manifest.json")["config"]["t"] == 1.0
        assert main(base + ["--kernel", "bessel"]) == 0
        config = read_json(out / "manifest.json")["config"]
        assert config["kernel"] == "bessel"
        assert "t" not in config

    def test_zero_weight_counts_as_given(self, tmp_path):
        # --t1 0 is a value, not an absent option: H(x, 0, 1) is the Gaussian
        out = tmp_path / "out"
        assert main(["kernel-tab", "--n", "2", "--s", "0.5", "--kernel",
                     "heat-two-scale", "--t1", "0", "--t2", "1", "--radii", "0.25",
                     "--output-dir", str(out)]) == 0
        config = read_json(out / "manifest.json")["config"]
        assert (config["t1"], config["t2"]) == (0.0, 1.0)
        value = np.loadtxt(out / "heat-two-scale.csv", delimiter=",", skiprows=1)[1]
        assert value == pytest.approx(np.pi * np.exp(-np.pi ** 2 / 16), rel=1e-6)

    def test_poisson_far_from_the_origin(self, tmp_path):
        # t2 = 0, n = 1 is the Poisson kernel; see TestHeatKernel in test_kernels
        out = tmp_path / "out"
        assert main(["kernel-tab", "--n", "1", "--s", "0.5", "--kernel",
                     "heat-two-scale", "--t1", "0.21304484943643734", "--t2", "0",
                     "--radii", "2.677857259815627", "--output-dir", str(out)]) == 0

    def test_missing_radii_is_usage_error(self, tmp_path, capsys):
        code = main([
            "kernel-tab", "--n", "2", "--s", "0.5",
            "--output-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "radii" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        pytest.param(["--kernel", "heat"], "--t", id="heat-without-t"),
        pytest.param(["--kernel", "heat-two-scale", "--t1", "1"], "--t2",
                     id="two-scale-without-t2"),
        pytest.param(["--kernel", "heat-two-scale"], "--t1, --t2",
                     id="two-scale-without-t1-t2"),
        pytest.param(["--kernel", "bessel-shifted"], "--a", id="shifted-without-a"),
        pytest.param(["--radii", ""], "radii", id="radii-empty"),
        pytest.param(["--radii", "1,nan"], "radii", id="radii-nan"),
        pytest.param(["--radii", "1,inf"], "radii", id="radii-inf"),
        pytest.param(["--radii", "2,1"], "strictly increasing", id="radii-decreasing"),
        pytest.param(["--kernel", "bessel", "--t", "1"], "does not take --t",
                     id="bessel-with-t"),
        pytest.param(["--kernel", "heat", "--t", "1", "--a", "1"], "does not take --a",
                     id="heat-with-a"),
        pytest.param(["--kernel", "resolvent-multiplier", "--t1", "1"],
                     "does not take --t1", id="resolvent-multiplier-with-t1"),
    ])
    def test_bad_input_is_usage_error(self, tmp_path, capsys, monkeypatch, args, message):
        # rejected before any kernel value is computed
        def poisoned(*_args, **_kwargs):
            raise AssertionError("evaluator called")

        for label, (_, reads) in list(kernels._KERNELS.items()):
            monkeypatch.setitem(kernels._KERNELS, label, (poisoned, reads))
        argv = ["kernel-tab", "--n", "2", "--s", "0.5", "--radii", "0.5,1",
                "--output-dir", str(tmp_path / "o")] + args
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kernel", ["bessel", "resolvent-multiplier"])
    def test_tiny_radius_is_usage_error(self, tmp_path, capsys, kernel):
        # the partition would reach r ~ 1e162, where the symbol's r^2 overflows
        out = tmp_path / "o"
        assert main(["kernel-tab", "--n", "3", "--s", "0.5", "--kernel", kernel,
                     "--radii", "1e-160", "--output-dir", str(out)]) == 2
        assert "|x| = 1e-160 is too small" in capsys.readouterr().err
        assert not (out / f"{kernel}.csv").exists()

    def test_overflowing_radius_is_usage_error(self, tmp_path, capsys):
        # at n = 5 the partition fits, but the integrand's r^{n/2} overflows
        out = tmp_path / "o"
        assert main(["kernel-tab", "--n", "5", "--s", "0.5", "--kernel", "bessel",
                     "--radii", "1e-130", "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "|x| = 1e-130 is too small" in err
        assert "RuntimeWarning" not in err
        assert not (out / "bessel.csv").exists()

    def test_heat_time_whose_cut_underflows_is_usage_error(self, tmp_path, capsys):
        # the heat envelope's cut (60 / t)^{1/(2s)} underflows to 0.0
        out = tmp_path / "o"
        assert main(["kernel-tab", "--kernel", "heat", "--t", "1e100", "--n", "2",
                     "--s", "0.05", "--radii", "1", "--output-dir", str(out)]) == 2
        assert "t1 = 1e+100, s = 0.05" in capsys.readouterr().err
        assert not (out / "heat.csv").exists()

    def test_writes_nothing_outside_output_dir(self, tmp_path, monkeypatch):
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        for key in [k for k in os.environ if k.startswith("MIXLAP_")]:
            monkeypatch.delenv(key)
        out = tmp_path / "out"
        assert main(["kernel-tab", "--n", "2", "--s", "0.5", "--kernel", "bessel",
                     "--radii", "0.5,1", "--output-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "bessel.csv", "bessel.json", "manifest.json"]
        assert not (home / ".cache" / "mixlap").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["home", "out"]


class TestSolveAnalyze:
    def test_solve_then_analyze(self, tmp_path):
        out = tmp_path / "solve"
        code = main([
            "solve", "--n", "2", "--s", "0.5", "--p", "3",
            "--L", "15", "--N", "128", "--output-dir", str(out),
        ])
        assert code == 0
        report = read_json(out / "solve-report.json")
        assert report["converged"] is True
        assert report["residual_linf"] < 1e-8

        header = read_json(out / "ground_state.bin.json")
        assert header == {"n": 2, "L": 15.0, "N": 128, "s": 0.5, "p": 3.0}

        out2 = tmp_path / "analyze"
        code = main([
            "analyze", "--field", str(out / "ground_state.bin"),
            "--output-dir", str(out2),
        ])
        assert code == 0
        config = read_json(out2 / "manifest.json")["config"]
        assert (config["n"], config["s"]) == (2, 0.5)  # read from the header
        records = read_json(out2 / "analyze.json")
        by_check = {rec["check"]: rec for rec in records}
        assert by_check["positivity"]["pass"]
        assert by_check["field-residual"]["pass"]
        assert by_check["radial-symmetry"]["pass"]
        assert by_check["decay-slope"]["pass"]

    def test_decay_fit_that_cannot_run_fails_its_record(self, tmp_path):
        # the 3-D N = 64 field has 7 shells in the fit window, fewer than 8
        out = tmp_path / "solve"
        assert main(["solve", "--n", "3", "--s", "0.5", "--p", "2", "--L", "15",
                     "--N", "64", "--output-dir", str(out)]) == 0
        out2 = tmp_path / "analyze"
        code = main(["analyze", "--field", str(out / "ground_state.bin"),
                     "--output-dir", str(out2)])
        assert code == 1
        by_check = {rec["check"]: rec for rec in read_json(out2 / "analyze.json")}
        decay = by_check["decay-slope"]
        assert decay["pass"] is False and decay["statistic"] is None
        assert decay["detail"] == "decay fit needs >= 8 radii in the window, got 7"
        assert by_check["positivity"]["pass"] and by_check["field-residual"]["pass"]
        assert {"radial-symmetry", "barrier-subsolution",
                "barrier-supersolution"} <= by_check.keys()
        assert read_json(out2 / "manifest.json")["pass"] is False

    def test_nonpositive_fit_window_fails_its_record(self, tmp_path):
        # u = 1 - |x|/8 turns negative inside the fit window (5, 12)
        grid = spectral.GridSpec(2, 30.0, 128)
        path = tmp_path / "u.bin"
        u = spectral.RealField(grid, 1.0 - gridcoords.radius(grid) / 8.0)
        spectral.write_field(path, u, s=0.5, p=3.0)
        out = tmp_path / "an"
        assert main(["analyze", "--field", str(path), "--output-dir", str(out)]) == 1
        by_check = {rec["check"]: rec for rec in read_json(out / "analyze.json")}
        assert by_check["decay-slope"]["pass"] is False
        assert "nonpositive" in by_check["decay-slope"]["detail"]
        assert by_check["positivity"]["pass"] is False

    def test_non_convergence_exit_code(self, tmp_path):
        code = main([
            "solve", "--n", "2", "--s", "0.5", "--p", "3",
            "--L", "15", "--N", "128", "--max-iter", "2",
            "--output-dir", str(tmp_path / "nc"),
        ])
        assert code == 3

    def test_report_exports_stabilizer_history(self, tmp_path):
        out = tmp_path / "solve"
        code = main([
            "solve", "--n", "2", "--s", "0.5", "--p", "3",
            "--L", "15", "--N", "64", "--output-dir", str(out),
        ])
        assert code == 0
        report = read_json(out / "solve-report.json")
        history = report["stabilizer_history"]
        assert len(history) == report["iterations"]
        assert history[-1] == report["stabilizer_final"]
        residuals = report["residual_history"]
        assert len(residuals) == report["iterations"]
        assert len(report["mixing_history"]) == report["iterations"]
        assert report["mixing_fallbacks"] == 0
        tol = read_json(out / "manifest.json")["config"]["tol_residual"]
        assert residuals[-1] <= tol

    def test_truncated_field_is_usage_error(self, tmp_path, capsys):
        grid = spectral.GridSpec(2, 15.0, 64)
        path = tmp_path / "u.bin"
        spectral.write_field(path, spectral.RealField(grid, np.ones(grid.shape)),
                             s=0.5, p=3.0)
        path.write_bytes(path.read_bytes()[:-8])
        code = main([
            "analyze", "--field", str(path), "--output-dir", str(tmp_path / "an"),
        ])
        assert code == 2
        assert "bytes" in capsys.readouterr().err

    def test_header_without_s_is_usage_error(self, tmp_path, capsys):
        grid = spectral.GridSpec(2, 15.0, 64)
        path = tmp_path / "u.bin"
        spectral.write_field(path, spectral.RealField(grid, np.ones(grid.shape)))
        out = tmp_path / "an"
        code = main(["analyze", "--field", str(path), "--output-dir", str(out)])
        assert code == 2
        assert "has no s" in capsys.readouterr().err
        assert not out.exists()

    def test_header_without_p_is_usage_error(self, tmp_path, capsys):
        grid = spectral.GridSpec(2, 15.0, 64)
        path = tmp_path / "u.bin"
        spectral.write_field(path, spectral.RealField(grid, np.ones(grid.shape)), s=0.5)
        out = tmp_path / "an"
        code = main(["analyze", "--field", str(path), "--output-dir", str(out)])
        assert code == 2
        assert "has no p" in capsys.readouterr().err
        assert not out.exists()

    def test_perturbed_start_solves_on_the_full_box(self, tmp_path):
        # a perturbed start is not even; the full-box path took 464 steps
        out = tmp_path / "solve"
        code = main([
            "solve", "--n", "2", "--s", "0.5", "--p", "3", "--L", "15", "--N", "64",
            "--perturb", "0.05", "--seed", "3", "--output-dir", str(out),
        ])
        assert code == 0
        assert read_json(out / "solve-report.json")["residual_linf"] < 1e-8

    @pytest.mark.parametrize("perturb", ["-0.5", "nan"])
    def test_invalid_perturb_is_usage_error(self, tmp_path, capsys, perturb):
        # it was ignored: the solve ran unperturbed and its manifest recorded it
        out = tmp_path / "bad"
        code = main(["solve", "--n", "2", "--s", "0.5", "--p", "3", "--L", "15",
                     "--N", "64", "--perturb", perturb, "--output-dir", str(out)])
        assert code == 2
        assert "perturb" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_grid_is_usage_error(self, tmp_path):
        code = main([
            "solve", "--n", "2", "--s", "0.5", "--p", "3",
            "--L", "15", "--N", "100", "--output-dir", str(tmp_path / "bad"),
        ])
        assert code == 2


class TestAsymptotics:
    def test_passes_at_large_radius(self, tmp_path):
        out = tmp_path / "asym"
        code = main([
            "asymptotics", "--n", "2", "--s", "0.5",
            "--radii", "20,50,100", "--output-dir", str(out),
        ])
        assert code == 0
        report = read_json(out / "asymptotics.json")
        assert report["pass"] is True
        assert report["rel_err_at_largest_radius"] < 0.05

    def test_radii_in_any_order(self, tmp_path):
        # one kernel call per eta takes the radii as given; each row is the
        # row the sorted radii give
        rows = {}
        for radii in ("100,20,50", "20,50,100"):
            out = tmp_path / radii.replace(",", "-")
            assert main(["asymptotics", "--n", "2", "--s", "0.5", "--radii", radii,
                         "--output-dir", str(out)]) == 0
            rows[radii] = read_json(out / "asymptotics.json")["rows"]
        assert [row["radius"] for row in rows["100,20,50"]] == [100.0, 20.0, 50.0] * 3

        def key(row):
            return row["eta"], row["radius"]

        assert sorted(rows["100,20,50"], key=key) == sorted(rows["20,50,100"], key=key)

    @pytest.mark.parametrize("args, option", [
        pytest.param(["--radii", ","], "--radii", id="radii-empty"),
        pytest.param(["--radii", "20,inf"], "--radii", id="radii-inf"),
        pytest.param(["--eta", ","], "--eta", id="eta-empty"),
        pytest.param(["--eta", "nan"], "--eta", id="eta-nan"),
    ])
    def test_empty_or_nonfinite_list_is_usage_error(self, tmp_path, capsys, args, option):
        # an empty list passed with no rows, and a NaN weight passed because
        # max(worst, nan) keeps worst
        out = tmp_path / "asym"
        code = main(["asymptotics", "--n", "2", "--s", "0.5", "--output-dir", str(out),
                     *args])
        assert code == 2
        assert option in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def kernel_verify(tmp_path_factory):
    """(exit code, output dir) of one kernel-verify run on library defaults."""
    out = tmp_path_factory.mktemp("kv")
    return main(["kernel-verify", "--n", "2", "--s", "0.5", "--output-dir", str(out)]), out


class TestKernelVerify:
    def test_heat_bound_record_reaches_both_lower_regimes(self, kernel_verify):
        code, out = kernel_verify
        records = read_json(out / "kernel-verify.json")
        assert code == 0
        (bounds,) = [rec for rec in records
                     if rec["check"] == "heat-kernel-two-sided-bounds"]
        assert bounds["pass"] is True
        assert not bounds["rejected"]
        regimes = {regime for row in bounds["points"] for regime in row["lower_regimes"]}
        assert regimes == {"tail", "gaussian"}
        assert bounds["lower_ratio_min"] > 0

    def test_check_that_cannot_run_fails_its_record(self, tmp_path, monkeypatch):
        # a Bessel time integral whose quadrature gives up fails its own
        # record; the other six records are still written, and pass
        message = "accelerated Hankel summation did not converge (error ~ 1e-06)"

        def cannot_run(*args):
            raise AccuracyError(message, achieved=1e-6)

        monkeypatch.setattr(kernels, "bessel_kernel_time_integral", cannot_run)
        out = tmp_path / "kv"
        code = main(["kernel-verify", "--n", "2", "--s", "0.5", "--output-dir", str(out)])
        assert code == 1
        by_check = {rec["check"]: rec for rec in read_json(out / "kernel-verify.json")}
        cross = by_check.pop("bessel-time-integral")
        assert cross["pass"] is False and cross["statistic"] is None
        assert cross["detail"] == message
        assert by_check["heat-kernel-mass"]["pass"] is True
        assert len(by_check) == 6
        assert all(rec["pass"] for rec in by_check.values())
        assert read_json(out / "manifest.json")["pass"] is False


class TestMcValidate:
    def test_small_run(self, tmp_path):
        out = tmp_path / "mc"
        code = main([
            "mc-validate", "--n", "2", "--s", "0.5", "--t", "1",
            "--count", "100000", "--seed", "4", "--output-dir", str(out),
        ])
        assert code == 0
        assert read_json(out / "mc-char.json")["pass"] is True
        assert read_json(out / "mc-density.json")["pass"] is True
        config = read_json(out / "manifest.json")["config"]
        assert config["workers"] == mc.worker_count()

    def test_manifest_records_stage_timings(self, tmp_path):
        out = tmp_path / "mc"
        main(["mc-validate", "--n", "2", "--s", "0.5", "--count", "20000",
              "--seed", "4", "--output-dir", str(out)])
        stages = read_json(out / "manifest.json")["stages"]
        assert set(stages) == {"quadrature_s", "pass_s", "samples_per_s"}
        assert stages["pass_s"] >= stages["quadrature_s"] > 0
        assert stages["samples_per_s"] == pytest.approx(20000 / stages["pass_s"])

    @pytest.mark.parametrize("args, message", [
        pytest.param(["--count", "0"], "count must be at least 1, got 0", id="count-0"),
        pytest.param(["--count", "1"], "count >= 2, got count 1", id="count-1"),
        pytest.param(["--t", "nan"], "finite and positive, got nan", id="t-nan"),
        pytest.param(["--t", "inf"], "finite and positive, got inf", id="t-inf"),
        pytest.param(["--t", "-1"], "finite and positive, got -1.0", id="t-negative"),
    ])
    def test_bad_input_is_usage_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "mc"
        argv = ["mc-validate", "--n", "2", "--s", "0.5", "--count", "1000",
                "--output-dir", str(out)] + args
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before numpy warns
            assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestImport:
    def test_cli_leaves_the_unused_scipy_subpackages_unimported(self):
        # only cross-checks and n >= 5 Bessel zeros use integrate and optimize;
        # nothing in the package imports interpolate
        code = ("import json, sys, mixlap.cli; print(json.dumps([m for m in "
                "('scipy.integrate', 'scipy.optimize', 'scipy.interpolate') "
                "if m in sys.modules]))")
        src = str(Path(mixlap.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert json.loads(proc.stdout) == []


class TestReports:
    def test_failed_serialisation_keeps_the_old_report(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(path, {"check": "ok", "pass": True})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"check": "bad", "value": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


class TestConfigFile:
    def test_file_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# solver settings\n"
            "n = 2\n"
            "s = 0.5\n"
            "p = 3\n"
            "L = 15\n"
            "N = 64\n"
        )
        out = tmp_path / "out"
        code = main([
            "solve", "--config", str(cfg), "--N", "128",
            "--output-dir", str(out),
        ])
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["N"] == 128  # flag beats file
        assert manifest["config"]["L"] == 15.0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        code = main(["solve", "--config", str(cfg), "--n", "2", "--s", "0.5",
                     "--p", "3"])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["config = /nonexistent.cfg", "help = 1"])
    def test_config_and_help_are_not_keys(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        code = main(["solve", "--config", str(cfg), "--n", "2", "--s", "0.5",
                     "--p", "3", "--output-dir", str(out)])
        assert code == 2
        key = line.split()[0]
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        code = main(["solve", "--config", str(cfg), "--n", "2", "--s", "0.5",
                     "--p", "3"])
        assert code == 2

    def test_malformed_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("N = abc\n")
        out = tmp_path / "o"
        code = main(["solve", "--config", str(cfg), "--n", "2", "--s", "0.5",
                     "--p", "3", "--output-dir", str(out)])
        assert code == 2
        assert "--N" in capsys.readouterr().err
        assert not out.exists()


    def test_ambiguous_abbreviation_opens_no_file(self, tmp_path, capsys, monkeypatch):
        # --co could be --config or --count in mc-validate, and a file named 5
        # exists: the pre-parse finds it ambiguous, as the command does
        monkeypatch.chdir(tmp_path)
        (tmp_path / "5").write_text("seed = 3\n")
        opened = []
        monkeypatch.setattr(cli, "_config_tokens", lambda *a: opened.append(a) or [])
        out = tmp_path / "o"
        code = main(["mc-validate", "--n", "2", "--s", "0.5", "--co", "5",
                     "--output-dir", str(out)])
        assert code == 2
        assert ("ambiguous option: --co could match --config, --count"
                in capsys.readouterr().err)
        assert opened == []
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--conf", "--config", "--conf="])
    def test_abbreviations_resolve_as_in_the_command(self, tmp_path, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\ns = 0.25\nseed = 7\n")
        path = [flag + str(cfg)] if flag.endswith("=") else [flag, str(cfg)]
        args = cli._parse(["mc-validate", *path, "--cou", "5", "--seed", "8"])
        assert (args.command, args.n, args.s, args.count, args.seed) == (
            "mc-validate", 3, 0.25, 5, 8)


class TestReproducibility:
    def test_identical_outputs_for_identical_config(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main([
                "solve", "--n", "2", "--s", "0.5", "--p", "3",
                "--L", "15", "--N", "64", "--output-dir", str(out),
            ])
            assert code == 0
            outs.append((out / "ground_state.bin").read_bytes())
        assert outs[0] == outs[1]


# the minimal valid command line of each subcommand; nothing runs in these tests
_PARAMS = ["--n", "2", "--s", "0.5"]
_ARGV = {
    "kernel-tab": [*_PARAMS, "--radii", "1"],
    "kernel-verify": _PARAMS,
    "solve": [*_PARAMS, "--p", "3"],
    "analyze": ["--field", "u.bin"],
    "mc-validate": _PARAMS,
    "asymptotics": _PARAMS,
}
_QUAD_DEFAULTS = asdict(QuadratureSpec())


class TestManifestConfig:
    """A manifest records every option its run read, library defaults included."""

    def test_solve_records_seed_and_perturb(self, tmp_path):
        argv = ["solve", *_PARAMS, "--p", "3", "--L", "10", "--N", "32", "--max-iter", "2"]
        main(argv + ["--output-dir", str(tmp_path / "plain")])
        main(argv + ["--perturb", "0.05", "--seed", "3",
                     "--output-dir", str(tmp_path / "perturbed")])
        plain = read_json(tmp_path / "plain" / "manifest.json")["config"]
        perturbed = read_json(tmp_path / "perturbed" / "manifest.json")["config"]
        defaults = SolverConfig(p=3.0)
        assert (plain["seed"], plain["perturb"]) == (defaults.seed, defaults.perturb)
        assert (perturbed["seed"], perturbed["perturb"]) == (3, 0.05)

    def test_kernel_verify_records_seed_and_quadrature(self, kernel_verify):
        config = read_json(kernel_verify[1] / "manifest.json")["config"]
        assert config["seed"] == 0
        assert {key: config[key] for key in _QUAD_DEFAULTS} == _QUAD_DEFAULTS

    @pytest.mark.parametrize("command", ["kernel-tab", "analyze", "mc-validate",
                                         "asymptotics"])
    def test_quadrature_is_recorded_resolved(self, tmp_path, command):
        argv = [command, *_ARGV[command], "--rel-tol", "1e-7"]
        if command == "analyze":
            grid = spectral.GridSpec(2, 15.0, 128)
            field = tmp_path / "u.bin"
            spectral.write_field(field, spectral.RealField(grid, np.ones(grid.shape)),
                                 s=0.5, p=3.0)
            argv[argv.index("u.bin")] = str(field)
        elif command == "mc-validate":
            argv += ["--count", "1000"]
        main(argv + ["--output-dir", str(tmp_path / "o")])
        config = read_json(tmp_path / "o" / "manifest.json")["config"]
        assert {key: config[key] for key in _QUAD_DEFAULTS} == dict(
            _QUAD_DEFAULTS, rel_tol=1e-7)


class TestOptions:
    @pytest.mark.parametrize("command, flag", [
        ("solve", "--rel-tol"), ("solve", "--abs-tol"), ("solve", "--max-zeros"),
        ("kernel-tab", "--threads"), ("kernel-verify", "--threads"),
        ("analyze", "--threads"), ("mc-validate", "--threads"),
        ("asymptotics", "--threads"), ("solve", "--threads"),
        ("kernel-tab", "--seed"), ("analyze", "--seed"), ("asymptotics", "--seed"),
        ("analyze", "--n"), ("analyze", "--s"),
    ])
    def test_flag_the_command_does_not_read_is_usage_error(
            self, tmp_path, capsys, command, flag):
        out = tmp_path / "o"
        argv = [command, *_ARGV[command], flag, "1", "--output-dir", str(out)]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_value_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["solve", "--n", "2", "--s", "0.5", "--p", "3", "--N", "abc",
                     "--output-dir", str(out)])
        assert code == 2
        assert "--N" in capsys.readouterr().err
        assert not out.exists()

    def test_unrecognized_option_is_reported_by_mixlap(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["kernel-tab", *_ARGV["kernel-tab"], "--bogus", "3", "--output-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: mixlap: unrecognized arguments: --bogus 3\n"

    def test_command_line_is_parsed_once_by_its_command(self, monkeypatch):
        parser = build_parser()
        parsed = []

        def spy(p):
            parse = p.parse_known_args

            def parse_known_args(*args, **kwargs):
                parsed.append(p.prog)
                return parse(*args, **kwargs)
            return parse_known_args

        for p in [parser, *parser.commands.values()]:
            monkeypatch.setattr(p, "parse_known_args", spy(p))
        cli._parse(["solve", *_ARGV["solve"]])
        assert parsed == ["mixlap solve"]

    def test_readme_examples_parse(self):
        text = README.read_text()
        block = re.search(r"## Command-line interface.*?```sh\n(.*?)```", text, re.S)
        lines = block.group(1).replace("\\\n", " ").splitlines()
        examples = [shlex.split(line) for line in lines if line.startswith("mixlap ")]
        commands = [build_parser().parse_args(argv[1:]).command for argv in examples]
        assert sorted(commands) == sorted(build_parser().commands)
