"""Command-line interface: dispatch, config merging, artifacts, exit codes."""

import json
import os

import numpy as np
import pytest

from mixlap import analysis, kernels, mc, spectral
from mixlap.cli import main


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
    ])
    def test_bad_input_is_usage_error(self, tmp_path, capsys, monkeypatch, args, message):
        # rejected before any kernel value is computed
        for label in kernels._KERNEL_EVALUATORS:
            monkeypatch.setitem(
                kernels._KERNEL_EVALUATORS, label,
                lambda *a: (_ for _ in ()).throw(AssertionError("evaluator called")),
            )
        argv = ["kernel-tab", "--n", "2", "--s", "0.5", "--radii", "0.5,1",
                "--output-dir", str(tmp_path / "o")] + args
        assert main(argv) == 2
        assert message in capsys.readouterr().err

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

        out2 = tmp_path / "analyze"
        code = main([
            "analyze", "--n", "2", "--s", "0.5",
            "--field", str(out / "ground_state.bin"),
            "--output-dir", str(out2),
        ])
        assert code == 0
        records = read_json(out2 / "analyze.json")
        by_check = {rec["check"]: rec for rec in records}
        assert by_check["positivity"]["pass"]
        assert by_check["radial-symmetry"]["pass"]
        assert by_check["decay-slope"]["pass"]

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

    def test_truncated_field_is_usage_error(self, tmp_path, capsys):
        grid = spectral.GridSpec(2, 15.0, 64)
        path = tmp_path / "u.bin"
        spectral.write_field(path, spectral.RealField(grid, np.ones(grid.shape)))
        path.write_bytes(path.read_bytes()[:-8])
        code = main([
            "analyze", "--n", "2", "--s", "0.5", "--field", str(path),
            "--output-dir", str(tmp_path / "an"),
        ])
        assert code == 2
        assert "bytes" in capsys.readouterr().err

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


class TestReports:
    @pytest.mark.parametrize("write_report", [mc.write_report, analysis.write_report])
    def test_failed_serialisation_keeps_the_old_report(self, tmp_path, write_report):
        path = tmp_path / "report.json"
        write_report(path, {"check": "ok", "pass": True})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_report(path, {"check": "bad", "value": object()})
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

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        code = main(["solve", "--config", str(cfg), "--n", "2", "--s", "0.5",
                     "--p", "3"])
        assert code == 2


class TestThreads:
    def test_fft_workers_do_not_change_the_field(self, tmp_path):
        fields = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            code = main([
                "solve", "--n", "2", "--s", "0.5", "--p", "3", "--L", "15",
                "--N", "64", "--threads", threads, "--output-dir", str(out),
            ])
            assert code == 0
            fields.append((out / "ground_state.bin").read_bytes())
        assert fields[0] == fields[1]

    def test_nonpositive_thread_count_is_usage_error(self, tmp_path):
        code = main([
            "solve", "--n", "2", "--s", "0.5", "--p", "3", "--L", "15",
            "--N", "64", "--threads", "0", "--output-dir", str(tmp_path / "o"),
        ])
        assert code == 2


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
