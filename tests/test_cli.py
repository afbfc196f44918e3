"""Command-line interface: dispatch, config merging, artifacts, exit codes."""

import json

import numpy as np
import pytest

from mixlap import spectral
from mixlap.cli import main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MIXLAP_CACHE_DIR", str(tmp_path / "cache"))


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

    def test_missing_radii_is_usage_error(self, tmp_path, capsys):
        code = main([
            "kernel-tab", "--n", "2", "--s", "0.5",
            "--output-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "radii" in capsys.readouterr().err


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
