"""Monte-Carlo sampler: convention gating, determinism, density comparison."""

import numpy as np
import pytest

from mixlap.params import KernelParams
from mixlap import mc

P2 = KernelParams(2, 0.5)


@pytest.fixture(scope="module")
def batch_200k():
    return mc.sample_mixed(1.0, P2, 200_000, seed=11)


class TestSampler:
    def test_determinism(self):
        a = mc.sample_mixed(0.7, P2, 50_000, seed=5)
        b = mc.sample_mixed(0.7, P2, 50_000, seed=5)
        assert np.array_equal(a.points, b.points)

    def test_seed_sensitivity(self):
        a = mc.sample_mixed(0.7, P2, 1000, seed=5)
        b = mc.sample_mixed(0.7, P2, 1000, seed=6)
        assert not np.array_equal(a.points, b.points)

    def test_shape_and_metadata(self, batch_200k):
        assert batch_200k.points.shape == (200_000, 2)
        assert batch_200k.seed == 11
        assert batch_200k.mode == "mixed"

    def test_count_independent_of_chunking(self):
        # an off-multiple count exercises the final partial sub-batch
        n = mc._SUB_BATCH + 123
        batch = mc.sample_mixed(1.0, P2, n, seed=2)
        assert batch.points.shape == (n, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.sample_mixed(0.0, P2, 100, seed=0)
        with pytest.raises(ValueError):
            mc.sample_mixed(1.0, P2, 100, seed=0, mode="weird")

    def test_symmetry(self, batch_200k):
        # heavy tails make the sample mean noisy; the median is robust
        med = np.median(batch_200k.points, axis=0)
        assert np.abs(med).max() < 0.01

    def test_csv_export(self, tmp_path, batch_200k):
        path = tmp_path / "batch.csv"
        small = mc.sample_mixed(1.0, P2, 100, seed=0)
        small.write_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (100, 2)
        assert np.allclose(rows, small.points)


class TestSubordinator:
    def test_one_sided_stable_laplace_transform(self):
        # E exp(-lambda A) = exp(-lambda^s) pins the normalization
        rng = np.random.default_rng(0)
        for s in (0.3, 0.5, 0.7):
            a = mc._one_sided_stable(s, 400_000, rng)
            for lam in (0.5, 1.0, 2.0):
                vals = np.exp(-lam * a)
                est = vals.mean()
                se = vals.std(ddof=1) / np.sqrt(len(a))
                assert abs(est - np.exp(-lam ** s)) < 4.0 * se


class TestCharFunction:
    def test_mixed_symbol(self, batch_200k):
        rng = np.random.default_rng(3)
        xis = rng.uniform(-1.0, 1.0, (5, 2))
        rep = mc.validate_char_function(batch_200k, xis)
        assert rep["pass"]

    def test_gaussian_mode(self):
        batch = mc.sample_mixed(1.0, P2, 200_000, seed=21, mode="gaussian")
        xis = np.array([[0.3, 0.1], [-0.5, 0.7], [1.0, 0.0]])
        rep = mc.validate_char_function(batch, xis)
        assert rep["pass"]
        # and the mixed symbol would NOT fit a gaussian-only cloud
        vals, ses = mc.empirical_char_function(batch, xis)
        r = np.linalg.norm(xis, axis=1)
        mixed = np.exp(-(r ** 2 + r))
        assert np.any(np.abs(vals - mixed) > 5 * ses)

    def test_stable_mode(self):
        batch = mc.sample_mixed(1.0, P2, 200_000, seed=22, mode="stable")
        xis = np.array([[0.3, 0.1], [-0.5, 0.7], [0.2, -0.9]])
        rep = mc.validate_char_function(batch, xis)
        assert rep["pass"]

    def test_tail_exponent(self, batch_200k):
        # P(|X| > R) ~ R^{-2s}
        r = np.linalg.norm(batch_200k.points, axis=1)
        Rs = np.geomspace(3.0, 30.0, 8)
        frac = np.array([(r > R).mean() for R in Rs])
        slope = np.polyfit(np.log(Rs), np.log(frac), 1)[0]
        assert slope == pytest.approx(-2 * P2.s, abs=0.15)


class TestDensityComparison:
    def test_bulk_shells_agree(self, batch_200k):
        edges = np.concatenate(([0.05], np.linspace(0.2, 2.0, 10)))
        rep = mc.compare_density(batch_200k, edges)
        assert rep["pass"]
        assert len(rep["shells"]) >= 8

    def test_undersampled_shell_excluded(self, batch_200k):
        edges = np.array([0.2, 0.5, 60.0, 61.0])
        rep = mc.compare_density(batch_200k, edges)
        assert any("excluded" in row for row in rep["excluded"])
        assert all(row["r_lo"] >= 60.0 for row in rep["excluded"])

    def test_total_mass(self, batch_200k):
        r = np.linalg.norm(batch_200k.points, axis=1)
        assert (r < 50.0).mean() > 0.98

    def test_bad_edges(self, batch_200k):
        with pytest.raises(ValueError):
            mc.compare_density(batch_200k, [1.0, 0.5])

    def test_report_round_trip(self, tmp_path, batch_200k):
        import json

        edges = np.linspace(0.2, 1.0, 5)
        rep = mc.compare_density(batch_200k, edges)
        path = tmp_path / "density.json"
        mc.write_report(path, rep)
        assert json.loads(path.read_text())["check"] == "shell-density"
