"""Monte-Carlo sampler: convention gating, determinism, density comparison."""

import json
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlap.fileio import write_json
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

    def test_count_independent_of_chunking(self):
        # an off-multiple count exercises the final partial sub-batch
        n = mc._SUB_BATCH + 123
        batch = mc.sample_mixed(1.0, P2, n, seed=2)
        assert batch.points.shape == (n, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.sample_mixed(0.0, P2, 100, seed=0)

    def test_symmetry(self, batch_200k):
        # heavy tails make the sample mean noisy; the median is robust
        med = np.median(batch_200k.points, axis=0)
        assert np.abs(med).max() < 0.01


class TestSubordinator:
    def test_one_sided_stable_laplace_transform(self):
        # E exp(-lambda A) = exp(-lambda^s) pins the normalization
        rng = np.random.default_rng(0)
        for s in (0.3, 0.5, 0.7):
            a = mc._one_sided_stable(s, 400_000, rng, np.empty(400_000))
            for lam in (0.5, 1.0, 2.0):
                vals = np.exp(-lam * a)
                est = vals.mean()
                se = vals.std(ddof=1) / np.sqrt(len(a))
                assert abs(est - np.exp(-lam ** s)) < 4.0 * se

    def test_draws_bitwise_equal_with_and_without_scratch(self):
        # the scratch's old contents must not reach the draws: scratch full
        # of NaN and clean, zero-filled scratch give the same bits
        dirty = mc._one_sided_stable(0.4, 1000, np.random.default_rng(7),
                                     np.full(1000, np.nan))
        clean = mc._one_sided_stable(0.4, 1000, np.random.default_rng(7), np.zeros(1000))
        assert dirty.tobytes() == clean.tobytes()


def _half_angle(fn, phase):
    phase = np.array(phase, dtype=float)
    return fn(phase.copy(), np.empty_like(phase))


# sines on (0, pi): uniform draws, both ends' neighbourhoods and pi / 2
SIN_PHASES = np.concatenate((
    np.random.default_rng(1).uniform(0.0, np.pi, 100_000),
    np.geomspace(1e-300, 1.0, 301),
    np.pi - np.geomspace(1e-15, 1.0, 151),
    [np.nextafter(np.pi, 0.0), np.pi / 2],
))

def _cos_phases():
    """Phases over |theta| <= 1e15, their magnitudes spread over every decade."""
    rng = np.random.default_rng(2)
    decades = rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-20.0, 15.0, 50_000)
    return np.concatenate((rng.uniform(-10.0, 10.0, 50_000), decades, [1e15, -1e15]))


COS_PHASES = _cos_phases()
TRIG_TOL = 4.5e-16


class TestHalfAngleTrig:
    """``mc._sin`` and ``mc._cos`` against ``np.sin``/``np.cos`` and mpmath."""

    def test_cos_absolute_error_against_numpy(self):
        got = _half_angle(mc._cos, COS_PHASES)
        assert np.abs(got - np.cos(COS_PHASES)).max() <= TRIG_TOL

    def test_sin_relative_error_against_numpy(self):
        got = _half_angle(mc._sin, SIN_PHASES)
        want = np.sin(SIN_PHASES)
        assert (np.abs(got - want) / want).max() <= TRIG_TOL

    def test_against_mpmath(self):
        cos_phases, sin_phases = COS_PHASES[::500], SIN_PHASES[::500]
        with mpmath.workdps(40):
            for phase, got in zip(cos_phases, _half_angle(mc._cos, cos_phases)):
                assert abs(got - mpmath.cos(mpmath.mpf(phase))) <= TRIG_TOL
            for phase, got in zip(sin_phases, _half_angle(mc._sin, sin_phases)):
                want = mpmath.sin(mpmath.mpf(phase))
                assert abs(got - want) <= TRIG_TOL * want

    @pytest.mark.parametrize("phase", [0.0, np.pi / 2, -np.pi / 2, np.pi,
                                       2 * np.pi, -2 * np.pi])
    def test_special_points(self, phase):
        assert abs(_half_angle(mc._cos, [phase])[0] - np.cos(phase)) <= TRIG_TOL
        assert abs(_half_angle(mc._sin, [phase])[0] - np.sin(phase)) <= TRIG_TOL

    def test_exact_at_zero(self):
        assert _half_angle(mc._cos, [0.0])[0] == 1.0
        assert _half_angle(mc._sin, [0.0])[0] == 0.0

    @given(st.floats(min_value=-1e15, max_value=1e15, allow_subnormal=False))
    @settings(max_examples=300, deadline=None)
    def test_cos_sweep(self, phase):
        assert abs(_half_angle(mc._cos, [phase])[0] - np.cos(phase)) <= TRIG_TOL

    @given(st.floats(min_value=1e-300, max_value=np.nextafter(np.pi, 0.0)))
    @settings(max_examples=300, deadline=None)
    def test_sin_sweep(self, phase):
        want = np.sin(phase)
        assert abs(_half_angle(mc._sin, [phase])[0] - want) <= TRIG_TOL * want

    @pytest.mark.parametrize("fn", [mc._sin, mc._cos], ids=["sin", "cos"])
    def test_non_finite_gives_nan(self, fn):
        phases = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            assert np.isnan(_half_angle(fn, phases)).all()
            assert np.isnan(np.cos(phases)).all()


class TestCharFunction:
    def test_mixed_symbol(self, batch_200k):
        rng = np.random.default_rng(3)
        xis = rng.uniform(-1.0, 1.0, (5, 2))
        rep = mc.validate_char_function(batch_200k, xis)
        assert rep["pass"]

    def test_gaussian_mode(self):
        points = _concatenating_sampler(1.0, P2, 200_000, 21, "gaussian")
        xis = np.array([[0.3, 0.1], [-0.5, 0.7], [1.0, 0.0]])
        vals, ses = _full_array_char_function(points, xis)
        r = np.linalg.norm(xis, axis=1)
        assert np.all(np.abs(vals - np.exp(-r ** 2)) <= 3 * ses)
        # and the mixed symbol would NOT fit a gaussian-only cloud
        mixed = np.exp(-(r ** 2 + r))
        assert np.any(np.abs(vals - mixed) > 5 * ses)

    def test_stable_mode(self):
        points = _concatenating_sampler(1.0, P2, 200_000, 22, "stable")
        xis = np.array([[0.3, 0.1], [-0.5, 0.7], [0.2, -0.9]])
        vals, ses = _full_array_char_function(points, xis)
        r = np.linalg.norm(xis, axis=1)
        assert np.all(np.abs(vals - np.exp(-r ** (2 * P2.s))) <= 3 * ses)

    def test_zero_spread_reports_are_strict_json(self, batch_200k):
        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        def rows(xis):
            rep = mc.validate_char_function(batch_200k, xis)
            return rep["pass"], json.loads(json.dumps(rep), parse_constant=refuse)["frequencies"]

        # xi = 0 estimates exactly its target, 1, with no spread: 0 sigma
        passed, (row,) = rows([[0.0, 0.0]])
        assert (row["empirical"], row["standard_error"], row["sigmas"]) == (1.0, 0.0, 0.0)
        assert passed
        # at |xi| = 1e-16 every cosine is 1 but the target is 1 - 1e-16: no
        # spread to weigh the miss by, so no statistic, and the check fails
        passed, (row,) = rows([[1e-16, 0.0]])
        assert row["standard_error"] == 0.0 and row["empirical"] != row["expected"]
        assert row["sigmas"] is None and not passed

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
        write_json(path, rep)
        assert json.loads(path.read_text())["check"] == "shell-density"


def _sin(phase):
    return mc._sin(phase, np.empty_like(phase))


def _concatenating_sampler(t, params, count, seed, mode):
    """The sampler before streaming: per-sub-batch arrays, summed and joined.

    Kept as the oracle that the streamed sampler draws the same stream in the
    same order of operations, its sines those of ``mc._sin``.  A mixed row is
    the conditional Gaussian draw: given A, one standard normal row scaled by
    sqrt(t / (2 pi^2) + 2 A).  The library draws only mixed rows; "gaussian"
    and "stable" draw the Brownian or the 2s-stable part alone, with the same
    constants, for the convention checks.
    """
    n, s = params.n, params.s
    children = np.random.SeedSequence(seed).spawn(-(-count // mc._SUB_BATCH))
    chunks = []
    remaining = count
    for child in children:
        m = min(mc._SUB_BATCH, remaining)
        rng = np.random.default_rng(child)
        pts = np.zeros((m, n))
        if mode == "gaussian":
            pts += np.sqrt(t / (2.0 * np.pi ** 2)) * rng.standard_normal((m, n))
        if mode in ("mixed", "stable"):
            u = rng.uniform(0.0, np.pi, m)
            w = rng.standard_exponential(m)
            a = (_sin(s * u) ** (s / (1.0 - s)) * _sin((1.0 - s) * u)
                 / _sin(u) ** (1.0 / (1.0 - s)))
            a = (t * (2.0 * np.pi) ** (-2.0 * s)) ** (1.0 / s) * (a / w) ** ((1.0 - s) / s)
            var = 2.0 * a
            if mode == "mixed":
                var += t / (2.0 * np.pi ** 2)
            pts += np.sqrt(var)[:, None] * rng.standard_normal((m, n))
        chunks.append(pts)
        remaining -= m
    return np.concatenate(chunks, axis=0)


def _serial_char_function(points, xis, t, s):
    """The characteristic-function block loop of a mixed batch, written out.

    Kept as the oracle that the block check subtracts the closed-form
    mixed target and adds the same row-contiguous block sums in the same
    order, its cosines those of ``mc._cos`` row by row.
    """
    r = np.linalg.norm(xis, axis=1)
    shift = np.exp(-t * (r ** 2 + r ** (2.0 * s)))
    total = squares = 0.0
    for start in range(0, len(points), mc._BLOCK):
        re = xis @ (2.0 * np.pi * points[start:start + mc._BLOCK]).T
        for row in re:
            mc._cos(row, np.empty_like(row))
        re -= shift[:, None]
        total += re.sum(axis=1)
        squares += np.array([row @ row for row in re])
    count = len(points)
    var = (squares - total * total / count) / (count - 1)
    return shift + total / count, np.sqrt(np.maximum(var, 0.0)) / np.sqrt(count)


def _estimates(report):
    """The estimates and standard errors of a characteristic-function report."""
    rows = report["frequencies"]
    return (np.array([row["empirical"] for row in rows]),
            np.array([row["standard_error"] for row in rows]))


def _full_array_char_function(points, xis):
    """Mean and ddof=1 standard error of the cosines over all rows at once.

    Takes ``np.cos``, not the sampler's half-angle cosine: the independent check.
    """
    re = np.cos(2.0 * np.pi * points @ xis.T)
    return re.mean(axis=0), re.std(axis=0, ddof=1) / np.sqrt(len(points))


def _peak_bytes(fn, *args):
    """Peak traced allocation while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


P3 = KernelParams(3, 0.25)


@pytest.fixture(scope="module")
def batch_1m():
    return mc.sample_mixed(1.0, P3, 10 ** 6, seed=19)


class TestStreaming:
    @pytest.mark.parametrize("params", [P2, P3], ids=["n2-s0.5", "n3-s0.25"])
    @pytest.mark.parametrize("count", [1, 1000, mc._SUB_BATCH + 123, 2 * mc._SUB_BATCH])
    def test_points_bitwise_equal_to_concatenating_sampler(self, params, count):
        want = _concatenating_sampler(0.7, params, count, 31, "mixed").tobytes()
        assert mc.sample_mixed(0.7, params, count, seed=31).points.tobytes() == want

    def test_char_function_matches_full_array(self):
        batch = mc.sample_mixed(1.0, P3, mc._SUB_BATCH + 123, seed=17)
        xis = np.random.default_rng(5).uniform(-1.0, 1.0, (5, 3))
        xis[0] *= 1e-3  # cosines near 1: the spread is tiny against the mean
        vals, ses = _estimates(mc.validate_char_function(batch, xis))
        want_vals, want_ses = _full_array_char_function(batch.points, xis)
        np.testing.assert_allclose(vals, want_vals, rtol=1e-12, atol=0)
        np.testing.assert_allclose(ses, want_ses, rtol=1e-12, atol=0)

    def test_density_counts_equal_histogram(self):
        # several blocks and a partial last sub-batch
        batch = mc.sample_mixed(1.0, P3, mc._SUB_BATCH + 123, seed=17)
        edges = np.concatenate(([0.05], np.linspace(0.2, 2.0, 10), [200.0, 201.0]))
        rep = mc.compare_density(batch, edges)
        assert rep["excluded"]
        rows = sorted(rep["shells"] + rep["excluded"], key=lambda row: row["r_lo"])
        want, _ = np.histogram(np.linalg.norm(batch.points, axis=1), edges)
        assert [row["count"] for row in rows] == want.tolist()

    def test_sampler_holds_one_points_array(self):
        extra = _peak_bytes(mc.sample_mixed, 1.0, P3, 10 ** 6, 19) - 10 ** 6 * 3 * 8
        assert extra < 16e6

    def test_char_function_memory_is_one_block(self, batch_1m):
        xis = np.random.default_rng(20).uniform(-1.0, 1.0, (5, 3))
        assert _peak_bytes(mc.validate_char_function, batch_1m, xis) < 8e6

    def test_density_memory_is_one_block(self, batch_1m):
        assert _peak_bytes(mc.compare_density, batch_1m, [0.5, 1.0, 1.5]) < 8e6


# three sub-batches, the last partial, and nine blocks, the last partial
MULTI_BLOCK_COUNT = 2 * mc._SUB_BATCH + 123
DENSITY_EDGES = np.concatenate(([0.05], np.linspace(0.2, 2.0, 10), [200.0, 201.0]))


def _with_workers(monkeypatch, workers, fn, *args):
    monkeypatch.setattr(mc, "worker_count", lambda: workers)
    return fn(*args)


def _shell_counts(report):
    rows = sorted(report["shells"] + report["excluded"], key=lambda row: row["r_lo"])
    return [row["count"] for row in rows]


class TestWorkers:
    """The streamed pass's results do not depend on how many threads it uses,
    and equal those of the stored batch, drawn and checked on the calling
    thread."""

    def test_worker_count_is_one_or_two(self):
        assert mc.worker_count() in (1, 2)

    def test_stored_batch_uses_no_threads(self, monkeypatch):
        def no_threads(*args):
            raise AssertionError("the stored batch asked for threads")

        monkeypatch.setattr(mc, "worker_count", no_threads)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", no_threads)
        batch = mc.sample_mixed(0.7, P3, MULTI_BLOCK_COUNT, 31)
        assert batch.points.tobytes() == _concatenating_sampler(
            0.7, P3, MULTI_BLOCK_COUNT, 31, "mixed").tobytes()
        mc.validate_char_function(batch, [[0.3, 0.1, -0.2]])
        mc.compare_density(batch, DENSITY_EDGES)

    def test_char_function_bitwise_equal_to_serial_loop(self):
        batch = mc.sample_mixed(1.0, P3, MULTI_BLOCK_COUNT, seed=17)
        xis = np.random.default_rng(5).uniform(-1.0, 1.0, (5, 3))
        want_vals, want_ses = _serial_char_function(batch.points, xis, 1.0, P3.s)
        vals, ses = _estimates(mc.validate_char_function(batch, xis))
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(ses, want_ses)

    def test_density_counts_equal_across_worker_counts(self, monkeypatch):
        points = mc.sample_mixed(1.0, P3, MULTI_BLOCK_COUNT, seed=17).points
        want, _ = np.histogram(np.linalg.norm(points, axis=1), DENSITY_EDGES)
        xis = np.random.default_rng(5).uniform(-1.0, 1.0, (5, 3))
        for workers in (1, 2):
            density = _with_workers(monkeypatch, workers, mc.stream_checks, 1.0, P3,
                                    MULTI_BLOCK_COUNT, 17, xis, DENSITY_EDGES)[1]
            assert _shell_counts(density) == want.tolist()

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # a thread switch every 10 us interleaves the workers' Python steps
        xis = np.random.default_rng(5).uniform(-1.0, 1.0, (5, 3))
        want = _stored_checks(1.0, P3, MULTI_BLOCK_COUNT, 23, xis, DENSITY_EDGES)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = [_with_workers(monkeypatch, workers, mc.stream_checks, 1.0, P3,
                                 MULTI_BLOCK_COUNT, 23, xis, DENSITY_EDGES)[:2]
                   for workers in (1, 2, 4)]
        finally:
            sys.setswitchinterval(interval)
        assert all(reports == want for reports in got)


MC_EDGES = np.concatenate(([0.05], np.linspace(0.2, 2.0, 10)))  # mc-validate's


def _stored_checks(t, params, count, seed, xis, edges):
    """Both checks of the stored batch: the oracle of the streamed pass."""
    batch = mc.sample_mixed(t, params, count, seed)
    return mc.validate_char_function(batch, xis), mc.compare_density(batch, edges)


class TestStreamedPass:
    """``stream_checks`` reports what the checks of the stored batch report."""

    @pytest.mark.parametrize("params", [P2, P3], ids=["n2-s0.5", "n3-s0.25"])
    @pytest.mark.parametrize("count", [1000, mc._SUB_BATCH + 123, 2 * mc._SUB_BATCH,
                                       3 * mc._SUB_BATCH + 5, 10 ** 6])
    def test_reports_equal_stored_batch_checks(self, params, count):
        xis = np.random.default_rng(8).uniform(-1.0, 1.0, (5, params.n))
        char, density, timings = mc.stream_checks(1.0, params, count, 4, xis, MC_EDGES)
        assert (char, density) == _stored_checks(1.0, params, count, 4, xis, MC_EDGES)
        assert timings["pass_s"] >= timings["quadrature_s"] > 0
        assert timings["samples_per_s"] == count / timings["pass_s"]

    def test_reports_equal_across_worker_counts(self, monkeypatch):
        xis = np.random.default_rng(8).uniform(-1.0, 1.0, (5, 3))
        one, two = (_with_workers(monkeypatch, w, mc.stream_checks, 0.7, P3,
                                  MULTI_BLOCK_COUNT, 31, xis, DENSITY_EDGES)[:2]
                    for w in (1, 2))
        assert one == two
        assert one == _stored_checks(0.7, P3, MULTI_BLOCK_COUNT, 31, xis, DENSITY_EDGES)

    def test_memory_holds_no_points_array(self):
        # the stored batch's points alone take 24 MB here
        xis = np.random.default_rng(20).uniform(-1.0, 1.0, (5, 3))
        assert _peak_bytes(mc.stream_checks, 1.0, P3, 10 ** 6, 19, xis, MC_EDGES) < 16e6

    @pytest.mark.parametrize("t, count, message", [
        (1.0, 0, "count must be at least 1, got 0"),
        (1.0, 1, "a standard error needs count >= 2, got count 1"),
        (np.nan, 1000, "t must be finite and positive, got nan"),
        (np.inf, 1000, "t must be finite and positive, got inf"),
        (0.0, 1000, "t must be finite and positive, got 0.0"),
        (-1.0, 1000, "t must be finite and positive, got -1.0"),
    ])
    def test_bad_input_raises_before_any_draw(self, monkeypatch, t, count, message):
        def refuse(*args):
            raise AssertionError("drew samples or kernel values")

        monkeypatch.setattr(mc, "_sample_chunk", refuse)
        monkeypatch.setattr(mc, "heat_kernel", refuse)
        with pytest.raises(ValueError, match=message):
            mc.stream_checks(t, P2, count, 0, [[0.3, 0.1]], MC_EDGES)


class TestShellRadii:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_radii_bitwise_equal_to_norm(self, n):
        # Cauchy rows spread the squares over many orders of magnitude, and
        # the last of the three blocks is partial
        points = np.random.default_rng(n).standard_cauchy((2 * mc._BLOCK + 123, n))
        kept = points.copy()
        edges = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 40)))
        blocks = mc._blocks(points)
        assert len(blocks[-1]) == 123
        for block in blocks:
            want = np.linalg.norm(block, axis=1)
            assert mc._radii(block).tobytes() == want.tobytes()
            assert np.array_equal(mc._shell_counts(block, edges),
                                  np.histogram(want, edges)[0])
        assert points.tobytes() == kept.tobytes()


CALIBRATION_PAIRS = [(1, 0.5), (2, 0.1), (2, 0.5), (3, 0.25), (3, 0.9)]


def test_mixed_sampler_calibration():
    # Under an exact sampler each of the 15 statistics of a call (5 frequencies,
    # 10 shells) is close to N(0, 1).  Over the 6 seeds and 5 pairs below that
    # is N = 450 statistics: the mean of z^2 has standard deviation sqrt(2/N)
    # = 0.067, so the RMS has about 0.033.  A call's five frequencies share its
    # samples, which makes the spread larger; [0.85, 1.15] is 4.5 of those
    # standard deviations each way.
    # P(|z| > 4.5) = 6.8e-6, so 450 statistics pass the 4.5 sigma bound with
    # probability 0.997 when the sampler is exact.
    sigmas = []
    for n, s in CALIBRATION_PAIRS:
        for seed in range(1, 7):
            xis = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, (5, n))
            char, density, _ = mc.stream_checks(1.0, KernelParams(n, s), 200_000, seed,
                                                xis, MC_EDGES)
            assert len(density["shells"]) == 10
            sigmas += [row["sigmas"] for row in char["frequencies"] + density["shells"]]
    sigmas = np.array(sigmas)
    assert 0.85 <= np.sqrt(np.mean(sigmas ** 2)) <= 1.15
    assert sigmas.max() <= 4.5
