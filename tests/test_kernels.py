"""Heat and Bessel kernels: identities, bounds, profiles and tabulation."""

import json

import numpy as np
import pytest

from mixlap import kernels as K
from mixlap.params import DEFAULT_QUAD, KernelParams

P2 = KernelParams(2, 0.5)
P3 = KernelParams(3, 0.5)


class TestHeatKernel:
    def test_gaussian_limit(self):
        # t1 = 0 collapses to the classical heat kernel
        for n in (1, 2, 3):
            got = K.heat_kernel_two_scale(0.7, 0.0, 1.0, KernelParams(n, 0.5))
            exact = np.pi ** (n / 2.0) * np.exp(-np.pi ** 2 * 0.49)
            assert got == pytest.approx(exact, rel=1e-8)

    def test_poisson_limit(self):
        # t2 = 0, s = 1/2, n = 1 is the Poisson kernel; x = 0 gives 2/t1
        got = K.heat_kernel_two_scale(0.0, 1.0, 0.0, KernelParams(1, 0.5))
        assert got == pytest.approx(2.0, rel=1e-8)

    def test_x0_value(self):
        # independent adaptive quadrature of the x = 0 integral
        from scipy import integrate

        got = K.heat_kernel(0.0, 1.0, KernelParams(1, 0.5))
        ref, _ = integrate.quad(lambda r: np.exp(-(r + r * r)), 0, np.inf)
        assert got == pytest.approx(2.0 * ref, rel=1e-8)

    def test_scaling_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            x = rng.uniform(0.05, 2.0)
            t = rng.uniform(0.1, 10.0)
            direct = K.heat_kernel(x, t, P2)
            for branch in ("2s", "2"):
                assert K.heat_kernel_rescaled(x, t, P2, branch=branch) == pytest.approx(
                    direct, rel=1e-6
                )

    def test_nonnegative_nonincreasing(self):
        radii = np.linspace(0.0, 6.0, 40)
        vals = np.array([K.heat_kernel(r, 1.0, P2) for r in radii])
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_mass(self):
        for t in (0.5, 1.0, 2.0):
            assert K.heat_kernel_mass(t, P2, r_max=30.0) == pytest.approx(1.0, abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            K.heat_kernel_two_scale(1.0, 0.0, 0.0, P2)
        with pytest.raises(ValueError):
            K.heat_kernel(1.0, 0.0, P2)
        with pytest.raises(ValueError):
            K.heat_kernel_two_scale(1.0, -0.5, 1.0, P2)


class TestAsymptoticConstants:
    def test_alpha_closed_forms(self):
        assert K.asymptotic_alpha(KernelParams(1, 0.5)) == pytest.approx(2.0, rel=1e-12)
        assert K.asymptotic_alpha(P2) == pytest.approx(2.0 * np.pi, rel=1e-12)

    def test_tail_constant_units(self):
        # alpha is stated for the unitary-frequency radius 2 pi |x|
        pw = P2.n + 2 * P2.s
        assert K.heat_tail_constant(P2) == pytest.approx(
            K.asymptotic_alpha(P2) / (2 * np.pi) ** pw, rel=1e-13
        )

    def test_compensated_kernel_approaches_tail_constant(self):
        tc = K.heat_tail_constant(P2)
        pw = P2.n + 2 * P2.s
        vals = [x ** pw * K.heat_kernel_two_scale(x, 1.0, 0.5, P2) for x in (20, 100)]
        errs = [abs(v - tc) / tc for v in vals]
        assert errs[1] < errs[0]
        assert errs[1] < 0.01


class TestBesselKernel:
    def test_shift_one_is_bessel(self):
        for r in (0.3, 1.0, 7.0):
            assert K.bessel_kernel_shifted(r, 1.0, P2) == pytest.approx(
                K.bessel_kernel(r, P2), rel=1e-9
            )

    def test_time_integral_cross_check(self):
        for r in np.geomspace(0.3, 10.0, 5):
            a = K.bessel_kernel(r, P2)
            b = K.bessel_kernel_time_integral(r, P2)
            assert a == pytest.approx(b, rel=1e-6)

    def test_two_sided_tail(self):
        pw = P2.n + 2 * P2.s
        comp = [r ** pw * K.bessel_kernel(r, P2) for r in np.geomspace(1, 50, 12)]
        assert min(comp) > 0.0
        assert max(comp) / min(comp) < 10.0

    def test_shifted_positive_nonincreasing(self):
        radii = np.geomspace(0.1, 20.0, 25)
        vals = np.array([K.bessel_kernel_shifted(r, 0.5, P2) for r in radii])
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_origin_singularity_rejected(self):
        with pytest.raises(ValueError):
            K.bessel_kernel(0.0, P2)
        with pytest.raises(ValueError):
            K.bessel_kernel_shifted(1.0, 0.0, P2)

    def test_near_origin_lower_bound_n3(self):
        # K(x) >= C/|x|^{n-2} near the origin for n = 3
        rr = np.geomspace(1e-3, 1e-2, 10)
        vals = np.array([K.bessel_kernel(r, P3) for r in rr])
        slope = np.polyfit(np.log(rr), np.log(vals), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)


class TestResolventMultiplier:
    def test_symbol_endpoints(self):
        s = P2.s
        sym = lambda r: (1 + r ** (2 * s)) / (1 + r ** 2 + r ** (2 * s))
        assert sym(0.0) == 1.0
        assert sym(1e8) < 1e-7

    def test_integrable(self):
        from mixlap.inversion import sphere_surface_area

        def l1(rmax):
            rr = np.geomspace(1e-3, rmax, 120)
            vals = np.array([abs(K.resolvent_multiplier_kernel(r, P2)) for r in rr])
            return sphere_surface_area(2) * np.trapezoid(vals * rr, rr)

        a, b = l1(25.0), l1(50.0)
        assert (b - a) / a < 0.01

    def test_tail_decay_rate(self):
        rr = np.geomspace(10.0, 50.0, 12)
        vals = np.array([abs(K.resolvent_multiplier_kernel(r, P2)) for r in rr])
        slope = np.polyfit(np.log(rr), np.log(vals), 1)[0]
        # must decay at least as fast as |x|^{-(n+1-s)}
        assert slope < -(P2.n + 1 - P2.s) + 0.1


class TestHeatBounds:
    def test_report_passes_on_regime_points(self):
        points = [(3.0, 2.0), (4.0, 1.5), (0.5, 0.3), (2.0, 0.01), (1.0, 5.0)]
        rep = K.heat_bound_check(points, P2)
        assert rep["pass"]
        assert np.isfinite(rep["upper_ratio_max"])
        assert rep["lower_ratio_min"] > 0

    def test_rejects_invalid_points(self):
        rep = K.heat_bound_check([(0.0, 1.0), (1.0, -2.0), (2.0, 1.5)], P2)
        assert len(rep["rejected"]) == 2

    def test_upper_bound_small_t_sweep(self):
        # H <= C1 t^s / |x|^{n+2s} as t decreases at fixed x, single constant
        x = 2.0
        pw = P2.n + 2 * P2.s
        ratios = [
            K.heat_kernel(x, t, P2) / (t ** P2.s / x ** pw)
            for t in (0.5, 0.2, 0.1, 0.05)
        ]
        assert max(ratios) < 10.0


class TestRadialProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            K.RadialProfile(radii=[1.0, 1.0], values=[1.0, 2.0], params=P2, label="x")
        with pytest.raises(ValueError):
            K.RadialProfile(radii=[1.0, 2.0], values=[1.0, np.nan], params=P2, label="x")

    def test_csv_round_trip(self, tmp_path):
        prof = K.RadialProfile(
            radii=np.array([1.0, 2.0, 4.0]),
            values=np.array([0.3, 0.1, 1.0 / 3.0]),
            params=P2,
            label="demo",
        )
        path = tmp_path / "demo.csv"
        prof.write_csv(path, quad=DEFAULT_QUAD)
        assert path.read_text().splitlines()[0] == "radius,value"
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], prof.radii)
        assert np.array_equal(rows[:, 1], prof.values)  # %.17g keeps every bit
        sidecar = json.loads((tmp_path / "demo.json").read_text())
        assert (sidecar["label"], sidecar["n"], sidecar["s"]) == ("demo", 2, 0.5)
        assert sidecar["quad"] == {"rel_tol": DEFAULT_QUAD.rel_tol,
                                   "abs_tol": DEFAULT_QUAD.abs_tol,
                                   "max_zeros": DEFAULT_QUAD.max_zeros,
                                   "tail_accel": DEFAULT_QUAD.tail_accel}

    def test_monotonicity_probe(self):
        prof = K.RadialProfile(
            radii=np.array([1.0, 2.0]), values=np.array([0.1, 0.3]),
            params=P2, label="x",
        )
        assert not prof.is_nonneg_nonincreasing()


class TestTabulation:
    def test_unknown_label(self):
        with pytest.raises(ValueError):
            K.tabulate_kernel("nope", np.array([1.0]), P2)


SIGMAS = (0.5, 1.0, 2.0)


class TestPlancherel:
    @pytest.fixture(scope="class")
    def pairs(self):
        # one Bessel tabulation serves every sigma
        return dict(zip(SIGMAS, K.plancherel_pairing(P2, SIGMAS)))

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_identity(self, pairs, sigma):
        spatial, frequency = pairs[sigma]
        assert spatial == pytest.approx(frequency, rel=1e-6)

    def test_one_tabulation_for_all_sigmas(self, monkeypatch):
        calls = []
        tabulate = K.tabulate_kernel
        monkeypatch.setattr(K, "tabulate_kernel",
                            lambda *a, **kw: calls.append(a) or tabulate(*a, **kw))
        pairs = K.plancherel_pairing(P2, SIGMAS, n_panels=10)
        assert len(calls) == 1
        assert pairs == [K.plancherel_pairing(P2, (sigma,), n_panels=10)[0]
                         for sigma in SIGMAS]
