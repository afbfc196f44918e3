"""Heat and Bessel kernels: identities, bounds, profiles and tabulation."""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special as sp

from mixlap import inversion
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

    def test_poisson_far_from_the_origin(self):
        # Wynn on the last 40 of all 400 partial sums misses the tolerance
        # here (error ~1.5e-8); the sum has converged long before the cap
        t1, x = 0.21304484943643734, 2.677857259815627
        got = K.heat_kernel_two_scale(x, t1, 0.0, KernelParams(1, 0.5))
        exact = 2.0 * t1 / (t1 ** 2 + 4.0 * np.pi ** 2 * x ** 2)
        assert got == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("t1", [0.3, 0.7, 1.5, 2.5])
    def test_poisson_to_roundoff(self, t1):
        # two agreeing Wynn extrapolations land at roundoff here, far inside
        # the 1e-8 tolerance; stopping once the terms fall below 5% of the
        # tolerance lands up to 4e-11 off
        radii = np.geomspace(0.05, 2.5, 7)
        got = K.heat_kernel_two_scale(radii, t1, 0.0, KernelParams(1, 0.5))
        exact = 2.0 * t1 / (t1 ** 2 + 4.0 * np.pi ** 2 * radii ** 2)
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0)

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

    def test_scaling_identities_to_roundoff(self):
        # kernel-verify's seed-0 points at (3, 0.25): each branch stops its
        # own Hankel sums, so each stop must land at roundoff of the limit
        params = KernelParams(3, 0.25)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, t = rng.uniform(0.1, 2.0), rng.uniform(0.2, 5.0)
            direct = K.heat_kernel(x, t, params)
            for branch in ("2s", "2"):
                assert K.heat_kernel_rescaled(x, t, params, branch=branch) == pytest.approx(
                    direct, rel=1e-11, abs=0
                )

    def test_nonnegative_nonincreasing(self):
        radii = np.linspace(0.0, 6.0, 40)
        vals = np.array([K.heat_kernel(r, 1.0, P2) for r in radii])
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_mass(self):
        for t in (0.5, 1.0, 2.0):
            assert K.heat_kernel_mass(t, P2) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("t, n, s", [
        *(pytest.param(t, 3, 0.25, id=str(t)) for t in (0.5, 1.0, 2.0)),
        *(pytest.param(t, 2, 0.1, id=f"n2-s0.1-{t}") for t in (0.5, 1.0, 2.0)),
    ])
    def test_mass_with_a_slow_tail(self, t, n, s):
        # at s = 0.25 the tail beyond R = 30 holds about 1% of the mass; its
        # first far-field term alone left 1.3e-2 at t = 2.  At s = 0.1 the
        # series terms shrink only like (t 30^{-0.2})^j / j!, about 1 at t = 2
        assert K.heat_kernel_mass(t, KernelParams(n, s)) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("n, s", [(1, 0.3), (2, 0.5), (3, 0.75)])
    def test_far_field_leading_term_is_the_tail_constant(self, n, s):
        params = KernelParams(n, s)
        assert -K._far_field_coefficient(2.0 * s, n) == pytest.approx(
            K.heat_tail_constant(params), rel=1e-14, abs=0)

    def test_far_field_coefficient_vanishes_at_even_integers(self):
        for a in (2.0, 4.0):
            assert K._far_field_coefficient(a, 3) == 0.0

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


class TestTinyRadii:
    """A rational kernel's partition ends near max_zeros / (2 |x|); below
    |x| ~ 1.5e-152 (400 zeros) its symbol's r^2 would overflow there."""

    @pytest.mark.parametrize("x", [1e-155, 1e-160, 1e-300, 1e-304, 1e-307, 5e-324])
    @pytest.mark.parametrize("n", [2, 3])
    def test_refused_before_any_quadrature(self, n, x, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(K, "_invert", no_quadrature)
        params = KernelParams(n, 0.5)
        message = re.escape(f"|x| = {x:g} is too small")
        for kernel in (K.bessel_kernel, K.resolvent_multiplier_kernel,
                       lambda r, p: K.bessel_kernel_shifted(r, 0.5, p)):
            with pytest.raises(ValueError, match=message):
                kernel(x, params)
            with pytest.raises(ValueError, match=message):
                kernel(np.array([1.0, x]), params)

    def test_values_down_to_the_floor(self):
        # near the origin K(x) = pi / |x| at n = 3, and 2 pi ln(1 / |x|) plus
        # a constant at n = 2
        for x in (1e-100, 1e-150, 1e-151, 1.6e-152):
            assert K.bessel_kernel(x, P3) == pytest.approx(np.pi / x, rel=1e-12)
        step = K.bessel_kernel(1e-151, P2) - K.bessel_kernel(1e-150, P2)
        assert step == pytest.approx(2.0 * np.pi * np.log(10.0), rel=1e-12)

    # (kernel, n, |x|): the value (~|x|^{2-n}, the resolvent's ~|x|^{1-n} at
    # s = 1/2) is inf there, or nan where the integrand's r^{n/2} overflows
    @pytest.mark.parametrize("kernel, n, x", [
        ("resolvent", 4, 1e-110), ("resolvent", 4, 1e-130), ("bessel", 5, 1e-110),
        ("bessel", 5, 1e-130), ("resolvent", 5, 1e-100), ("resolvent", 5, 1e-130)])
    def test_overflowing_value_is_refused(self, kernel, n, x):
        evaluate = {"bessel": K.bessel_kernel,
                    "resolvent": K.resolvent_multiplier_kernel}[kernel]
        params = KernelParams(n, 0.5)
        message = re.escape(f"|x| = {x:g} is too small")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(ValueError, match=message):
                evaluate(x, params)
            with pytest.raises(ValueError, match=message):
                evaluate(np.array([x, 1.0]), params)

    def test_values_at_n_4_and_5_down_to_their_overflow(self):
        # near the origin the Bessel kernel is C(-2) |x|^{2-n} (1 / |x|^2 at
        # n = 4), and the resolvent multiplier at s = 1/2 is C(-1) |x|^{1-n}
        P4, P5 = KernelParams(4, 0.5), KernelParams(5, 0.5)
        for x in (1e-100, 1e-130, 1.6e-152):
            assert K.bessel_kernel(x, P4) == pytest.approx(x ** -2, rel=1e-12)
        assert K.bessel_kernel(1e-100, P5) == pytest.approx(
            K._far_field_coefficient(-2.0, 5) * 1e300, rel=1e-12)
        assert K.resolvent_multiplier_kernel(1e-100, P4) == pytest.approx(
            K._far_field_coefficient(-1.0, 4) * 1e300, rel=1e-12)


class TestClosedFormBessel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kernels_match_the_jv_path(self, n, monkeypatch):
        # J_{n/2-1} in closed form (n = 1-4) against scipy's jv, on the same
        # quadrature points
        params = KernelParams(n, 0.37)
        evaluators = [
            lambda x: K.heat_kernel(x, 1.0, params),
            lambda x: K.bessel_kernel(x, params),
            lambda x: K.resolvent_multiplier_kernel(x, params),
        ]
        radii = (0.01, 0.3, 1.5)
        got = [ev(x) for ev in evaluators for x in radii]
        monkeypatch.setattr(inversion, "bessel_j", lambda nu, x: sp.jv(nu, x))
        ref = [ev(x) for ev in evaluators for x in radii]
        assert min(abs(r) for r in ref) > 1e-4
        assert got == pytest.approx(ref, rel=1e-10, abs=0)


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
                                   "max_zeros": DEFAULT_QUAD.max_zeros}

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

    @pytest.mark.parametrize("radii", [[2.0, 1.0], [1.0, 1.0], [0.5, 2.0, 1.0]])
    def test_radius_order_checked_before_any_kernel_value(self, monkeypatch, radii):
        def no_kernel(*args, **kwargs):
            raise AssertionError("kernel evaluated")

        monkeypatch.setattr(K, "bessel_kernel", no_kernel)
        with pytest.raises(ValueError, match="strictly increasing"):
            K.tabulate_kernel("bessel", radii, P2)

    def test_one_kernel_call_for_all_radii(self, monkeypatch):
        calls = []
        heat = K.heat_kernel
        monkeypatch.setattr(K, "heat_kernel", lambda x, *a: calls.append(x) or heat(x, *a))
        radii = np.array([0.05, 1.0, 30.0])
        prof = K.tabulate_kernel("heat", radii, P2, t=1.0)
        assert len(calls) == 1 and np.array_equal(calls[0], radii)
        assert prof.values.tolist() == [heat(x, 1.0, P2) for x in radii]


def kernel_evaluators(params):
    """Every kernel, as a function of |x| alone."""
    return {
        "heat": lambda x: K.heat_kernel(x, 1.0, params),
        "heat-two-scale": lambda x: K.heat_kernel_two_scale(x, 0.7, 0.2, params),
        "bessel": lambda x: K.bessel_kernel(x, params),
        "bessel-shifted": lambda x: K.bessel_kernel_shifted(x, 0.5, params),
        "resolvent-multiplier": lambda x: K.resolvent_multiplier_kernel(x, params),
        "ball": lambda x: K.bessel_kernel_ball(x, 1.0, params),
    }


class TestBatches:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_batch_bitwise_equal_to_one_radius_calls(self, n, s):
        # radii from the three bands, unordered and repeated.  For the heat
        # kernels |x| = 0.01 ends at its graded head (r_max before the first
        # zero), the others are cut at r_max, and |x| = 0 is the symbol's
        # integral; the ball's convolution is evaluated only outside the ball
        params = KernelParams(n, s)
        for label, kernel in kernel_evaluators(params).items():
            radii = [30.0, 0.6, 1.0, 0.6] if label == "ball" else [30.0, 0.05, 1.0, 0.05]
            if label.startswith("heat"):
                radii += [0.0, 0.01]
            got = kernel(np.array(radii))
            assert got.tolist() == [kernel(x) for x in radii], label

    def test_scalar_in_scalar_out(self):
        for kernel in kernel_evaluators(P2).values():
            assert np.ndim(kernel(1.0)) == 0
            assert kernel(np.array([1.0])).shape == (1,)

    def test_domain_errors_in_a_batch(self):
        with pytest.raises(ValueError):
            K.bessel_kernel(np.array([1.0, 0.0]), P2)
        with pytest.raises(ValueError):
            K.resolvent_multiplier_kernel(np.array([1.0, -1.0]), P2)
        with pytest.raises(ValueError):
            K.heat_kernel(np.array([1.0, -1.0]), 1.0, P2)


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

    def test_tabulation_memory(self, monkeypatch):
        # the spatial nodes go through the Hankel engine 16 radii at a time.
        # In one pass the default 1,932 held 88 MiB; they peak at 1.2 MiB, as
        # do the 492 here (40 panels, 31 chunks, 4x faster under tracemalloc)
        peaks = []
        tabulate = K.tabulate_kernel

        def traced(label, radii, *args, **kwargs):
            tracemalloc.start()
            try:
                prof = tabulate(label, radii, *args, **kwargs)
                peaks.append((len(radii), tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return prof

        monkeypatch.setattr(K, "tabulate_kernel", traced)
        monkeypatch.setattr(K, "_PLANCHEREL_PANELS", 40)
        K.plancherel_pairing(P2, SIGMAS)
        (count, peak), = peaks
        assert count == 492
        assert peak < 4 * 2 ** 20

    def test_one_tabulation_for_all_sigmas(self, monkeypatch):
        calls = []
        tabulate = K.tabulate_kernel
        monkeypatch.setattr(K, "tabulate_kernel",
                            lambda *a, **kw: calls.append(a) or tabulate(*a, **kw))
        monkeypatch.setattr(K, "_PLANCHEREL_PANELS", 10)
        pairs = K.plancherel_pairing(P2, SIGMAS)
        assert len(calls) == 1
        assert pairs == [K.plancherel_pairing(P2, (sigma,))[0] for sigma in SIGMAS]
