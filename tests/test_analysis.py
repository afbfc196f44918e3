"""Qualitative analysis: radial averaging, symmetry, decay fits, barriers."""

import numpy as np
import pytest
from scipy import integrate

from mixlap.errors import MixlapError
from mixlap.inversion import sphere_surface_area
from mixlap.kernels import RadialProfile, bessel_kernel, bessel_kernel_shifted
from mixlap.params import KernelParams, QuadratureSpec
from mixlap.special import gamma
from mixlap import analysis as A
from mixlap import spectral as S

P2 = KernelParams(2, 0.5)
GRID = S.GridSpec(2, 10.0, 64)


def radial_gaussian(grid, width=3.0):
    return S.RealField(grid, np.exp(-grid.radius() ** 2 / width ** 2))


class TestRadialAverage:
    def test_constant_field(self):
        prof = A.radial_average(S.RealField(GRID, np.full(GRID.shape, 4.2)))
        assert np.allclose(prof.values, 4.2)

    def test_painted_radial_round_trip(self):
        # paint a smooth radial function on the grid and read it back
        center = (GRID.N // 2, GRID.N // 2)
        r = GRID.radius(center=(0.0, 0.0))
        u = S.RealField(GRID, np.exp(-r ** 2 / 9.0))
        prof = A.radial_average(u, center=center)
        exact = np.exp(-prof.radii ** 2 / 9.0)
        inner = prof.radii < GRID.L / 2
        assert np.abs(prof.values[inner] - exact[inner]).max() < 1e-3

    def test_off_center_spike(self):
        data = np.zeros(GRID.shape)
        data[40, 32] = 1.0
        u = S.RealField(GRID, data)
        center = (32, 32)
        prof = A.radial_average(u, center=center)
        spike_r = 8 * GRID.spacing
        assert abs(prof.radii[np.argmax(prof.values)] - spike_r) <= GRID.spacing


class TestSymmetryDeviation:
    def test_exactly_radial(self):
        u = radial_gaussian(GRID)
        center = (GRID.N // 2, GRID.N // 2)
        assert A.symmetry_deviation(u, center=center) < 1e-12

    def test_dipole_perturbation(self):
        eps = 1e-3
        X, _ = GRID.meshgrid()
        base = np.exp(-GRID.radius() ** 2 / 9.0)
        u = S.RealField(GRID, base + eps * X * base)
        center = (GRID.N // 2, GRID.N // 2)
        dev = A.symmetry_deviation(u, center=center)
        scale = eps * np.abs(X * base).max() / u.data.max()
        assert 0.5 * scale <= dev <= 2.0 * scale

    def test_r_max_guard(self):
        u = radial_gaussian(GRID)
        # corrupt one member of a far two-point orbit; the guarded audit
        # must not see it
        u.data[0, GRID.N // 2] += 0.5
        center = (GRID.N // 2, GRID.N // 2)
        assert A.symmetry_deviation(u, center=center) > 0.1
        assert A.symmetry_deviation(u, center=center, r_max=5.0) < 1e-12

    def test_empty_window_rejected(self):
        u = radial_gaussian(GRID)
        with pytest.raises(ValueError):
            A.symmetry_deviation(u, r_max=-1.0)


class TestDecayFit:
    def test_pure_power_law(self):
        r = np.geomspace(2.0, 50.0, 30)
        prof = RadialProfile(radii=r, values=r ** -3.0, params=P2, label="x")
        fit = A.decay_fit(prof, (2.0, 50.0))
        assert fit.slope == pytest.approx(-3.0, abs=1e-12)
        assert fit.c_lower == pytest.approx(1.0, rel=1e-12)
        assert fit.c_upper == pytest.approx(1.0, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.expected_slope == -3.0

    def test_nonpositive_window_is_a_finding(self):
        r = np.linspace(1.0, 10.0, 20)
        vals = r ** -3.0
        vals[7] = -1e-9
        prof = RadialProfile(radii=r, values=vals, params=P2, label="x")
        with pytest.raises(MixlapError):
            A.decay_fit(prof, (1.0, 10.0))

    def test_too_few_radii(self):
        r = np.geomspace(2.0, 50.0, 5)
        prof = RadialProfile(radii=r, values=r ** -3.0, params=P2, label="x")
        with pytest.raises(ValueError):
            A.decay_fit(prof, (2.0, 50.0))

    def test_bad_window(self):
        r = np.geomspace(2.0, 50.0, 30)
        prof = RadialProfile(radii=r, values=r ** -3.0, params=P2, label="x")
        with pytest.raises(ValueError):
            A.decay_fit(prof, (10.0, 10.0))

    def test_tabulated_bessel_kernel_slope(self):
        from mixlap.kernels import tabulate_kernel

        prof = tabulate_kernel("bessel", np.geomspace(5.0, 50.0, 30), P2)
        fit = A.decay_fit(prof, (5.0, 50.0))
        assert fit.slope == pytest.approx(-3.0, abs=0.05)


class TestBarriers:
    def test_subsolution_lower_bound(self):
        prof = A.barrier_subsolution(P2)
        assert np.all(prof.values > 0)
        comp = prof.values * prof.radii ** 3.0
        assert comp.min() > 0.01

    def test_supersolution_upper_bound(self):
        prof = A.barrier_supersolution(P2)
        assert np.all(prof.values > 0)
        comp = prof.values * prof.radii ** 3.0
        assert np.isfinite(comp.max())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_monotonicity_envelopes(self, n):
        # vol(B_1/2) K(r + 1/2) <= barrier(r) <= vol(B_1/2) K(r - 1/2)
        params = KernelParams(n, 0.5)
        radii = np.array([2.0, 5.0, 12.0, 30.0])
        prof = A.barrier_subsolution(params, radii=radii)
        vol = np.pi ** (n / 2.0) * 0.5 ** n / gamma(n / 2.0 + 1.0)
        for r, v in zip(radii, prof.values):
            assert v <= vol * bessel_kernel(r - 0.5, params) * (1 + 1e-6)
            assert v >= vol * bessel_kernel(r + 0.5, params) * (1 - 1e-6)

    @pytest.mark.parametrize("a", [1.0, 0.5])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ball_convolution_matches_a_spatial_double_integral(self, n, a):
        # |S^{n-2}| int_0^rho int_0^pi K_a(|x - y|) q^{n-1} sin^{n-2}(theta)
        # dtheta dq, with |y| = q and theta the angle between x and y; this
        # integrates kernel values in space and never transforms the ball
        params, x, rho = KernelParams(n, 0.5), 10.0, 0.5
        oracle, _ = integrate.dblquad(
            lambda theta, q: bessel_kernel_shifted(
                np.sqrt(x * x + q * q - 2.0 * x * q * np.cos(theta)), a, params)
            * q ** (n - 1) * np.sin(theta) ** (n - 2),
            0.0, rho, 0.0, np.pi, epsrel=1e-10,
        )
        oracle *= sphere_surface_area(n - 1)  # 2 for n = 2, the two points of S^0
        barrier = A.barrier_subsolution if a == 1.0 else A.barrier_supersolution
        got = barrier(params, radii=np.array([x])).values[0]
        assert got == pytest.approx(oracle, rel=1e-9, abs=0)

    def test_supersolution_envelope(self):
        radii = np.array([2.0, 8.0, 25.0])
        prof = A.barrier_supersolution(P2, radii=radii)
        vol = np.pi * 0.25
        for r, v in zip(radii, prof.values):
            assert v >= vol * bessel_kernel_shifted(r + 0.5, 0.5, P2) * (1 - 1e-6)

    def test_refinement_stability(self):
        coarse = A.barrier_subsolution(P2)
        fine = A.barrier_subsolution(P2, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14,
                                                        max_zeros=800))
        c_coarse = (coarse.values * coarse.radii ** 3.0).min()
        c_fine = (fine.values * fine.radii ** 3.0).min()
        assert abs(c_fine - c_coarse) / c_fine < 0.05

    def test_radii_must_exceed_one(self):
        with pytest.raises(ValueError):
            A.barrier_subsolution(P2, radii=np.array([0.5, 2.0]))


class TestSmoothnessDiagnostic:
    def test_second_differences_stable_under_refinement(self):
        # surrogate consistency check: curvature of the ground state does not
        # blow up as the grid refines
        from mixlap import solver as V

        cfg = V.SolverConfig(p=3.0, tol_residual=1e-10)
        curvatures = []
        for N in (64, 128):
            grid = S.GridSpec(2, 15.0, N)
            u, rep = V.solve_ground_state(grid, P2, cfg)
            assert rep.converged
            h = grid.spacing
            d2 = (np.roll(u.data, 1, 0) - 2 * u.data + np.roll(u.data, -1, 0)) / h ** 2
            curvatures.append(np.abs(d2).max())
        assert curvatures[1] < 2.0 * curvatures[0] + 1.0


class TestReports:
    def test_check_report_and_write(self, tmp_path):
        import json

        rec = A.check_report("demo", 0.5, 1.0, True, window=(1.0, 2.0), extra_info=7)
        assert rec["pass"] is True
        assert rec["window"] == [1.0, 2.0]
        assert rec["extra_info"] == 7
        path = tmp_path / "report.json"
        A.write_report(path, [rec])
        assert json.loads(path.read_text())[0]["check"] == "demo"
