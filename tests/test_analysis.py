"""Qualitative analysis: radial averaging, symmetry, decay fits, barriers."""

import functools
import math

import numpy as np
import pytest
from scipy import integrate, special

from mixlap.errors import MixlapError
from mixlap.fileio import write_json
from mixlap.inversion import sphere_surface_area
from mixlap.kernels import (
    RadialProfile,
    bessel_kernel,
    bessel_kernel_ball,
    bessel_kernel_shifted,
)
from mixlap.params import KernelParams, QuadratureSpec
from mixlap.special import gamma
from mixlap import analysis as A
from mixlap import kernels as K
from mixlap import spectral as S

import gridcoords

P2 = KernelParams(2, 0.5)
GRID = S.GridSpec(2, 10.0, 64)


def ball_double_integral(x, a, params, rho=0.5):
    """(K_a * 1_{B_rho})(|x|) as a spatial double integral of kernel values.

    |S^{n-2}| int_0^rho int_0^pi K_a(|x - y|) q^{n-1} sin^{n-2}(theta) dtheta dq,
    with |y| = q and theta the angle between x and y; it never transforms the
    ball.  Kernel values are memoized by distance: at x = 0 every theta node
    of a q has the same one.
    """
    n = params.n
    kernel = functools.lru_cache(maxsize=None)(
        lambda d: bessel_kernel_shifted(d, a, params))
    value, _ = integrate.dblquad(
        lambda theta, q: kernel(np.sqrt(x * x + q * q - 2.0 * x * q * np.cos(theta)))
        * q ** (n - 1) * np.sin(theta) ** (n - 2),
        0.0, rho, 0.0, np.pi, epsrel=1e-10,
    )
    return value * sphere_surface_area(n - 1)  # 2 for n = 2, the two points of S^0


def ball_shell_integral(x, a, params, rho=0.5):
    """(K_a * 1_{B_rho})(|x|) as one integral over the distance r from x.

    The sphere of radius r about x lies in the ball for r <= rho - |x|; for
    |rho - |x|| < r < rho + |x| the part inside is the cap cos(phi) < c, with
    c = (rho^2 - |x|^2 - r^2) / (2 r |x|) and phi the angle to x, of measure
    |S^{n-2}| r^{n-1} int_{-1}^c (1 - t^2)^{(n-3)/2} dt, a regularized
    incomplete beta function.  Kernel values enter only at the distances r,
    so the singularity of K_a at y = x, which slows ``ball_double_integral``
    to tens of seconds near |x| = 0, sits at the end point r = 0.
    """
    n = params.n
    h = (n - 1) / 2.0
    cap = sphere_surface_area(n - 1) * 2.0 ** (n - 2) * special.beta(h, h)

    def inside(r):
        return bessel_kernel_shifted(r, a, params) * sphere_surface_area(n) * r ** (n - 1)

    def straddling(r):
        c = (rho * rho - x * x - r * r) / (2.0 * r * x)
        return (bessel_kernel_shifted(r, a, params) * r ** (n - 1)
                * cap * special.betainc(h, h, (1.0 + c) / 2.0))

    total = 0.0
    if x < rho:
        total += integrate.quad(inside, 0.0, rho - x, epsabs=0, epsrel=1e-11, limit=200)[0]
    if x > 0:
        total += integrate.quad(straddling, abs(rho - x), rho + x, epsabs=0, epsrel=1e-11,
                                limit=200)[0]
    return total


def radial_gaussian(grid, width=3.0):
    return S.RealField(grid, np.exp(-gridcoords.radius(grid) ** 2 / width ** 2))


class TestRadialAverage:
    def test_constant_field(self):
        prof = A.radial_average(S.RealField(GRID, np.full(GRID.shape, 4.2)), P2)
        assert np.allclose(prof.values, 4.2)

    def test_painted_radial_round_trip(self):
        # paint a smooth radial function about the grid's middle point, its
        # peak, and read it back
        r = gridcoords.radius(GRID)
        u = S.RealField(GRID, np.exp(-r ** 2 / 9.0))
        assert A.peak_index(u) == (GRID.N // 2, GRID.N // 2)
        prof = A.radial_average(u, P2)
        exact = np.exp(-prof.radii ** 2 / 9.0)
        inner = prof.radii < GRID.L / 2
        assert np.abs(prof.values[inner] - exact[inner]).max() < 1e-3

    def test_off_center_spike(self):
        # a spike 8 steps from the peak lands in the shell 8 steps out
        data = np.zeros(GRID.shape)
        data[32, 32] = 2.0
        data[40, 32] = 1.0
        prof = A.radial_average(S.RealField(GRID, data), P2)
        outer = np.flatnonzero(prof.values[1:]) + 1
        assert len(outer) == 1
        assert abs(prof.radii[outer[0]] - 8 * GRID.spacing) <= GRID.spacing

    @pytest.mark.parametrize("peak", [(64, 64), (37, 90)], ids=["peak", "off-peak"])
    def test_points_whole_steps_out_land_in_their_shell(self, peak):
        # spacing 14.6 / 128 is no binary fraction: float radii about the
        # middle point put 164 of the 16,384 points exactly m steps out into
        # shell m - 1, and 116 about (37, 90)
        grid = S.GridSpec(2, 7.3, 128)
        i, j = np.indices(grid.shape)
        keys = (i - peak[0]) ** 2 + (j - peak[1]) ** 2
        shell = np.vectorize(math.isqrt)(keys)
        # the exact shell index, negated so that the field peaks at ``peak``
        prof = A.radial_average(S.RealField(grid, -shell.astype(float)), P2)
        assert np.array_equal(-prof.values, np.arange(shell.max() + 1))
        steps = np.arange(1, shell.max() + 1)
        assert np.all(prof.radii[1:] >= steps * grid.spacing)
        assert np.all(prof.radii[1:] < (steps + 1) * grid.spacing)

    @pytest.mark.parametrize("which", ["gaussian", "n2", "n3"])
    def test_matches_float_coordinates_on_binary_spacings(self, solved_fields, which):
        u = {"gaussian": radial_gaussian(GRID),
             "n2": solved_fields[0], "n3": solved_fields[1]}[which]
        prof = A.radial_average(u, KernelParams(u.grid.n, 0.5))
        radii, values = float_coordinate_average(u)
        assert len(prof.radii) == len(radii)
        assert np.abs(prof.values - values).max() <= 1e-15 * np.abs(u.data).max()
        np.testing.assert_allclose(prof.radii[1:], radii[1:], rtol=1e-13, atol=0)
        assert prof.radii[0] == 0.0 and radii[0] == 0.0


def float_coordinate_average(u):
    """``radial_average`` as it was before exact orbit keys: float radii from
    the grid coordinates, binned by ``int(r / spacing)``, each shell at the
    mean radius of its points.

    Kept as the oracle of the integer-keyed shells on spacings that are binary
    fractions, where both put every point in the same shell.
    """
    ax = gridcoords.axis(u.grid)
    r = gridcoords.radius(u.grid, tuple(float(ax[i]) for i in A.peak_index(u))).ravel()
    which = (r / u.grid.spacing).astype(int)
    counts = np.bincount(which)
    mask = counts > 0
    radii = np.bincount(which, weights=r)[mask] / counts[mask]
    values = np.bincount(which, weights=u.data.ravel())[mask] / counts[mask]
    return radii, values


def rounded_radius_deviation(u, r_max=None):
    """``symmetry_deviation`` as it was before exact orbit keys: radii rounded
    to 1e-8, a stable sort, ``np.unique`` and ``reduceat``.

    Kept as the oracle of the integer-keyed grouping.
    """
    ax = gridcoords.axis(u.grid)
    coords = tuple(float(ax[i]) for i in A.peak_index(u))
    r = np.round(gridcoords.radius(u.grid, coords), 8).ravel()
    order = np.argsort(r, kind="stable")
    r_sorted, v_sorted = r[order], u.data.ravel()[order]
    _, start = np.unique(r_sorted, return_index=True)
    counts = np.diff(np.append(start, len(v_sorted)))
    means = np.add.reduceat(v_sorted, start) / counts
    dev = np.abs(v_sorted - np.repeat(means, counts))
    if r_max is not None:
        dev = dev[r_sorted <= r_max]
    return float(dev.max() / np.abs(u.data).max())


@pytest.fixture(scope="module")
def solved_fields():
    """A 2-D and a 3-D ground state, each solved from a start shifted off the
    box center so that its peak is not the grid's middle point."""
    from mixlap import solver as V

    fields = []
    for n, N in ((2, 64), (3, 32)):
        grid = S.GridSpec(n, 8.0, N)
        params = KernelParams(n, 0.5)
        cfg = V.SolverConfig(p=3.0)
        start = V.initial_field(grid, cfg)
        start = S.RealField(grid, np.roll(start.data, (3,) + (-2,) * (n - 1),
                                          axis=tuple(range(n))))
        fields.append(V.solve_ground_state(grid, params, cfg, start)[0])
    return fields


class TestSymmetryDeviation:
    @pytest.mark.parametrize("which", [0, 1], ids=["n2", "n3"])
    @pytest.mark.parametrize("r_max", [None, 8.0 / 3.0])
    def test_matches_rounded_radius_oracle(self, solved_fields, which, r_max):
        # None: the oracle audits the whole box, which r_max = inf audits here
        u = solved_fields[which]
        got = A.symmetry_deviation(u, r_max=np.inf if r_max is None else r_max)
        want = rounded_radius_deviation(u, r_max=r_max)
        assert got > 0
        assert got == pytest.approx(want, rel=1e-10, abs=0)

    def test_orbit_keys_are_squared_grid_distances(self):
        data = np.zeros(GRID.shape)
        data[30, 33] = 1.0
        keys = A._orbit_keys(S.RealField(GRID, data))
        i, j = np.indices(GRID.shape)
        assert np.array_equal(keys, (i - 30) ** 2 + (j - 33) ** 2)

    def test_exactly_radial(self):
        u = radial_gaussian(GRID)
        assert A.symmetry_deviation(u, r_max=np.inf) < 1e-12

    def test_dipole_perturbation(self):
        eps = 1e-3
        X, _ = gridcoords.meshgrid(GRID)
        base = np.exp(-gridcoords.radius(GRID) ** 2 / 9.0)
        u = S.RealField(GRID, base + eps * X * base)
        assert A.peak_index(u) == (GRID.N // 2, GRID.N // 2)
        dev = A.symmetry_deviation(u, r_max=np.inf)
        scale = eps * np.abs(X * base).max() / u.data.max()
        assert 0.5 * scale <= dev <= 2.0 * scale

    def test_r_max_guard(self):
        u = radial_gaussian(GRID)
        # corrupt one member of a far two-point orbit; the guarded audit
        # must not see it
        u.data[0, GRID.N // 2] += 0.5
        assert A.symmetry_deviation(u, r_max=np.inf) > 0.1
        assert A.symmetry_deviation(u, r_max=5.0) < 1e-12

    def test_empty_window_rejected(self):
        u = radial_gaussian(GRID)
        with pytest.raises(ValueError):
            A.symmetry_deviation(u, r_max=-1.0)

    def test_zero_field_rejected(self):
        # 0 / 0 relative to the peak: an error, not a NaN and a RuntimeWarning
        u = S.RealField(GRID, np.zeros(GRID.shape))
        with pytest.raises(ValueError, match="field is zero everywhere"):
            A.symmetry_deviation(u, r_max=np.inf)


class TestDecayFit:
    def test_pure_power_law(self):
        r = np.geomspace(2.0, 50.0, 30)
        prof = RadialProfile(radii=r, values=r ** -3.0, params=P2, label="x")
        fit = A.decay_fit(prof, (2.0, 50.0), params=P2)
        assert fit.slope == pytest.approx(-3.0, abs=1e-12)
        assert fit.c_lower == pytest.approx(1.0, rel=1e-12)
        assert fit.c_upper == pytest.approx(1.0, rel=1e-12)
        assert fit.expected_slope == -3.0

    def test_nonpositive_window_is_a_finding(self):
        r = np.linspace(1.0, 10.0, 20)
        vals = r ** -3.0
        vals[7] = -1e-9
        prof = RadialProfile(radii=r, values=vals, params=P2, label="x")
        with pytest.raises(MixlapError):
            A.decay_fit(prof, (1.0, 10.0), params=P2)

    def test_too_few_radii(self):
        r = np.geomspace(2.0, 50.0, 5)
        prof = RadialProfile(radii=r, values=r ** -3.0, params=P2, label="x")
        with pytest.raises(ValueError):
            A.decay_fit(prof, (2.0, 50.0), params=P2)

    def test_bad_window(self):
        r = np.geomspace(2.0, 50.0, 30)
        prof = RadialProfile(radii=r, values=r ** -3.0, params=P2, label="x")
        with pytest.raises(ValueError):
            A.decay_fit(prof, (10.0, 10.0), params=P2)

    def test_tabulated_bessel_kernel_slope(self):
        from mixlap.kernels import tabulate_kernel

        prof = tabulate_kernel("bessel", np.geomspace(5.0, 50.0, 30), P2)
        fit = A.decay_fit(prof, (5.0, 50.0), params=P2)
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
        prof = A.barrier_subsolution(params)
        vol = np.pi ** (n / 2.0) * 0.5 ** n / gamma(n / 2.0 + 1.0)
        assert np.all(prof.values <= vol * bessel_kernel(prof.radii - 0.5, params) * (1 + 1e-6))
        assert np.all(prof.values >= vol * bessel_kernel(prof.radii + 0.5, params) * (1 - 1e-6))

    @pytest.mark.parametrize("a", [1.0, 0.5])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ball_convolution_matches_a_spatial_double_integral(self, n, a):
        # at the barriers' middle radius, 10 (2 * 25^(12/24))
        params = KernelParams(n, 0.5)
        barrier = A.barrier_subsolution if a == 1.0 else A.barrier_supersolution
        prof = barrier(params)
        x = prof.radii[12]
        assert x == pytest.approx(10.0, rel=1e-15)
        oracle = ball_double_integral(x, a, params)
        assert prof.values[12] == pytest.approx(oracle, rel=1e-9, abs=0)

    @pytest.mark.parametrize("n, x", [(3, 10.0), (4, 0.0)])
    def test_shell_oracle_matches_the_double_integral(self, n, x):
        params = KernelParams(n, 0.5)
        assert ball_shell_integral(x, 1.0, params) == pytest.approx(
            ball_double_integral(x, 1.0, params), rel=1e-9, abs=0)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ball_convolution_outside_the_ball(self, n, s):
        # from 0.1 outside the ball to the barriers' radii; the two differ by
        # 2.8e-10 at worst (n = 2, s = 0.1, |x| = 0.6)
        params = KernelParams(n, s)
        radii = np.array([0.6, 1.5, 4.0])
        got = bessel_kernel_ball(radii, 1.0, params)
        ref = [ball_shell_integral(x, 1.0, params) for x in radii]
        assert got == pytest.approx(ref, rel=1e-8, abs=0)

    @pytest.mark.parametrize("x", [0.5, 0.1, 0.0, np.array([2.0, 0.5]),
                                   np.array([0.0, 3.0])])
    def test_ball_convolution_is_refused_inside_its_ball(self, x, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(K, "_invert", no_quadrature)
        with pytest.raises(ValueError, match="outside its ball"):
            bessel_kernel_ball(x, 1.0, KernelParams(3, 0.5))

    def test_supersolution_envelope(self):
        prof = A.barrier_supersolution(P2)
        vol = np.pi * 0.25
        envelope = vol * bessel_kernel_shifted(prof.radii + 0.5, 0.5, P2)
        assert np.all(prof.values >= envelope * (1 - 1e-6))

    def test_refinement_stability(self):
        coarse = A.barrier_subsolution(P2)
        fine = A.barrier_subsolution(P2, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14,
                                                        max_zeros=800))
        c_coarse = (coarse.values * coarse.radii ** 3.0).min()
        c_fine = (fine.values * fine.radii ** 3.0).min()
        assert abs(c_fine - c_coarse) / c_fine < 0.05


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
        write_json(path, [rec])
        assert json.loads(path.read_text())[0]["check"] == "demo"
