"""Radial Fourier inversion engine against closed-form transforms."""

import numpy as np
import pytest

from mixlap import inversion, kernels
from mixlap.errors import AccuracyError
from mixlap.inversion import (
    radial_inverse_fourier,
    radial_symbol_integral,
    sphere_surface_area,
)
from mixlap.params import KernelParams, QuadratureSpec


def gaussian_symbol(t2):
    return lambda r: np.exp(-t2 * r * r)


class TestClosedForms:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t2", [0.5, 1.0, 2.0])
    def test_gaussian(self, n, t2):
        # inverse transform of e^{-t2 |xi|^2} is (pi/t2)^{n/2} e^{-pi^2 |x|^2 / t2}
        for x in (0.2, 0.8, 1.7):
            got = radial_inverse_fourier(gaussian_symbol(t2), x, n,
                                         envelope_scale=t2 ** -0.5)
            exact = (np.pi / t2) ** (n / 2.0) * np.exp(-np.pi ** 2 * x * x / t2)
            assert got == pytest.approx(exact, rel=1e-8)

    def test_poisson(self):
        # n = 1: inverse transform of e^{-t1 |xi|} is 2 t1 / (t1^2 + 4 pi^2 x^2)
        t1 = 1.5
        for x in (0.1, 0.6, 2.5):
            got = radial_inverse_fourier(lambda r: np.exp(-t1 * r), x, 1,
                                         envelope_scale=1.0 / t1)
            exact = 2.0 * t1 / (t1 ** 2 + 4.0 * np.pi ** 2 * x ** 2)
            assert got == pytest.approx(exact, rel=1e-8)

    def test_rational_n2(self):
        # inverse transform of 1/(1 + |xi|^2) in n = 2 is 2 pi K_0(2 pi |x|)
        from mixlap.special import bessel_k

        for x in (0.2, 0.5, 1.0):
            got = radial_inverse_fourier(lambda r: 1.0 / (1.0 + r * r), x, 2,
                                         envelope_scale=0.5, envelope_rel=0.5)
            exact = 2.0 * np.pi * bessel_k(0.0, 2.0 * np.pi * x)
            assert got == pytest.approx(exact, rel=1e-8)

    def test_origin_value(self):
        # x = 0 reduces to the plain radial integral of the symbol
        got = radial_inverse_fourier(gaussian_symbol(1.0), 0.0, 2)
        assert got == pytest.approx(np.pi, rel=1e-9)

    def test_symbol_integral(self):
        val = radial_symbol_integral(gaussian_symbol(2.0), 3)
        assert val == pytest.approx((np.pi / 2.0) ** 1.5, rel=1e-9)


class TestEngineContracts:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            radial_inverse_fourier(gaussian_symbol(1.0), -0.5, 2)

    def test_accuracy_error_carries_estimate(self):
        # plain summation of a slowly decaying envelope cannot meet tolerance
        quad = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_zeros=8,
                              tail_accel="none")
        with pytest.raises(AccuracyError) as exc:
            radial_inverse_fourier(lambda r: 1.0 / (1.0 + r * r), 0.3, 2,
                                   quad=quad, envelope_scale=0.5, envelope_rel=0.5)
        assert exc.value.achieved is not None
        assert exc.value.achieved > 0

    def test_loose_tolerance_plain_summation(self):
        # with acceleration disabled but a realistic budget, a decaying
        # envelope still converges by plain summation
        quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_zeros=200,
                              tail_accel="none")
        got = radial_inverse_fourier(gaussian_symbol(1.0), 0.5, 2, quad=quad,
                                     envelope_scale=1.0)
        exact = np.pi * np.exp(-np.pi ** 2 * 0.25)
        assert got == pytest.approx(exact, rel=1e-6)

    def test_r_max_truncation(self):
        # truncating far beyond the envelope support changes nothing
        a = radial_inverse_fourier(gaussian_symbol(1.0), 0.7, 2, envelope_scale=1.0)
        b = radial_inverse_fourier(gaussian_symbol(1.0), 0.7, 2, envelope_scale=1.0,
                                   r_max=12.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_sphere_surface_area(self):
        assert sphere_surface_area(2) == pytest.approx(2.0 * np.pi, rel=1e-14)
        assert sphere_surface_area(3) == pytest.approx(4.0 * np.pi, rel=1e-14)


# ---------------------------------------------------------------------------
# the vectorised engine against the per-interval loops it replaced


def reference_panelize(breaks, w_cap, w_rel=0.0):
    los, his = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        width = hi - lo
        cap = max(w_cap, w_rel * lo)
        m = 1 if not np.isfinite(cap) else max(1, int(np.ceil(width / cap)))
        edges = np.linspace(lo, hi, m + 1)
        los.append(edges[:-1])
        his.append(edges[1:])
    return np.concatenate(los), np.concatenate(his)


def reference_first_settled(tail_mag, sums, abs_floor, rel_tol):
    for k in range(3, len(tail_mag)):
        tol = max(abs_floor, rel_tol * abs(sums[k]))
        if tail_mag[k - 2 :].max(initial=0.0) <= 0.05 * tol:
            return k
    return None


class TestVectorisedEngine:
    @pytest.mark.parametrize("w_cap", [np.inf, 0.3])
    @pytest.mark.parametrize("w_rel", [0.0, 0.5])
    def test_panelize_matches_linspace_loop(self, w_cap, w_rel):
        rng = np.random.default_rng(7)
        for size in (2, 3, 40, 400):
            # spacings from well below to well above a 0.3 cap
            breaks = np.cumsum(rng.exponential(1.0, size) * 10.0 ** rng.uniform(-3, 1, size))
            got_lo, got_hi = inversion._panelize(breaks, w_cap, w_rel)
            ref_lo, ref_hi = reference_panelize(breaks, w_cap, w_rel)
            assert np.array_equal(got_lo, ref_lo)
            assert np.array_equal(got_hi, ref_hi)

    def test_panelize_on_the_graded_head(self):
        for hi, w_cap, w_rel in ((0.4, np.inf, 0.0), (3.7, 0.25, 0.5), (50.0, 0.5, 0.0)):
            got = inversion._graded_head(hi, w_cap, w_rel)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(inversion, "_panelize", reference_panelize)
                ref = inversion._graded_head(hi, w_cap, w_rel)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    def test_first_settled_matches_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            size = int(rng.integers(1, 60))
            terms = rng.normal(size=size) * np.exp(-rng.uniform(0, 1) * np.arange(size))
            terms[rng.random(size) < 0.1] = 0.0
            if rng.random() < 0.2:  # a NaN term poisons the partial sums after it
                terms[rng.integers(size)] = np.nan
            sums = rng.normal() + np.cumsum(terms)
            args = (np.abs(terms), sums, 10.0 ** rng.uniform(-14, -2), 1e-8)
            assert inversion._first_settled(*args) == reference_first_settled(*args)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kernels_bitwise_equal_to_loop_engine(self, n, monkeypatch):
        params = KernelParams(n, 0.37)
        evaluators = [
            lambda x: kernels.heat_kernel(x, 1.0, params),
            lambda x: kernels.bessel_kernel(x, params),
            lambda x: kernels.resolvent_multiplier_kernel(x, params),
        ]
        radii = (0.01, 1.0, 100.0)
        got = [ev(x) for ev in evaluators for x in radii]
        monkeypatch.setattr(inversion, "_panelize", reference_panelize)
        monkeypatch.setattr(inversion, "_first_settled", reference_first_settled)
        ref = [ev(x) for ev in evaluators for x in radii]
        assert got == ref
