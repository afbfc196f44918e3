"""Radial Fourier inversion engine against closed-form transforms."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

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
        for x in (0.2, 0.5, 1.0):
            got = radial_inverse_fourier(lambda r: 1.0 / (1.0 + r * r), x, 2,
                                         envelope_scale=0.5, envelope_rel=0.5)
            exact = 2.0 * np.pi * sp.kv(0.0, 2.0 * np.pi * x)
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
        # eight zeros of a slowly decaying envelope cannot meet tolerance
        quad = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_zeros=8)
        with pytest.raises(AccuracyError) as exc:
            radial_inverse_fourier(lambda r: 1.0 / (1.0 + r * r), 0.3, 2,
                                   quad=quad, envelope_scale=0.5, envelope_rel=0.5)
        assert exc.value.achieved is not None
        assert exc.value.achieved > 0

    def test_r_max_truncation(self):
        # truncating far beyond the envelope support changes nothing
        a = radial_inverse_fourier(gaussian_symbol(1.0), 0.7, 2, envelope_scale=1.0)
        b = radial_inverse_fourier(gaussian_symbol(1.0), 0.7, 2, envelope_scale=1.0,
                                   r_max=12.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_r_max_before_the_first_zero_ends_the_partition(self, monkeypatch):
        # r_max = 3.46 lies before the first zero at 25, so the graded head on
        # [0, r_max] is the whole integral; building the head on [0, 25] and
        # six zero intervals after it took 1,718,780 panels
        panels = []
        panelize = inversion._panelize

        def counting(breaks, w_cap, w_rel=0.0):
            lo, hi = panelize(breaks, w_cap, w_rel)
            panels.append(len(lo))
            return lo, hi

        monkeypatch.setattr(inversion, "_panelize", counting)
        got = kernels.heat_kernel(0.01, 5.0, KernelParams(1, 0.1))
        assert sum(panels) < 50_000
        # n = 1: H(x, t) = 2 int_0^inf e^{-t(r^{2s} + r^2)} cos(2 pi x r) dr
        ref, _ = integrate.quad(
            lambda r: 2.0 * np.exp(-5.0 * (r ** 0.2 + r * r)) * np.cos(0.02 * np.pi * r),
            0.0, np.inf, epsabs=1e-16, epsrel=1e-13, limit=400,
        )
        assert got == pytest.approx(ref, rel=1e-12, abs=0)

    def test_too_many_panels_is_an_accuracy_error(self):
        # envelope scale 20^-10 over the head [0, r_max = 1.73]: 1.7e8 panels,
        # 1.3 GiB for each panel array, refused before any is built
        tracemalloc.start()
        try:
            with pytest.raises(AccuracyError, match="quadrature panels"):
                kernels.heat_kernel(0.01, 20.0, KernelParams(1, 0.05))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_sphere_surface_area(self):
        assert sphere_surface_area(2) == pytest.approx(2.0 * np.pi, rel=1e-14)
        assert sphere_surface_area(3) == pytest.approx(4.0 * np.pi, rel=1e-14)


class TestMaxZerosIsACap:
    @pytest.mark.parametrize("n", [2, 3])
    def test_raising_the_cap_changes_nothing(self, n):
        # the sums converge long before 400 zero intervals, so a larger cap
        # never comes into play
        params = KernelParams(n, 0.5)
        capped, wide = QuadratureSpec(), QuadratureSpec(max_zeros=1200)
        evaluators = [
            lambda x, q: kernels.bessel_kernel(x, params, q),
            lambda x, q: kernels.resolvent_multiplier_kernel(x, params, q),
            lambda x, q: kernels.heat_kernel(x, 1.0, params, q),
        ]
        for ev in evaluators:
            for x in (0.05, 1.0, 10.0):
                assert ev(x, wide) == pytest.approx(ev(x, capped), rel=capped.rel_tol, abs=0)

    def test_summation_stops_before_the_cap(self, monkeypatch):
        # a sum over all 400 zero intervals costs 10,824 Bessel points here
        points = []
        bessel_j = inversion.bessel_j

        def counting(nu, x):
            points.append(np.size(x))
            return bessel_j(nu, x)

        monkeypatch.setattr(inversion, "bessel_j", counting)
        kernels.bessel_kernel(1.0, KernelParams(2, 0.5))
        assert sum(points) < 3000

    def test_stop_needs_two_agreeing_extrapolations(self):
        # here one Wynn estimate meets the tolerance while its value is still
        # 4e-7 off; the oracle is int_0^inf e^{-a t} H(x, t) dt
        params, a, x = KernelParams(1, 0.95), 0.3, 29.99497702235761
        oracle, _ = integrate.quad(
            lambda t: np.exp(-a * t) * kernels.heat_kernel(x, t, params),
            0.0, np.inf, epsabs=1e-16, epsrel=1e-10, limit=200,
        )
        got = kernels.bessel_kernel_shifted(x, a, params)
        assert got == pytest.approx(oracle, rel=1e-8, abs=0)


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


def reference_wynn_epsilon(partial_sums):
    """The numpy recursion _wynn_epsilon replaced, column by column."""
    s = np.asarray(partial_sums, dtype=float)
    m = len(s)
    if m < 2:
        return s[-1], np.inf
    prev = np.zeros(m + 1)
    cur = s.copy()
    best_val, best_err = s[-1], abs(s[-1] - s[-2])
    last_even = s[-1]
    for col in range(1, m):
        diff = cur[1:] - cur[:-1]
        if len(diff) == 0 or (np.abs(diff) < 1e-300).any():
            break
        nxt = prev[1 : len(cur)] + 1.0 / diff
        if not np.isfinite(nxt).all():
            break
        prev, cur = cur, nxt
        if col % 2 == 0:
            err = abs(cur[-1] - last_even)
            last_even = cur[-1]
            if err < best_err:
                best_val, best_err = cur[-1], err
    return best_val, best_err


class TestWynnEpsilon:
    def test_bitwise_equal_to_numpy_recursion(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            size = int(rng.integers(1, 41))
            k = np.arange(size)
            terms = rng.normal(size=size) * rng.uniform(0.3, 1.0) ** k
            if rng.random() < 0.5:  # alternating, like the Hankel tails
                terms = np.abs(terms) * (-1.0) ** k / (k + 1.0) ** rng.uniform(0, 2)
            if rng.random() < 0.1:  # repeated sums stop the recursion
                terms[rng.integers(size) :] = 0.0
            sums = rng.normal() + np.cumsum(terms)
            if rng.random() < 0.2:  # differences near the 1e-300 cutoff
                sums *= 10.0 ** rng.uniform(-310, -280)
            assert inversion._wynn_epsilon(sums) == reference_wynn_epsilon(sums)

    @pytest.mark.parametrize("term, limit", [
        (lambda k: (-1.0) ** k / (k + 1.0), math.log(2.0)),
        (lambda k: (-1.0) ** k / (2.0 * k + 1.0), math.pi / 4.0),
    ])
    def test_alternating_series(self, term, limit):
        # the 20th partial sums are still more than 1e-2 off
        sums = np.cumsum([term(k) for k in range(20)])
        value, err = inversion._wynn_epsilon(sums)
        assert (value, err) == reference_wynn_epsilon(sums)
        assert value == pytest.approx(limit, rel=1e-13, abs=0)
        assert err < 1e-12
