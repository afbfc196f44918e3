"""Radial Fourier inversion engine against closed-form transforms."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from mixlap import inversion, kernels
from mixlap.errors import AccuracyError
from mixlap.inversion import (
    radial_inverse_fourier,
    radial_inverse_fourier_many,
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
                                         envelope_scale=0.5)
            exact = 2.0 * np.pi * sp.kv(0.0, 2.0 * np.pi * x)
            assert got == pytest.approx(exact, rel=1e-8)

    def test_origin_value(self):
        # x = 0 reduces to the plain radial integral of the symbol
        got = radial_inverse_fourier(gaussian_symbol(1.0), 0.0, 2, envelope_scale=1.0)
        assert got == pytest.approx(np.pi, rel=1e-9)

    def test_symbol_integral(self):
        val = radial_symbol_integral(gaussian_symbol(2.0), 3)
        assert val == pytest.approx((np.pi / 2.0) ** 1.5, rel=1e-9)


class TestEngineContracts:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            radial_inverse_fourier(gaussian_symbol(1.0), -0.5, 2, envelope_scale=1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_nonfinite_radius_rejected(self, x):
        message = "must be finite and nonnegative"
        with pytest.raises(ValueError, match=message):
            radial_inverse_fourier(gaussian_symbol(1.0), x, 2, envelope_scale=1.0)
        with pytest.raises(ValueError, match=message):
            radial_inverse_fourier_many(gaussian_symbol(1.0), [0.5, x], 2, envelope_scale=1.0)
        with pytest.raises(ValueError, match=message):
            kernels.heat_kernel(x, 1.0, KernelParams(2, 0.5))

    @pytest.mark.parametrize("scale", [-1.0, math.inf, math.nan])
    def test_envelope_scale_must_be_finite_and_nonnegative(self, scale):
        message = "envelope_scale must be finite and nonnegative"
        with pytest.raises(ValueError, match=message):
            radial_inverse_fourier(gaussian_symbol(1.0), 0.5, 2, envelope_scale=scale)
        with pytest.raises(ValueError, match=message):
            radial_inverse_fourier_many(gaussian_symbol(1.0), [0.5], 2, envelope_scale=scale)

    @pytest.mark.parametrize("r_max", [0.0, -1.0, math.nan])
    def test_r_max_must_be_positive(self, r_max):
        message = "r_max must be positive"
        with pytest.raises(ValueError, match=message):
            radial_inverse_fourier(gaussian_symbol(1.0), 0.5, 2, envelope_scale=1.0,
                                   r_max=r_max)
        with pytest.raises(ValueError, match=message):
            radial_inverse_fourier_many(gaussian_symbol(1.0), [0.5], 2, envelope_scale=1.0,
                                        r_max=r_max)

    def test_zero_envelope_scale_keeps_the_floor(self):
        # a heat scale that underflows to 0 still evaluates, with panels of
        # at most 0.5e-8 near the origin
        exact = np.pi * np.exp(-np.pi ** 2 * 0.25)
        got = radial_inverse_fourier(gaussian_symbol(1.0), 0.5, 2, envelope_scale=0.0)
        assert got == pytest.approx(exact, rel=1e-8)
        many = radial_inverse_fourier_many(gaussian_symbol(1.0), [0.5], 2, envelope_scale=0.0)
        assert many.tolist() == [got]
        assert got == radial_inverse_fourier(gaussian_symbol(1.0), 0.5, 2, envelope_scale=2e-8)

    def test_radius_whose_bessel_argument_overflows_rejected(self):
        # 2 pi |x| = inf would scale every Bessel zero to 0
        with pytest.raises(ValueError, match="2 pi x_norm finite"):
            radial_inverse_fourier(gaussian_symbol(1.0), 3e307, 2, envelope_scale=1.0)
        with pytest.raises(ValueError, match="2 pi x_norm finite"):
            kernels.bessel_kernel(np.array([1.0, 1e308]), KernelParams(3, 0.5))

    def test_accuracy_error_carries_estimate(self):
        # eight zeros of a slowly decaying envelope cannot meet tolerance
        quad = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_zeros=8)
        with pytest.raises(AccuracyError) as exc:
            radial_inverse_fourier(lambda r: 1.0 / (1.0 + r * r), 0.3, 2,
                                   quad=quad, envelope_scale=0.5)
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

        def counting(lo, hi, m):
            out = panelize(lo, hi, m)
            panels.append(len(out[0]))
            return out

        monkeypatch.setattr(inversion, "_panelize", counting)
        got = kernels.heat_kernel(0.01, 5.0, KernelParams(1, 0.1))
        assert sum(panels) < 50_000
        # n = 1: H(x, t) = 2 int_0^inf e^{-t(r^{2s} + r^2)} cos(2 pi x r) dr
        ref, _ = integrate.quad(
            lambda r: 2.0 * np.exp(-5.0 * (r ** 0.2 + r * r)) * np.cos(0.02 * np.pi * r),
            0.0, np.inf, epsabs=1e-16, epsrel=1e-13, limit=400,
        )
        assert got == pytest.approx(ref, rel=1e-12, abs=0)

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


def rational_symbol(r):
    return 1.0 / (1.0 + r * r)


RATIONAL = {"envelope_scale": 0.5}


def record_passes(monkeypatch):
    """Record every pass the engine integrates, as (breaks, panels, width cap) of each piece."""
    passes = []
    integrate_pass = inversion._integrate_pass

    def recording(*args):
        out = integrate_pass(*args)
        pieces, w_cap = args[2:4]
        passes.append([(breaks, count, w_cap) for breaks, count in zip(pieces, out[2])])
        return out

    monkeypatch.setattr(inversion, "_integrate_pass", recording)
    return passes


# the panel bounds of the inversion module's docstring ("Panels")
BLOCK_PANEL_BOUND = 64
PASS_PANEL_BOUND = inversion._BATCH * (2133 + 2 * BLOCK_PANEL_BOUND)


def head_panel_bound(breaks, w_cap):
    """31 + 2 ceil(log2(end / first)) panels for a head on [0, end], first = min(w_cap, end)."""
    end = breaks[-1]
    return 31 + 2 * math.ceil(math.log2(end / min(w_cap, end)))


class TestBatch:
    """One pass over many radii against one-radius calls, value by value."""

    def test_bitwise_equal_across_chunks(self):
        # 40 radii from three bands, unordered and repeated: three chunks
        rng = np.random.default_rng(2)
        radii = np.concatenate((np.geomspace(0.01, 100.0, 30), [1.0, 1.0, 0.05]))
        radii = np.concatenate((rng.permutation(radii), radii[:7]))
        got = radial_inverse_fourier_many(rational_symbol, radii, 2, **RATIONAL)
        ref = [radial_inverse_fourier(rational_symbol, x, 2, **RATIONAL) for x in radii]
        assert len(radii) > 2 * inversion._BATCH
        assert got.tolist() == ref

    def test_head_only_truncated_and_origin_radii(self):
        # r_max = 12 lies before the first zero of |x| = 0.01 (at 38.3), so its
        # head is the whole integral; |x| = 0.7 is cut after the zero past 12
        radii = np.array([0.7, 0.01, 0.0, 1.7])
        zeros = sp.jn_zeros(0, 1)[0] / (2.0 * np.pi * radii[[0, 1]])
        assert zeros[1] > 12.0 > zeros[0]
        got = radial_inverse_fourier_many(gaussian_symbol(1.0), radii, 2,
                                          envelope_scale=1.0, r_max=12.0)
        ref = [radial_inverse_fourier(gaussian_symbol(1.0), x, 2, envelope_scale=1.0,
                                      r_max=12.0) for x in radii]
        assert got.tolist() == ref
        assert got == pytest.approx(np.pi * np.exp(-np.pi ** 2 * radii ** 2), rel=1e-8)

    def test_one_heavy_radius_stays_within_the_panel_bound(self, monkeypatch):
        # the heat kernel's head at t = 5, s = 0.1, |x| = 0.01, on [0, r_max =
        # 3.46], had 21,681 panels under an absolute width cap of 1.6e-4 and
        # has 59 under the relative cap
        passes = record_passes(monkeypatch)
        tracemalloc.start()
        try:
            kernels.heat_kernel(0.01, 5.0, KernelParams(1, 0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (((head, count, w_cap),),) = passes
        assert count <= head_panel_bound(head, w_cap) < 100
        assert peak < 4 * 2 ** 20

    def test_one_radius_that_cannot_converge_raises(self):
        # with 14 zeros, |x| = 0.05 converges and |x| = 0.3 does not
        quad = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_zeros=14)
        assert np.isfinite(radial_inverse_fourier(rational_symbol, 0.05, 2, quad, **RATIONAL))
        with pytest.raises(AccuracyError) as alone:
            radial_inverse_fourier(rational_symbol, 0.3, 2, quad, **RATIONAL)
        with pytest.raises(AccuracyError) as batch:
            radial_inverse_fourier_many(rational_symbol, [0.05, 0.3, 0.05], 2, quad,
                                        **RATIONAL)
        assert batch.value.achieved is not None
        assert batch.value.achieved == alone.value.achieved > 0

    def test_contracts(self):
        assert radial_inverse_fourier_many(rational_symbol, [], 2, **RATIONAL).shape == (0,)
        with pytest.raises(ValueError):
            radial_inverse_fourier_many(rational_symbol, [1.0, -0.5], 2, **RATIONAL)
        with pytest.raises(ValueError):
            radial_inverse_fourier_many(rational_symbol, np.ones((2, 2)), 2, **RATIONAL)


def heat_by_quad(x, t, params):
    """H(x, t) by scipy's adaptive quad of its radial integral, with scipy's J.

    2 pi x^{1-n/2} int e^{-t (r^{2s} + r^2)} r^{n/2} J_{n/2-1}(2 pi x r) dr over
    [0, 1e-12] and 80 geometric pieces up to where e^{-t r^2} = e^{-80}.
    """
    n, s = params.n, params.s

    def integrand(r):
        return (np.exp(-t * (r ** (2.0 * s) + r * r)) * r ** (n / 2.0)
                * sp.jv(n / 2.0 - 1.0, 2.0 * np.pi * x * r))

    breaks = np.concatenate(([0.0], np.geomspace(1e-12, math.sqrt(80.0 / t), 81)))
    total = math.fsum(integrate.quad(integrand, lo, hi, epsabs=0, epsrel=1e-13, limit=200)[0]
                      for lo, hi in zip(breaks[:-1], breaks[1:]))
    return 2.0 * np.pi * x ** (1.0 - n / 2.0) * total


class TestHeatAtSmallSAndLargeT:
    """Heat values an absolute panel cap of t^{-1/(2s)} / 2 could not reach.

    That cap was 1.3e-8 at (s, t) = (0.1, 38) and cut each head into millions
    of panels, which the engine refused; under the relative cap no piece of
    these values has more than 85.
    """

    @pytest.mark.parametrize("n, s, t, x", [
        (1, 0.05, 20.0, 0.01), (1, 0.05, 20.0, 1.0), (1, 0.05, 20.0, 2.0),
        (2, 0.1, 38.0, 1.0), (2, 0.1, 20.0, 0.01), (2, 0.1, 20.0, 1.0),
        (3, 0.05, 5.0, 0.1), (3, 0.05, 5.0, 3.0), (5, 0.05, 5.0, 0.5),
    ])
    def test_matches_adaptive_quadrature(self, n, s, t, x):
        params = KernelParams(n, s)
        got = kernels.heat_kernel(x, t, params)
        assert got == pytest.approx(heat_by_quad(x, t, params), rel=1e-12, abs=0)
        if t >= 20.0:
            # 0 < H(x, t) <= H(0, t) <= the integral of e^{-t |xi|^{2s}}, a
            # close bound where the symbol's mass sits at 2 pi |x| r << 1
            bound = (sphere_surface_area(n) * math.gamma(n / (2.0 * s))
                     / (2.0 * s * t ** (n / (2.0 * s))))
            assert 0.0 < got <= bound

    @pytest.mark.parametrize("t1, t2", [(1e100, 1e100), (1e100, 0.0), (1e35, 1.0)])
    def test_cut_that_underflows_is_rejected(self, t1, t2):
        # the envelope's cut (60 / t1)^{1/(2s)} is 0.0 at s = 0.05
        with pytest.raises(ValueError, match=re.escape(f"t1 = {t1}, s = 0.05")):
            kernels.heat_kernel_two_scale(1.0, t1, t2, KernelParams(2, 0.05))

    def test_subnormal_cut_still_evaluates(self):
        # at t = 1e34 the cut is 6e-323, the last time before it underflows
        assert kernels.heat_kernel(1.0, 1e34, KernelParams(2, 0.05)) == 0.0


def log_floats(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


class TestPanelBound:
    @given(n=st.integers(1, 5), s=st.floats(0.05, 0.95), t=log_floats(1e-3, 100.0),
           x=log_floats(1e-8, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_no_piece_exceeds_the_documented_bound(self, n, s, t, x):
        params = KernelParams(n, s)
        evaluators = [
            lambda: kernels.heat_kernel(x, t, params),
            lambda: kernels.heat_kernel_two_scale(x, t, 0.0, params),
            lambda: kernels.heat_kernel_two_scale(x, 0.0, t, params),
            lambda: kernels.bessel_kernel(x, params),
            lambda: kernels.bessel_kernel_shifted(x, t, params),
            lambda: kernels.resolvent_multiplier_kernel(x, params),
            lambda: kernels.bessel_kernel_ball(0.5 + x, 1.0, params),
        ]
        with pytest.MonkeyPatch.context() as monkeypatch:
            passes = record_passes(monkeypatch)
            for evaluate in evaluators:
                # a sum may still fail to converge (the ball's does at a few
                # radii within 2e-3 of its edge); its pieces are bounded all
                # the same
                try:
                    assert np.isfinite(evaluate())
                except AccuracyError:
                    pass
        assert passes
        for pieces in passes:
            assert sum(count for _, count, _ in pieces) <= PASS_PANEL_BOUND
            for breaks, count, w_cap in pieces:
                head = breaks[0] == 0.0
                assert count <= (head_panel_bound(breaks, w_cap) if head else BLOCK_PANEL_BOUND)


# ---------------------------------------------------------------------------
# the vectorised engine against the per-interval loops it replaced


def reference_panel_counts(lo, hi, w_cap):
    counts = []
    for a, b in zip(lo, hi):
        cap = max(w_cap, inversion._REL_WIDTH * a)
        counts.append(int(np.ceil((b - a) / cap)))
    return np.array(counts)


def reference_panelize(lo, hi, m):
    los, his, owners = [], [], []
    for i, (a, b, count) in enumerate(zip(lo, hi, m)):
        edges = np.linspace(a, b, int(count) + 1)
        los.append(edges[:-1])
        his.append(edges[1:])
        owners.append(np.full(int(count), i))
    return np.concatenate(los), np.concatenate(his), np.concatenate(owners)


def assert_panels_match_linspace_loop(lo, hi, w_cap):
    m = inversion._panel_counts(lo, hi, w_cap)
    assert np.array_equal(m, reference_panel_counts(lo, hi, w_cap))
    got = inversion._panelize(lo, hi, m.astype(np.int64))
    ref = reference_panelize(lo, hi, m)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


class TestVectorisedEngine:
    @pytest.mark.parametrize("w_cap", [100.0, 0.3])
    @pytest.mark.parametrize("rel_width", [0.0, 0.5])
    def test_panelize_matches_linspace_loop(self, w_cap, rel_width, monkeypatch):
        # the relative cap switched off, and at its value in force; a cap of
        # 100 exceeds every spacing, so each interval is one panel
        monkeypatch.setattr(inversion, "_REL_WIDTH", rel_width)
        rng = np.random.default_rng(7)
        for size in (2, 3, 40, 400):
            # spacings from well below to well above a 0.3 cap
            breaks = np.cumsum(rng.exponential(1.0, size) * 10.0 ** rng.uniform(-3, 1, size))
            assert_panels_match_linspace_loop(breaks[:-1], breaks[1:], w_cap)
            # a batch's intervals: pieces of several radii, one after the other
            pieces = [breaks[:size // 2 + 1], breaks[: size - size // 3]]
            assert_panels_match_linspace_loop(np.concatenate([b[:-1] for b in pieces]),
                                              np.concatenate([b[1:] for b in pieces]),
                                              w_cap)

    def test_panelize_on_the_graded_head(self):
        # a cap above hi makes hi the top of the grading
        for hi, w_cap in ((0.4, 1.0), (3.7, 0.25), (50.0, 0.5), (1e-300, 1e-8)):
            breaks = inversion._head_breaks(hi, w_cap)
            # strictly increasing from 0 to hi, also where the grading underflows
            assert breaks[0] == 0.0 and breaks[-1] == hi
            assert np.all(np.diff(breaks) > 0)
            assert_panels_match_linspace_loop(breaks[:-1], breaks[1:], w_cap)

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
        ref = [ev(x) for ev in evaluators for x in radii]
        assert got == ref


# ---------------------------------------------------------------------------
# the fused first pass against the per-block engine it replaced


def reference_batch(symbol, xs, n, quad, w_cap, r_max):
    """The engine that integrated the heads in one pass and each block in another."""
    nu = n / 2.0 - 1.0

    def integrand(r, ar):
        return symbol(r) * r ** (n / 2.0) * inversion.bessel_j(nu, ar)

    count = len(xs)
    a = np.array([2.0 * np.pi * x for x in xs])
    pref = [2.0 * np.pi * x ** (1.0 - n / 2.0) for x in xs]
    unit_zeros = inversion._cached_zeros(float(nu), int(quad.max_zeros))
    zeros, head_hi = [], []
    for j in range(count):
        z = unit_zeros / a[j]
        if r_max is not None and r_max < z[0]:
            zeros.append(None)
            head_hi.append(r_max)
            continue
        if r_max is not None and z[-1] > r_max:
            keep = max(6, int(np.searchsorted(z, r_max)) + 1)
            z = z[: min(keep, len(z))]
        zeros.append(z)
        head_hi.append(z[0])

    vals, _, per_radius = inversion._integrate_pass(
        integrand, a, [inversion._head_breaks(hi, w_cap) for hi in head_hi], w_cap)
    ends = list(itertools.accumulate(per_radius, initial=0))
    head = [vals[ends[j] : ends[j + 1]].sum() for j in range(count)]

    out = np.empty(count)
    active = []
    for j in range(count):
        if zeros[j] is None:
            out[j] = pref[j] * head[j]
        else:
            active.append(j)
    abs_floor = [quad.abs_tol / max(abs(p), 1e-300) for p in pref]
    terms = [np.empty(0)] * count
    previous = [np.nan] * count

    block = inversion._BLOCK
    start = 0
    while active:
        pieces = [zeros[j][start : start + block + 1] for j in active]
        vals, owner, _ = inversion._integrate_pass(integrand, a[active], pieces, w_cap)
        block_terms = np.bincount(owner, vals)
        first = list(itertools.accumulate((len(b) - 1 for b in pieces), initial=0))
        still = []
        for slot, j in enumerate(active):
            terms[j] = np.concatenate((terms[j], block_terms[first[slot] : first[slot + 1]]))
            sums = head[j] + np.cumsum(terms[j])
            value, est = inversion._wynn_epsilon(sums[-40:])
            tol = max(abs_floor[j], quad.rel_tol * abs(value))
            if est <= tol and abs(value - previous[j]) <= tol:
                out[j] = pref[j] * value
                continue
            previous[j] = value
            if start + block < len(zeros[j]) - 1:
                still.append(j)
            elif est > tol:
                raise AccuracyError(
                    "accelerated Hankel summation did not converge "
                    f"(error ~ {pref[j] * est:.3e})",
                    achieved=pref[j] * est,
                )
            else:
                out[j] = pref[j] * value
        active = still
        start += block
    return out


# heat at t = 1 cuts the partition at r_max = 7.75: |x| = 1.5 and 2 keep 24 and
# 32 zeros, so their second blocks are short; small radii keep 6
SWEEP_RADII = np.sort(np.concatenate((np.geomspace(0.01, 100.0, 9), [1.5, 2.0])))


def sweep_outcomes(n):
    outcomes = []
    for s in (0.1, 0.5, 0.95):
        params = KernelParams(n, s)
        for evaluate in (
            lambda: kernels.heat_kernel(SWEEP_RADII, 1.0, params),
            lambda: kernels.bessel_kernel(SWEEP_RADII, params),
            lambda: kernels.bessel_kernel_shifted(SWEEP_RADII, 0.3, params),
            lambda: kernels.resolvent_multiplier_kernel(SWEEP_RADII, params),
        ):
            try:
                outcomes.append(evaluate().tolist())
            except AccuracyError as exc:
                outcomes.append((str(exc), exc.achieved))
    return outcomes


class TestFusedFirstPass:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bitwise_equal_to_per_block_engine(self, n, monkeypatch):
        calls = []  # (partial sums, prefix) Wynn's epsilon sees at every test
        wynn_epsilon = inversion._wynn_epsilon

        def recording(partial_sums, prefix=None):
            calls.append((len(partial_sums), prefix))
            return wynn_epsilon(partial_sums, prefix)

        monkeypatch.setattr(inversion, "_wynn_epsilon", recording)
        got = sweep_outcomes(n)
        block = inversion._BLOCK
        # radii that reach a full second block, and partitions of fewer than
        # 33 zeros that reach their short second block, each extrapolated
        # together with block 1 in one table
        assert (2 * block, block) in calls
        assert any(block < size < 2 * block and prefix == block
                   for size, prefix in calls)
        monkeypatch.setattr(inversion, "_batch", reference_batch)
        assert got == sweep_outcomes(n)

    def test_radii_that_stop_by_block_two_take_one_pass(self, monkeypatch):
        passes = []
        integrate_pass = inversion._integrate_pass

        def counting(*args):
            passes.append(len(args[2]))
            return integrate_pass(*args)

        monkeypatch.setattr(inversion, "_integrate_pass", counting)
        got = kernels.bessel_kernel(np.array([0.5, 1.0, 2.0]), KernelParams(2, 0.5))
        # three heads and six blocks; the per-block engine took three passes
        assert passes == [9]
        monkeypatch.setattr(inversion, "_batch", reference_batch)
        assert got.tolist() == kernels.bessel_kernel(np.array([0.5, 1.0, 2.0]),
                                                     KernelParams(2, 0.5)).tolist()


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

    def test_prefix_bitwise_equal_to_its_own_table(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            size = int(rng.integers(1, 41))
            prefix = int(rng.integers(1, size + 1))
            k = np.arange(size)
            terms = np.abs(rng.normal(size=size)) * (-1.0) ** k / (k + 1.0) ** rng.uniform(0, 2)
            if rng.random() < 0.3:  # repeated sums end the table, often past the prefix
                terms[rng.integers(size) :] = 0.0
            sums = rng.normal() + np.cumsum(terms)
            both = inversion._wynn_epsilon(sums, prefix=prefix)
            assert both == (inversion._wynn_epsilon(sums), inversion._wynn_epsilon(sums[:prefix]))
            assert both[1] == reference_wynn_epsilon(sums[:prefix])

    @pytest.mark.parametrize("repeat_from, own_tables", [(10, 0), (20, 1)])
    def test_prefix_table_built_only_past_a_bad_entry(self, monkeypatch, repeat_from,
                                                      own_tables):
        # repeated sums from index repeat_from put column 1's first bad entry
        # at repeat_from - 1: inside the first 16 sums' column, or past it
        terms = np.array([(-1.0) ** k / (k + 1.0) for k in range(32)])
        terms[repeat_from:] = 0.0
        sums = np.cumsum(terms)
        calls = []
        wynn_epsilon = inversion._wynn_epsilon

        def counting(partial_sums, prefix=None):
            calls.append(len(partial_sums))
            return wynn_epsilon(partial_sums, prefix)

        monkeypatch.setattr(inversion, "_wynn_epsilon", counting)
        whole, head = wynn_epsilon(sums, prefix=16)
        assert calls == [16] * own_tables
        assert (whole, head) == (reference_wynn_epsilon(sums),
                                 reference_wynn_epsilon(sums[:16]))

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
