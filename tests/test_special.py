"""Special-function wrappers: values, identities and domain errors."""

import warnings

import mpmath as mp
import numpy as np
import pytest

from mixlap.special import bessel_j, bessel_j_zeros, gamma


class TestGamma:
    def test_half(self):
        assert gamma(0.5) == pytest.approx(np.sqrt(np.pi), rel=1e-12)

    def test_one(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_two_point_five(self):
        # recurrence from Gamma(1/2): 1.5 * 0.5 * sqrt(pi)
        assert gamma(2.5) == pytest.approx(1.5 * 0.5 * np.sqrt(np.pi), rel=1e-12)

    def test_recurrence(self):
        x = np.linspace(0.1, 20.0, 120)
        assert np.allclose(gamma(x + 1.0), x * gamma(x), rtol=1e-12)

    def test_accuracy_against_mpmath(self):
        for x in (0.07, 0.9, 3.3, 17.5, 49.0):
            assert gamma(x) == pytest.approx(float(mp.gamma(x)), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-1.3)

    def test_watson_integral(self):
        # int_0^inf r^mu K_nu(r) dr = 2^{mu-1} Gamma((1+mu+nu)/2) Gamma((1+mu-nu)/2)
        # with mu = n/2 + 2s - 1, nu = n/2, n = 2, s = 0.5 this equals pi / 2
        mu, nu = 1.0, 1.0
        val = float(mp.quad(lambda r: r ** mu * mp.besselk(nu, r), [0, mp.inf]))
        closed = 2.0 ** (mu - 1) * gamma((1 + mu + nu) / 2) * gamma((1 + mu - nu) / 2)
        assert val == pytest.approx(closed, rel=1e-10)
        assert closed == pytest.approx(np.pi / 2.0, rel=1e-12)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_half_order_closed_form(self):
        x = np.pi / 2.0
        assert bessel_j(0.5, x) == pytest.approx(
            np.sqrt(2.0 / (np.pi * x)) * np.sin(x), rel=1e-12
        )
        assert bessel_j(0.5, x) == pytest.approx(2.0 / np.pi, rel=1e-9)

    def test_first_zero_of_j0(self):
        assert abs(bessel_j(0, 2.4048255577)) < 1e-9

    def test_accuracy_against_mpmath(self):
        for nu in (0, 1, 2.5, 10):
            for x in (0.3, 7.0, 120.0, 1000.0):
                assert bessel_j(nu, x) == pytest.approx(
                    float(mp.besselj(nu, x)), abs=1e-10
                )

    def test_recurrence(self):
        x = np.linspace(0.1, 50.0, 200)
        for nu in (1.0, 2.0, 3.0):
            lhs = bessel_j(nu - 1, x) + bessel_j(nu + 1, x)
            assert np.allclose(lhs, 2.0 * nu / x * bessel_j(nu, x), atol=1e-8)

    def test_derivative_identity(self):
        # d/dx [x^nu J_nu] = x^nu J_{nu-1}, by central differences
        h = 1e-5
        for nu in (1.0, 1.5, 2.0):
            for x in (0.5, 3.0, 12.0):
                num = ((x + h) ** nu * bessel_j(nu, x + h)
                       - (x - h) ** nu * bessel_j(nu, x - h)) / (2 * h)
                assert num == pytest.approx(x ** nu * bessel_j(nu - 1, x), abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)


def _closed_form_points(nu):
    """x from 1e-10 to 2000, plus points at and next to zeros of J_nu and at
    either side of x = 1, where J_{3/2} leaves its series."""
    zeros = bessel_j_zeros(nu, 640)  # the 640th zero is near 2010
    zeros = zeros[zeros < 2000.0][::16]
    near = np.concatenate([zeros, zeros * (1 + 1e-9), zeros - 1e-4, zeros + 1e-3])
    switch = [np.nextafter(1.0, 0.0), 1.0]
    return np.concatenate([np.logspace(-10, np.log10(2000.0), 120), near, switch])


class TestBesselJClosedForms:
    """J_{-1/2}, J_{1/2}, J_{3/2}, J_0 and J_1 are evaluated without scipy's jv."""

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5])
    def test_against_mpmath(self, nu):
        x = _closed_form_points(nu)
        got = bessel_j(nu, x)
        with mp.workdps(30):
            ref = np.array([float(mp.besselj(nu, mp.mpf(v))) for v in x])
        # scipy's j0 and j1 reach 2e-13 relative where |J| > 1e-3 and 2e-15
        # absolute next to their zeros; the trigonometric forms 3e-16 relative,
        # J_{3/2} also across its switch from the series at x = 1
        assert got == pytest.approx(ref, rel=1e-11, abs=1e-14)

    @pytest.mark.parametrize("nu, value", [(0.0, 1.0), (0.5, 0.0), (1.0, 0.0), (1.5, 0.0)])
    def test_at_zero_without_warning(self, nu, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_j(nu, 0.0) == value
            assert bessel_j(nu, np.array([0.0, 1.0]))[0] == value

    def test_minus_half_at_zero_overflows_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                bessel_j(-0.5, 0.0)
            with pytest.raises(FloatingPointError):
                bessel_j(-0.5, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.5])
    def test_scalar_and_array_types(self, nu):
        assert type(bessel_j(nu, 1.5)) is float
        assert type(bessel_j(nu, np.float64(1.5))) is float
        out = bessel_j(nu, np.array([1.5, 2.5]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5])
    def test_domain_error(self, nu):
        with pytest.raises(ValueError):
            bessel_j(nu, np.array([1.0, -1e-300]))


class TestBesselZeros:
    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5, 0.37])
    def test_zeros_are_roots_and_ordered(self, nu):
        zeros = bessel_j_zeros(nu, 30)
        assert np.all(np.diff(zeros) > 0)
        vals = np.array([float(mp.besselj(nu, z)) for z in zeros])
        assert np.max(np.abs(vals)) < 1e-9

    def test_count_matches_mpmath(self):
        # every positive zero of J_0 below the 30th is present exactly once
        zeros = bessel_j_zeros(0.0, 30)
        ref = [float(mp.besseljzero(0, k)) for k in range(1, 31)]
        assert np.allclose(zeros, ref, rtol=1e-11)

    def test_count_error(self):
        with pytest.raises(ValueError):
            bessel_j_zeros(0.0, 0)
