"""Special functions used by the radial Fourier inversion machinery.

Thin, contract-checked wrappers around scipy.special: Gamma and the Bessel
function of the first kind J_nu, plus positive real zeros of J_nu.

J_nu is evaluated in closed form at the orders the Hankel engine and the
ball factor use (nu = n/2 - 1 and n/2): J_{-1/2}(x) = sqrt(2/(pi x)) cos x,
J_{1/2}(x) = sqrt(2/(pi x)) sin x and
J_{3/2}(x) = sqrt(2/(pi x)) (sin x / x - cos x), the last by its power series
below x = 1, where the difference cancels; J_0 and J_1 come from scipy's j0
and j1.  Each is about ten times cheaper per point than scipy's jv at the
same order.  Every other order uses jv.

The zeros of J_{-1/2} and J_{1/2} come from the trigonometric closed forms;
integer orders use scipy's dedicated routine; other real orders fall back to
McMahon asymptotics refined by bracketed root finding.
"""

import math

import numpy as np
from scipy import special as sp

__all__ = ["gamma", "bessel_j", "bessel_j_zeros"]

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def gamma(x):
    """Gamma function for positive real argument."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("gamma requires a positive argument")
    out = sp.gamma(x)
    return float(out) if out.ndim == 0 else out


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x), x >= 0."""
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValueError("bessel_j requires x >= 0")
    if nu == 0:
        out = sp.j0(x)
    elif nu == 1:
        out = sp.j1(x)
    elif nu == 0.5 or nu == -0.5:
        out = _bessel_j_half(nu, x)
    elif nu == 1.5:
        out = _bessel_j_three_halves(x)
    else:
        out = sp.jv(nu, x)
    finite = np.isfinite(out)
    if not finite.all() and (~finite & np.isfinite(x)).any():
        raise FloatingPointError("bessel_j evaluation overflowed")
    return float(out) if out.ndim == 0 else out


def _bessel_j_half(nu, x):
    """J_{1/2} (sin) or J_{-1/2} (cos) as sqrt(2/pi) trig(x) / sqrt(x)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _SQRT_2_OVER_PI * (np.sin(x) if nu > 0 else np.cos(x)) / np.sqrt(x)
    # sin(x) / sqrt(x) is 0/0 at x = 0, where J_{1/2} is 0; J_{-1/2}(0) stays
    # inf, which bessel_j reports.  At x = inf both are nan, as jv's are.
    return np.where(x == 0, 0.0, out) if nu > 0 else out


# sin x / x - cos x = sum_{k >= 1} (-1)^(k+1) 2k x^(2k) / (2k + 1)!; nine terms
# reach 1e-18 relative at x = 1, where the closed form's cancellation costs
# under 2 bits
_J_THREE_HALVES_SERIES = [(-1) ** (k + 1) * 2 * k / math.factorial(2 * k + 1)
                          for k in range(1, 10)]


def _bessel_j_three_halves(x):
    """J_{3/2} as sqrt(2/pi) (sin x / x - cos x) / sqrt(x), by its series below 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(_SQRT_2_OVER_PI * (np.sin(x) / x - np.cos(x)) / np.sqrt(x))
    small = x < 1.0
    if small.any():
        xs = x[small]
        x_sq = xs * xs
        series = 0.0
        for c in reversed(_J_THREE_HALVES_SERIES):
            series = series * x_sq + c
        # the series is x^2 times this sum: J_{3/2} = sqrt(2/pi) x^{3/2} sum
        out[small] = _SQRT_2_OVER_PI * xs * np.sqrt(xs) * series
    return out


def _mcmahon_zeros(nu, count):
    k = np.arange(1, count + 1, dtype=float)
    beta = (k + 0.5 * nu - 0.25) * np.pi
    mu = 4.0 * nu * nu
    # McMahon expansion, enough to bracket each zero within half a period
    return (
        beta
        - (mu - 1) / (8 * beta)
        - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta) ** 3)
    )


def bessel_j_zeros(nu, count):
    """First ``count`` positive zeros of J_nu, in increasing order."""
    if count < 1:
        raise ValueError("count must be >= 1")
    k = np.arange(1, count + 1, dtype=float)
    if nu == -0.5:  # J_{-1/2} ~ cos
        return (k - 0.5) * np.pi
    if nu == 0.5:  # J_{1/2} ~ sin
        return k * np.pi
    if float(nu).is_integer() and nu >= 0:
        return sp.jn_zeros(int(nu), count)
    from scipy import optimize

    approx = _mcmahon_zeros(nu, count)
    zeros = np.empty(count)
    for i, z in enumerate(approx):
        lo, hi = z - 0.6, z + 0.6
        flo, fhi = sp.jv(nu, lo), sp.jv(nu, hi)
        if flo * fhi > 0:  # widen until the zero is bracketed
            lo, hi = z - 1.4, z + 1.4
        zeros[i] = optimize.brentq(lambda t: sp.jv(nu, t), lo, hi, xtol=1e-13)
    return zeros
