"""Radial Fourier inversion by partitioned Hankel quadrature.

Evaluates integrals of the form

    F(x) = int_{R^n} g(|xi|) e^{2 pi i x.xi} d xi
         = 2 pi q^{1 - n/2} int_0^inf g(r) r^{n/2} J_{n/2-1}(2 pi q r) dr,

with q = |x| > 0.  The half line is partitioned at the zeros of the Bessel
factor; each subinterval is integrated with fixed-order Gauss-Legendre
panels (geometrically graded toward r = 0 to absorb the |xi|^{2s} cusp of
the symbols used here).  After the head [0, first zero], the zero intervals
are integrated ``_BLOCK`` at a time, one term per interval.  After each
block the partial sums are tested: plain summation stops once the envelope
has killed the tail, and otherwise Wynn's epsilon algorithm extrapolates the
last 40 sums and stops once its error estimate meets the tolerance and
agrees with the previous block's extrapolation to that same tolerance.
``QuadratureSpec.max_zeros`` (or the caller's ``r_max``) caps the partition;
a sum that has not converged by then raises ``AccuracyError``, as does a
head or block whose envelope would need more than ``_MAX_PANELS`` panels.
"""

import functools
import math

import numpy as np

from .errors import AccuracyError
from .params import DEFAULT_QUAD
from .special import bessel_j, bessel_j_zeros, gamma

_GL_ORDER = 24
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)
_HEAD_LEVELS = 30  # dyadic grading depth toward r = 0
_BLOCK = 16  # zero intervals integrated between two convergence tests
# Most panels one _panelize call may build.  A value peaks at about 1 kB of
# memory per panel; the largest known to finish, the heat kernel at t = 5,
# s = 0.1, |x| = 0.01, builds 156,280 head panels and a first block of
# 1,562,500 (1.6 GB).
_MAX_PANELS = 2_000_000


def sphere_surface_area(n):
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)


@functools.lru_cache(maxsize=64)
def _cached_zeros(nu, count):
    return bessel_j_zeros(nu, count)


def _panelize(breaks, w_cap, w_rel=0.0):
    """Split each [breaks[i], breaks[i+1]] into equal panels.

    Panel width is capped at max(w_cap, w_rel * lo): symbols that only vary
    on scales proportional to r (the rational ones) need no absolute cap far
    from the origin.  Interval i gets m_i panels whose k-th edge is
    k * ((hi - lo) / m_i) + lo and whose last edge is exactly hi, which is
    ``np.linspace(lo, hi, m_i + 1)`` to the bit; breaks must be strictly
    increasing.  Raises ``AccuracyError`` rather than build more than
    ``_MAX_PANELS`` panels.
    """
    lo, hi = breaks[:-1], breaks[1:]
    width = hi - lo
    # an infinite cap gives width / cap = 0, hence one panel
    m = np.maximum(1, np.ceil(width / np.maximum(w_cap, w_rel * lo)))
    total = m.sum()
    if total > _MAX_PANELS:
        raise AccuracyError(
            f"resolving the envelope on [{breaks[0]:.3g}, {breaks[-1]:.3g}] "
            f"needs {total:.3g} quadrature panels (limit {_MAX_PANELS})"
        )
    m = m.astype(np.int64)
    ends = np.cumsum(m)
    owner = np.repeat(np.arange(len(m)), m)  # interval of each panel
    k = np.arange(ends[-1]) - (ends - m)[owner]  # panel index within its interval
    p_lo = k * (width / m)[owner] + lo[owner]
    # each panel ends where the next begins; an interval's first panel
    # begins exactly at its break
    return p_lo, np.append(p_lo[1:], breaks[-1])


def _graded_head(hi, w_cap, w_rel=0.0):
    """Panels covering [0, hi], geometrically refined toward 0."""
    first = hi if not np.isfinite(w_cap) else min(hi, w_cap)
    grading = first * 0.5 ** np.arange(_HEAD_LEVELS, 0, -1)
    # continue the dyadic ladder upward so [first, hi] never degenerates into
    # one long interval whose relative panel cap is set by its small left end
    up = [first]
    while up[-1] < hi:
        up.append(min(2.0 * up[-1], hi))
    breaks = np.unique(np.concatenate(([0.0], grading, up)))
    return _panelize(breaks, w_cap, w_rel)


def _gl_integrate(f, los, his):
    """Vectorized Gauss-Legendre over a batch of panels; returns per-panel integrals."""
    mid = 0.5 * (los + his)[:, None]
    half = 0.5 * (his - los)[:, None]
    nodes = mid + half * _GL_X[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return (vals * _GL_W[None, :] * half).sum(axis=1)


def _wynn_epsilon(partial_sums):
    """Wynn epsilon extrapolation; returns (estimate, error_estimate).

    The estimate is the best-converged entry of the even epsilon columns
    (smallest change from the previous even column), not the deepest one:
    deep columns are ruined by the 1/diff recursion once neighbouring
    entries agree to roundoff.  The table has at most 40 entries a column,
    so it is built on Python floats: numpy's per-call cost would dominate.
    """
    s = [float(v) for v in partial_sums]
    if len(s) < 2:
        return s[-1], math.inf
    prev = [0.0] * len(s)  # the epsilon_{-1} column
    cur = s
    best_val, best_err = s[-1], abs(s[-1] - s[-2])
    last_even = s[-1]
    for col in range(1, len(s)):
        nxt = []
        for p, a, b in zip(prev[1:], cur, cur[1:]):
            diff = b - a
            if abs(diff) < 1e-300:
                return best_val, best_err
            e = p + 1.0 / diff
            if not math.isfinite(e):
                return best_val, best_err
            nxt.append(e)
        prev, cur = cur, nxt
        if col % 2 == 0:  # even columns approximate the limit
            err = abs(cur[-1] - last_even)
            last_even = cur[-1]
            if err < best_err:
                best_val, best_err = cur[-1], err
    return best_val, best_err


def _first_settled(tail_mag, sums, abs_floor, rel_tol):
    """First k >= 3 at which every term from k - 2 on is below 5% of the tolerance.

    The tolerance at k is max(abs_floor, rel_tol * |sums[k]|); returns None
    if no k qualifies.  A reverse running maximum gives max(tail_mag[k - 2:])
    for every k at once.
    """
    ks = np.arange(3, len(tail_mag))
    tail_max = np.maximum.accumulate(tail_mag[::-1])[::-1]
    # fmax, like the scalar max(), keeps abs_floor when a partial sum is NaN
    settled = tail_max[ks - 2] <= 0.05 * np.fmax(abs_floor, rel_tol * np.abs(sums[ks]))
    return int(ks[settled.argmax()]) if settled.any() else None


def radial_symbol_integral(symbol, n, quad=DEFAULT_QUAD):
    """int_{R^n} g(|xi|) d xi for a radial, absolutely integrable symbol."""
    from scipy import integrate

    area = sphere_surface_area(n)
    val, _ = integrate.quad(
        lambda r: symbol(np.array([r]))[0] * r ** (n - 1),
        0.0,
        np.inf,
        epsabs=quad.abs_tol,
        epsrel=min(quad.rel_tol, 1e-10),
        limit=400,
    )
    return area * val


def radial_inverse_fourier(
    symbol, x_norm, n, quad=DEFAULT_QUAD, envelope_scale=None, r_max=None,
    envelope_rel=0.0,
):
    """Inverse Fourier transform of a radial symbol, evaluated at |x| = x_norm.

    ``symbol`` must accept a 1-D numpy array of radii r >= 0 and return the
    symbol values g(r).  ``envelope_scale`` caps the quadrature panel width so
    that a sharply decaying envelope is always resolved; ``r_max`` truncates
    the partition where the caller knows the envelope to be negligible;
    ``envelope_rel`` relaxes the cap proportionally to r for symbols that
    flatten out (in the logarithmic sense) away from the origin.
    """
    if x_norm < 0:
        raise ValueError("x_norm must be nonnegative")
    if x_norm == 0.0:
        return radial_symbol_integral(symbol, n, quad)

    nu = n / 2.0 - 1.0
    a = 2.0 * np.pi * x_norm
    pref = 2.0 * np.pi * x_norm ** (1.0 - n / 2.0)
    w_cap = np.inf if envelope_scale is None else max(envelope_scale / 2.0, 1e-8)

    zeros = _cached_zeros(float(nu), int(quad.max_zeros)) / a
    if r_max is not None and zeros[-1] > r_max:
        keep = max(6, int(np.searchsorted(zeros, r_max)) + 1)
        zeros = zeros[: min(keep, len(zeros))]

    def integrand(r):
        return symbol(r) * r ** (n / 2.0) * bessel_j(nu, a * r)

    # head: [0, first zero], graded toward the origin
    h_lo, h_hi = _graded_head(zeros[0], w_cap, envelope_rel)
    head = _gl_integrate(integrand, h_lo, h_hi).sum()
    abs_floor = quad.abs_tol / max(abs(pref), 1e-300)

    # oscillatory part: one term per interval between consecutive zeros,
    # integrated a block of intervals at a time until the sum has converged
    terms = np.empty(0)
    previous = np.nan  # no extrapolation yet: Wynn cannot stop the first block
    for start in range(0, len(zeros) - 1, _BLOCK):
        breaks = zeros[start : start + _BLOCK + 1]
        o_lo, o_hi = _panelize(breaks, w_cap, envelope_rel)
        panel_vals = _gl_integrate(integrand, o_lo, o_hi)
        # map panels back to their zero interval
        interval_idx = np.searchsorted(breaks[1:], o_hi, side="left")
        terms = np.concatenate((terms, np.bincount(interval_idx, panel_vals)))
        sums = head + np.cumsum(terms)

        # plain summation if the envelope has already killed the tail
        k = _first_settled(np.abs(terms), sums, abs_floor, quad.rel_tol)
        if k is not None:
            return pref * sums[k]

        value, est = _wynn_epsilon(sums[-40:])
        tol = max(abs_floor, quad.rel_tol * abs(value))
        if est <= tol and abs(value - previous) <= tol:
            return pref * value
        previous = value

    if est > tol:
        raise AccuracyError(
            f"accelerated Hankel summation did not converge (error ~ {pref * est:.3e})",
            achieved=pref * est,
        )
    return pref * value
