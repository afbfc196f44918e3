"""Qualitative verification of computed solutions and kernels.

Checks positivity, radial symmetry and the two-sided power decay with
exponent n + 2s on solver output, and constructs the sub/supersolution
barriers whose tails bracket the solution's decay.  Both field audits, the
symmetry deviation and the radial average, group grid points into orbits
exactly, by their integer squared grid distance from the field's peak, and
build no coordinates.  A barrier is a Bessel-type kernel K_a convolved with
the indicator of the ball of radius 1/2; each of its values is one Hankel
transform (``kernels.bessel_kernel_ball``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import MixlapError
# tabulate_kernel is unused here, but the benchmark's span tracer wraps it
# under this module's name
from .kernels import RadialProfile, bessel_kernel_ball, tabulate_kernel  # noqa: F401
from .params import DEFAULT_QUAD


def peak_index(u):
    """Grid index of the field maximum; ties break to the smallest flat index."""
    return np.unravel_index(int(np.argmax(u.data)), u.data.shape)


def _orbit_keys(u):
    """Squared grid distance sum_i (k_i - c_i)^2 of every point from the peak c.

    The key is an integer, so it groups the points at exactly equal distance
    with no rounding: each key is one orbit, at radius spacing * sqrt(key).
    """
    keys = np.zeros(u.data.shape, dtype=np.intp)
    for axis, (size, c) in enumerate(zip(u.data.shape, peak_index(u))):
        steps = np.arange(size) - int(c)
        keys += (steps * steps).reshape((-1,) + (1,) * (keys.ndim - axis - 1))
    return keys


def radial_average(u, params):
    """Shell-averaged radial profile of a field around its peak (``peak_index``).

    The points are grouped by their integer squared grid distance k from the
    peak (``_orbit_keys``), the orbits of ``symmetry_deviation``, and orbit k
    goes into shell floor(sqrt(k)), one grid step wide, so a point exactly m
    steps out lies in shell m.  ``params`` tags the resulting profile; only
    the dimension matters for the averaging itself.
    """
    keys = _orbit_keys(u).ravel()
    counts = np.bincount(keys)
    sums = np.bincount(keys, weights=u.data.ravel())
    orbits = np.flatnonzero(counts)
    counts, sums = counts[orbits], sums[orbits]
    roots = np.sqrt(orbits)
    # sqrt is correctly rounded, so below 2^52 its floor is the exact integer
    # square root: a perfect square maps to its root, and sqrt(m^2 - 1) lies
    # about 1/(2m) below m, far more than half an ulp of m
    shell = roots.astype(np.intp)
    shell_counts = np.bincount(shell, weights=counts)
    mask = shell_counts > 0
    shell_counts = shell_counts[mask]
    # report each shell at the mean radius of its points, not the bin
    # center: first-order binning bias cancels for smooth profiles
    radii = u.grid.spacing * np.bincount(shell, weights=counts * roots)[mask] / shell_counts
    if radii[0] == 0.0:  # the peak-only shell would break strict monotonicity
        radii[0] = 1e-12
    return RadialProfile(
        radii=radii,
        values=np.bincount(shell, weights=sums)[mask] / shell_counts,
        params=params,
        label="radial-average",
    )


def symmetry_deviation(u, r_max):
    """Max deviation from exact radial symmetry about the field's peak, relative to it.

    Computes max |u(x) - orbit mean at |x - c|| / max(u) over grid points, c
    the peak (``peak_index``), the points of exactly equal radius grouped
    into one orbit by their integer squared grid distance from c
    (``_orbit_keys``), so that a radial field scores 0.  The audit covers
    |x - c| <= r_max, a guard radius: on a periodic box the images of the
    solution break symmetry near the boundary, so a whole-box audit
    (r_max = inf) measures the images, and ``analyze`` audits inside L/3.
    """
    keys = _orbit_keys(u).ravel()
    # an orbit lies wholly inside the guard radius or wholly outside it
    inside = u.grid.spacing * np.sqrt(keys) <= r_max
    keys, vals = keys[inside], u.data.ravel()[inside]
    if len(vals) == 0:
        raise ValueError("no grid points inside r_max")
    sums = np.bincount(keys, weights=vals)
    counts = np.bincount(keys)
    dev = np.abs(vals - sums[keys] / counts[keys])
    return float(dev.max() / np.abs(u.data).max())


@dataclass
class DecayFit:
    """Least-squares power-law fit of a radial profile tail."""

    window: tuple
    slope: float
    intercept: float
    r2: float
    expected_slope: float
    c_lower: float
    c_upper: float


def decay_fit(profile, window, params=None):
    """Fit log(value) vs log(radius) on the window; report empirical constants.

    ``c_lower``/``c_upper`` are min/max of value * r^{n+2s} over the window,
    the empirical two-sided decay constants.  Raises on nonpositive values
    in the window: that is a positivity violation, itself a finding.
    """
    if params is None:
        params = profile.params
    r_lo, r_hi = window
    if not r_lo < r_hi:
        raise ValueError("window must satisfy r_lo < r_hi")
    mask = (profile.radii >= r_lo) & (profile.radii <= r_hi)
    r = profile.radii[mask]
    v = profile.values[mask]
    if len(r) < 8:
        raise ValueError(f"decay fit needs >= 8 radii in the window, got {len(r)}")
    if np.any(v <= 0):
        raise MixlapError(
            "profile is nonpositive inside the fit window (positivity violation)"
        )
    lr, lv = np.log(r), np.log(v)
    slope, intercept = np.polyfit(lr, lv, 1)
    resid = lv - (slope * lr + intercept)
    ss_tot = np.sum((lv - lv.mean()) ** 2)
    r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 1.0
    power = params.n + 2.0 * params.s
    compensated = v * r ** power
    return DecayFit(
        window=(float(r_lo), float(r_hi)),
        slope=float(slope),
        intercept=float(intercept),
        r2=float(r2),
        expected_slope=-power,
        c_lower=float(compensated.min()),
        c_upper=float(compensated.max()),
    )


# ---------------------------------------------------------------------------
# barrier constructions: kernel * indicator of the ball of radius 1/2


def _barrier_profile(a, params, quad, label):
    radii = np.geomspace(2.0, 50.0, 25)
    vals = bessel_kernel_ball(radii, a, params, quad)
    return RadialProfile(radii=radii, values=vals, params=params, label=label)


def barrier_subsolution(params, quad=DEFAULT_QUAD):
    """Subsolution barrier: Bessel kernel convolved with the ball indicator.

    Tabulated at 25 geometric radii in [2, 50].  The tail satisfies
    value * r^{n+2s} >= c_1 > 0; the empirical c_1 is the min of the
    compensated profile, reported by the caller.
    """
    return _barrier_profile(1.0, params, quad, "bessel-barrier")


def barrier_supersolution(params, quad=DEFAULT_QUAD):
    """Supersolution barrier: the a = 1/2 shifted kernel convolved with the ball,
    at the radii of ``barrier_subsolution``."""
    return _barrier_profile(0.5, params, quad, "bessel-shifted-barrier")


# ---------------------------------------------------------------------------
# report plumbing


def check_report(check, statistic, threshold, passed, window=None, **extra):
    """Uniform JSON-serializable verification record."""
    rec = {
        "check": check,
        "window": list(window) if window is not None else None,
        "statistic": statistic,
        "threshold": threshold,
        "pass": bool(passed),
    }
    rec.update(extra)
    return rec
