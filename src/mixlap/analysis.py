"""Qualitative verification of computed solutions and kernels.

Checks positivity, radial symmetry and the two-sided power decay with
exponent n + 2s on solver output, and constructs the sub/supersolution
barriers whose tails bracket the solution's decay.  A barrier is a
Bessel-type kernel K_a convolved with the indicator of the ball of radius
1/2; each of its values is one Hankel transform
(``kernels.bessel_kernel_ball``).
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import MixlapError
from .fileio import atomic_write
# tabulate_kernel is unused here, but the benchmark's span tracer wraps it
# under this module's name
from .kernels import RadialProfile, bessel_kernel_ball, tabulate_kernel  # noqa: F401
from .params import DEFAULT_QUAD, KernelParams


def peak_index(u):
    """Grid index of the field maximum; ties break to the smallest flat index."""
    return np.unravel_index(int(np.argmax(u.data)), u.data.shape)


def _center_coords(u, center):
    if center is None:
        center = peak_index(u)
    ax = u.grid.axis()
    return tuple(float(ax[i]) for i in center)


def _orbit_decomposition(u, center):
    """Radii, per-orbit means, orbit sizes and the sorted field values.

    Grid points are grouped into exact symmetry orbits (equal distance from
    the center up to rounding at 1e-8), so an exactly radial field has zero
    in-orbit spread.
    """
    coords = _center_coords(u, center)
    r = np.round(u.grid.radius(center=coords), 8).ravel()
    vals = u.data.ravel()
    order = np.argsort(r, kind="stable")
    r_sorted, v_sorted = r[order], vals[order]
    uniq, start = np.unique(r_sorted, return_index=True)
    sums = np.add.reduceat(v_sorted, start)
    counts = np.diff(np.append(start, len(v_sorted)))
    return uniq, sums / counts, counts, r_sorted, v_sorted


def radial_average(u, center=None, shell_width=None, params=None):
    """Shell-averaged radial profile of a field around ``center``.

    ``center`` is a grid index tuple; the default is the field's argmax.
    Shell width defaults to one grid cell.  ``params`` tags the resulting
    profile; only the dimension matters for the averaging itself.
    """
    if params is None:
        params = KernelParams(u.grid.n, 0.5)
    if shell_width is None:
        shell_width = u.grid.spacing
    coords = _center_coords(u, center)
    r = u.grid.radius(center=coords).ravel()
    vals = u.data.ravel()
    nbins = int(np.ceil(r.max() / shell_width)) + 1
    which = np.minimum((r / shell_width).astype(int), nbins - 1)
    sums = np.bincount(which, weights=vals, minlength=nbins)
    counts = np.bincount(which, minlength=nbins)
    r_sums = np.bincount(which, weights=r, minlength=nbins)
    mask = counts > 0
    # report each shell at the mean radius of its points, not the bin
    # center: first-order binning bias cancels for smooth profiles
    radii = r_sums[mask] / counts[mask]
    if radii[0] == 0.0:  # center-only shell would break strict monotonicity
        radii[0] = 1e-12
    return RadialProfile(
        radii=radii,
        values=sums[mask] / counts[mask],
        params=params,
        label="radial-average",
    )


def symmetry_deviation(u, center=None, r_max=None):
    """Max deviation from exact radial symmetry, relative to the field peak.

    Computes max |u(x) - orbit mean at |x - center|| / max(u) over grid
    points, with orbits of exactly equal radius grouped together so that a
    radial field scores 0.  ``r_max`` restricts the audit to |x - center|
    <= r_max; on a periodic box the images of the solution break symmetry
    near the boundary, so decay-dominated fields should be audited inside
    a guard radius.
    """
    _, means, counts, r_sorted, v_sorted = _orbit_decomposition(u, center)
    expanded = np.repeat(means, counts)
    dev = np.abs(v_sorted - expanded)
    if r_max is not None:
        dev = dev[r_sorted <= r_max]
    if len(dev) == 0:
        raise ValueError("no grid points inside r_max")
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

    def to_dict(self):
        return {
            "window": list(self.window),
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            "expected_slope": self.expected_slope,
            "c_lower": self.c_lower,
            "c_upper": self.c_upper,
        }


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


def _barrier_profile(a, params, quad, radii, label):
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 1.0):
        raise ValueError("barrier radii must exceed 1")
    vals = np.array([bessel_kernel_ball(r, a, params, quad) for r in radii])
    return RadialProfile(radii=radii, values=vals, params=params, label=label)


def barrier_subsolution(params, quad=DEFAULT_QUAD, radii=None):
    """Subsolution barrier: Bessel kernel convolved with the ball indicator.

    The tail satisfies value * r^{n+2s} >= c_1 > 0; the empirical c_1 is
    the min of the compensated profile, reported by the caller.
    """
    if radii is None:
        radii = np.geomspace(2.0, 50.0, 25)
    return _barrier_profile(1.0, params, quad, radii, "bessel-barrier")


def barrier_supersolution(params, quad=DEFAULT_QUAD, radii=None):
    """Supersolution barrier: the a = 1/2 shifted kernel convolved with the ball."""
    if radii is None:
        radii = np.geomspace(2.0, 50.0, 25)
    return _barrier_profile(0.5, params, quad, radii, "bessel-shifted-barrier")


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


def write_report(path, records):
    atomic_write(str(path), json.dumps(records, indent=2))
