"""Heat, Bessel and resolvent-multiplier kernels of -Laplacian + (-Laplacian)^s.

All kernels are inverse Fourier transforms of radial symbols under the
convention F(x) = int g(|xi|) exp(2 pi i x.xi) d xi, built from
``params.operator_symbol`` at k = |xi| (its docstring relates this unit to the
solver's), so every kernel is a function of |x| only.

Note on the tail constant: the classical asymptotic constant

    alpha(n, s) = 2^{n+2s} pi^{n/2-1} s sin(pi s) Gamma(n/2+s) Gamma(s)

describes the tail in the unitary-frequency radial variable R = 2 pi |x|;
in the coordinates used here, |x|^{n+2s} H(x, 1, eta) -> alpha / (2 pi)^{n+2s}
(see ``heat_tail_constant``).  Both forms are exposed; the asymptotic
verification suite checks the literal-radius limit against
``heat_tail_constant``.

Every kernel takes |x| as a scalar or as a 1-D array of radii.  An array is
evaluated in one Hankel pass (``inversion.radial_inverse_fourier_many``),
each value bitwise equal to the scalar call at that radius; a scalar goes
through ``inversion.radial_inverse_fourier``.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import rgamma

from .fileio import atomic_write, write_json
from .inversion import (
    partition_end,
    radial_inverse_fourier,
    radial_inverse_fourier_many,
    radial_symbol_integral,
    sphere_surface_area,
)
from .params import DEFAULT_QUAD, KernelParams, operator_symbol
from .special import bessel_j, gamma

UNITARY_RADIUS_SCALE = 2.0 * np.pi  # unitary-frequency radius R = 2 pi |x|

_ENVELOPE_LOG_CUT = 60.0  # exp(-60) ~ 9e-27: where exponential envelopes die
_SQRT_MAX = math.sqrt(np.finfo(float).max)  # ~1.34e154: r * r overflows above it


def _invert(symbol, x_norm, n, quad, **options):
    """The inverse transform at a scalar |x|, or at each radius of a 1-D array."""
    if np.ndim(x_norm) == 0:
        return radial_inverse_fourier(symbol, x_norm, n, quad, **options)
    return radial_inverse_fourier_many(symbol, x_norm, n, quad, **options)


# ---------------------------------------------------------------------------
# profiles


@dataclass
class RadialProfile:
    """A tabulated radially symmetric function."""

    radii: np.ndarray
    values: np.ndarray
    params: KernelParams
    label: str

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.radii.ndim != 1 or self.radii.shape != self.values.shape:
            raise ValueError("radii and values must be 1-D arrays of equal length")
        if len(self.radii) > 1 and not np.all(np.diff(self.radii) > 0):
            raise ValueError("radii must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile values must be finite")

    def is_nonneg_nonincreasing(self):
        v = self.values
        return bool(np.all(v >= 0.0) and np.all(np.diff(v) <= 0.0))

    def write_csv(self, path, quad=None):
        path = str(path)
        atomic_write(path, "radius,value\n" + "\n".join(
            f"{r:.17g},{v:.17g}" for r, v in zip(self.radii, self.values)
        ))
        sidecar = {
            "label": self.label,
            "n": self.params.n,
            "s": self.params.s,
            "quad": None if quad is None else {
                "rel_tol": quad.rel_tol,
                "abs_tol": quad.abs_tol,
                "max_zeros": quad.max_zeros,
            },
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        base = path[:-4] if path.endswith(".csv") else path
        write_json(base + ".json", sidecar)


# ---------------------------------------------------------------------------
# heat kernels


def _heat_scales(t1, t2, s):
    cands = [1.0]
    if t1 > 0:
        cands.append(t1 ** (-1.0 / (2.0 * s)))
    if t2 > 0:
        cands.append(t2 ** -0.5)
    scale = min(cands)
    r_cut = min(
        (_ENVELOPE_LOG_CUT / t1) ** (1.0 / (2.0 * s)) if t1 > 0 else np.inf,
        (_ENVELOPE_LOG_CUT / t2) ** 0.5 if t2 > 0 else np.inf,
    )
    return scale, r_cut


def heat_kernel_two_scale(x_norm, t1, t2, params, quad=DEFAULT_QUAD):
    """Two-scale heat kernel: inverse transform of exp(-(t1 r^{2s} + t2 r^2)).

    ``x_norm`` is a scalar |x| or a 1-D array of radii.
    """
    if t1 < 0 or t2 < 0:
        raise ValueError("time weights must be nonnegative")
    if t1 == 0 and t2 == 0:
        raise ValueError("heat kernel is undefined for t1 = t2 = 0 (divergent integral)")
    s = params.s

    def symbol(r):
        return np.exp(-(t1 * r ** (2.0 * s) + t2 * r * r))

    scale, r_cut = _heat_scales(t1, t2, s)
    if not r_cut > 0.0:  # (60 / t1)^{1/(2s)} underflows where t1 is huge and s small
        raise ValueError(f"the heat envelope's cut underflows to {r_cut} at "
                         f"t1 = {t1}, s = {s}")
    return _invert(symbol, x_norm, params.n, quad, envelope_scale=scale, r_max=r_cut)


def heat_kernel(x_norm, t, params, quad=DEFAULT_QUAD):
    """Heat kernel H(x, t) = H(x, t, t) of the mixed operator, at a scalar |x| or 1-D radii."""
    if t <= 0:
        raise ValueError("t must be positive")
    return heat_kernel_two_scale(x_norm, t, t, params, quad)


def heat_kernel_rescaled(x_norm, t, params, quad=DEFAULT_QUAD, *, branch):
    """H(x, t, t) evaluated through one of its two exact rescaling identities.

    branch "2s":  t^{-n/(2s)} H(t^{-1/(2s)} x, 1, t^{1-1/s})
    branch "2":   t^{-n/2}    H(t^{-1/2} x,   t^{1-s}, 1)
    """
    n, s = params.n, params.s
    if branch == "2s":
        return t ** (-n / (2.0 * s)) * heat_kernel_two_scale(
            t ** (-1.0 / (2.0 * s)) * x_norm, 1.0, t ** (1.0 - 1.0 / s), params, quad
        )
    if branch == "2":
        return t ** (-n / 2.0) * heat_kernel_two_scale(
            t ** -0.5 * x_norm, t ** (1.0 - s), 1.0, params, quad
        )
    raise ValueError(f"unknown branch {branch!r}")


def asymptotic_alpha(params):
    """Tail constant 2^{n+2s} pi^{n/2-1} s sin(pi s) Gamma(n/2+s) Gamma(s)."""
    n, s = params.n, params.s
    return (
        2.0 ** (n + 2.0 * s)
        * np.pi ** (n / 2.0 - 1.0)
        * s
        * np.sin(np.pi * s)
        * gamma(n / 2.0 + s)
        * gamma(s)
    )


def heat_tail_constant(params):
    """Limit of |x|^{n+2s} H(x, 1, eta) in the coordinates used here.

    Equals asymptotic_alpha(params) / (2 pi)^{n+2s}; the division converts
    the unitary-frequency radius R = 2 pi |x| of the classical constant to
    this module's spatial variable.
    """
    n, s = params.n, params.s
    return asymptotic_alpha(params) / UNITARY_RADIUS_SCALE ** (n + 2.0 * s)


# ---------------------------------------------------------------------------
# Bessel-type kernels (rational symbols)


def _rational_kernel(symbol, x_norm, params, quad):
    """The inverse transform of a rational symbol, which squares r.

    Its partition runs to ``inversion.partition_end``, about
    max_zeros / (2 |x|); where that end's square overflows, the symbol would
    read inf or nan there, so such a radius raises ``ValueError`` before any
    panel is built (from |x| ~ 1.5e-152 at the default 400 zeros).  Above
    that floor, at n >= 4, the value itself (~|x|^{2-n}) or the integrand's
    r^{n/2} can still overflow: a radius whose value is not finite raises
    ``ValueError`` too, after the transform, which runs with numpy's
    overflow and invalid-value warnings off.
    """
    x = np.asarray(x_norm)
    if np.any(x < 0):
        raise ValueError("x_norm must be nonnegative")
    if np.any(x == 0.0) and params.n >= 2:
        raise ValueError("kernel is singular at the origin for n >= 2")
    if np.any(x > 0):
        smallest = float(x[x > 0].min())
        if not partition_end(smallest, params.n, quad) <= _SQRT_MAX:
            raise ValueError(
                f"|x| = {smallest:g} is too small: the Bessel-zero partition "
                f"ends past r = {_SQRT_MAX:.3g}, where the symbol's r^2 overflows")
    with np.errstate(over="ignore", invalid="ignore"):
        values = _invert(symbol, x_norm, params.n, quad, envelope_scale=0.5)
    overflowed = ~np.isfinite(values)
    if np.any(overflowed):
        radius = float(np.atleast_1d(x)[np.atleast_1d(overflowed)].max())
        raise ValueError(
            f"|x| = {radius:g} is too small: at n = {params.n} the kernel value "
            "or its integrand overflows there")
    return values


def bessel_kernel(x_norm, params, quad=DEFAULT_QUAD):
    """Bessel kernel: inverse transform of 1 / (1 + r^2 + r^{2s}), at a scalar |x| or 1-D radii."""
    return bessel_kernel_shifted(x_norm, 1.0, params, quad)


def bessel_kernel_shifted(x_norm, a, params, quad=DEFAULT_QUAD):
    """Shifted Bessel kernel: inverse transform of 1 / (a + r^2 + r^{2s}).

    ``x_norm`` is a scalar |x| or a 1-D array of radii.
    """
    if a <= 0:
        raise ValueError("shift a must be positive")
    s = params.s

    def symbol(r):
        return 1.0 / (a + operator_symbol(r * r, s))

    return _rational_kernel(symbol, x_norm, params, quad)


def resolvent_multiplier_kernel(x_norm, params, quad=DEFAULT_QUAD):
    """Kernel of (1 + r^{2s}) / (1 + r^2 + r^{2s}): the W^{2,p} multiplier.

    ``x_norm`` is a scalar |x| or a 1-D array of radii.
    """
    s = params.s

    def symbol(r):
        r_sq = r * r
        return (1.0 + r_sq ** s) / (1.0 + operator_symbol(r_sq, s))

    if np.any(np.asarray(x_norm) <= 0):
        raise ValueError("x_norm must be positive")
    return _rational_kernel(symbol, x_norm, params, quad)


def bessel_kernel_ball(x_norm, a, params, quad=DEFAULT_QUAD):
    """(K_a * 1_{B_rho})(|x|), rho = 1/2: the shifted Bessel kernel on a ball.

    ``x_norm`` is a scalar |x| or a 1-D array of radii outside the ball,
    |x| > rho; a radius at or inside it raises ``ValueError`` before any
    quadrature runs.

    The indicator of B_rho transforms to rho^{n/2} r^{-n/2} J_{n/2}(2 pi rho r),
    so the convolution is the inverse transform of that times the shifted
    Bessel symbol 1 / (a + r^2 + r^{2s}).
    """
    if a <= 0:
        raise ValueError("shift a must be positive")
    n, s = params.n, params.s
    rho = 0.5
    if np.any(np.asarray(x_norm) <= rho):
        raise ValueError("the ball convolution is evaluated only outside its ball, |x| > 1/2")

    def symbol(r):
        ball = rho ** (n / 2.0) * r ** (-n / 2.0) * bessel_j(n / 2.0, 2.0 * np.pi * rho * r)
        return ball / (a + operator_symbol(r * r, s))

    return _rational_kernel(symbol, x_norm, params, quad)


def bessel_kernel_time_integral(x_norm, params, quad=DEFAULT_QUAD):
    """Bessel kernel through its defining time integral int e^{-t} H(x,t) dt.

    Independent cross-check of ``bessel_kernel``; integrates quadrature heat
    kernel values, so it never touches the rational-symbol path.
    """
    from scipy import integrate

    val, _ = integrate.quad(
        lambda t: np.exp(-t) * heat_kernel(x_norm, t, params, quad),
        0.0,
        np.inf,
        epsabs=quad.abs_tol,
        epsrel=1e-9,
        limit=200,
    )
    return val


# label -> (evaluator, the per-kernel values it reads); each evaluator takes
# (radii, params, quad) and those values by keyword, and evaluates all the
# radii in one call.  The lambdas look the kernel functions up at call time,
# so a wrapper patched onto the module is used.
_KERNELS = {
    "heat": (lambda r, params, quad, t: heat_kernel(r, t, params, quad), ("t",)),
    "heat-two-scale": (
        lambda r, params, quad, t1, t2: heat_kernel_two_scale(r, t1, t2, params, quad),
        ("t1", "t2"),
    ),
    "bessel": (lambda r, params, quad: bessel_kernel(r, params, quad), ()),
    "bessel-shifted": (
        lambda r, params, quad, a: bessel_kernel_shifted(r, a, params, quad), ("a",)
    ),
    "resolvent-multiplier": (
        lambda r, params, quad: resolvent_multiplier_kernel(r, params, quad), ()
    ),
}


def tabulate_kernel(label, radii, params, quad=DEFAULT_QUAD, **extra):
    """Tabulate a named kernel on a radius grid.

    ``label`` is one of heat, heat-two-scale, bessel, bessel-shifted,
    resolvent-multiplier; keyword arguments supply exactly the per-kernel
    values that kernel reads (t, t1/t2, a).  Radii and values are checked
    before any quadrature runs, and all radii are evaluated in one kernel
    call.
    """
    if label not in _KERNELS:
        raise ValueError(f"unknown kernel label {label!r}")
    evaluate, reads = _KERNELS[label]
    missing = [key for key in reads if key not in extra]
    if missing:
        raise ValueError(f"kernel {label!r} needs " + ", ".join(f"--{k}" for k in missing))
    unread = [key for key in extra if key not in reads]
    if unread:
        raise ValueError(f"kernel {label!r} does not take "
                         + ", ".join(f"--{k}" for k in unread))
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0 or not np.all(np.isfinite(radii)):
        raise ValueError("radii must be a nonempty list of finite numbers")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    values = evaluate(radii, params, quad, **extra)
    return RadialProfile(radii=radii, values=values, params=params, label=label)


# ---------------------------------------------------------------------------
# two-sided heat-kernel bound verification


def heat_bound_check(points, params, quad=DEFAULT_QUAD):
    """Empirical ratios of H(x, t) against its two-sided bounds.

    Upper bound: H <= C1 * min(max(t, t^s) / x^{n+2s}, min(t^{-n/2s}, t^{-n/2})).
    Lower bounds (each on its stated regime):
      t / x^{n+2s}              for 1 < t < x^{2s};
      exp(-pi x^2 / t) t^{-n/2} for x^2 < t < x^{2s} < 1.
    The Gaussian factor is tested in its decaying form: the positive exponent
    in the published statement is inconsistent with the derivation and is
    treated as a sign typo.

    Returns a report dict; PASS means every upper ratio is finite and every
    applicable lower ratio is strictly positive, i.e. the sample exhibits
    uniform constants.
    """
    n, s = params.n, params.s
    pw = n + 2.0 * s
    rows = []
    rejected = []
    upper_ratios, lower_ratios = [], []
    for x, t in points:
        if x <= 0 or t <= 0:
            rejected.append({"x": x, "t": t, "reason": "requires x > 0 and t > 0"})
            continue
        H = heat_kernel(x, t, params, quad)
        ub = min(max(t, t ** s) / x ** pw, min(t ** (-n / (2.0 * s)), t ** (-n / 2.0)))
        row = {"x": x, "t": t, "H": H, "upper_bound": ub, "upper_ratio": H / ub}
        upper_ratios.append(H / ub)
        regimes = []
        if 1.0 < t < x ** (2.0 * s):
            lb = t / x ** pw
            row["lower_ratio_tail"] = H / lb
            lower_ratios.append(H / lb)
            regimes.append("tail")
        if x * x < t < x ** (2.0 * s) < 1.0:
            lb = np.exp(-np.pi * x * x / t) * t ** (-n / 2.0)
            row["lower_ratio_gaussian"] = H / lb
            lower_ratios.append(H / lb)
            regimes.append("gaussian")
        row["lower_regimes"] = regimes
        rows.append(row)
    ok = (
        len(rows) > 0
        and all(np.isfinite(r) for r in upper_ratios)
        and all(r > 0 for r in lower_ratios)
    )
    return {
        "check": "heat-kernel-two-sided-bounds",
        "n": n,
        "s": s,
        "points": rows,
        "rejected": rejected,
        "upper_ratio_max": max(upper_ratios) if upper_ratios else None,
        "lower_ratio_min": min(lower_ratios) if lower_ratios else None,
        "gaussian_bound_sign": "decaying exponent (statement sign treated as typo)",
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# identities used by the verification suites


_MASS_SPLIT = 30.0  # heat_kernel_mass: quadrature inside, far-field series outside
_PLANCHEREL_PANELS = 160  # plancherel_pairing: geometric panels of the spatial side


def _far_field_coefficient(a, n):
    """C(a) = pi^{-a-n/2} Gamma((n+a)/2) / Gamma(-a/2): the transform of |xi|^a.

    ``int |xi|^a exp(2 pi i x.xi) d xi = C(a) |x|^{-n-a}`` away from x = 0, so
    expanding the heat symbol exp(-t (k^2 + k^{2s})) in powers k^{2sj+2m}
    gives the far field sum_{j,m} (-t)^{j+m} / (j! m!) C(2sj+2m)
    |x|^{-n-2sj-2m}, up to terms exponentially small in |x|.  C vanishes at
    even integers a, and -C(2s) is ``heat_tail_constant``.
    """
    return np.pi ** (-a - n / 2.0) * gamma((n + a) / 2.0) * rgamma(-a / 2.0)


def heat_kernel_mass(t, params, quad=DEFAULT_QUAD):
    """Radial integral of H(., t) over R^n; equals 1 for every t > 0.

    Integrates the kernel out to R = 30 by adaptive quadrature and closes with
    the far-field series (``_far_field_coefficient``), whose term in |x|^{-n-a}
    integrates to R^{-a} / a beyond R.  At small s the terms shrink only
    like (t R^{-2s})^j / j!, so it sums j <= 12, m <= 1: at t <= 2 they leave
    1.9e-9 of the mass at (n, s) = (2, 0.1) and 5.2e-9 at (3, 0.25), where
    j <= 4 left 1.3e-3 and 1.1e-6 and the first term alone 0.2 and 1.3e-2.
    """
    from scipy import integrate

    n, s = params.n, params.s
    val, _ = integrate.quad(
        lambda r: heat_kernel(r, t, params, quad) * r ** (n - 1),
        0.0,
        _MASS_SPLIT,
        epsabs=1e-12,
        epsrel=1e-8,
        limit=300,
    )
    tail = 0.0
    for j in range(1, 13):
        for m in range(2):
            a = 2.0 * s * j + 2.0 * m
            tail += ((-t) ** (j + m) / (math.factorial(j) * math.factorial(m))
                     * _far_field_coefficient(a, n) * _MASS_SPLIT ** -a / a)
    return sphere_surface_area(n) * (val + tail)


def plancherel_pairing(params, sigmas, quad=DEFAULT_QUAD):
    """Both sides of the Parseval identity for K against Gaussian test functions.

    Test function phi(x) = exp(-|x|^2 / sigma^2), whose transform is
    (sigma sqrt(pi))^n exp(-pi^2 sigma^2 |xi|^2).  The spatial side integrates
    a tabulated K profile, tabulated once for all ``sigmas``; the frequency
    side integrates the symbol directly.  Returns one (spatial_side,
    frequency_side) pair per sigma, in order.
    """
    n, s = params.n, params.s
    area = sphere_surface_area(n)

    # spatial side: composite Gauss-Legendre on a geometric panel mesh over
    # [1e-4, 40], after one panel [0, 1e-4], so the origin singularity of K
    # (log for n = 2, power for n >= 3) is resolved
    edges = np.geomspace(1e-4, 40.0, _PLANCHEREL_PANELS + 1)
    edges = np.concatenate(([0.0], edges))
    gl_x, gl_w = np.polynomial.legendre.leggauss(12)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * gl_x)
        weights.append(half * gl_w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    prof = tabulate_kernel("bessel", nodes, params, quad)

    pairs = []
    for sigma in sigmas:
        phi = np.exp(-(nodes ** 2) / sigma ** 2)
        spatial = area * np.sum(weights * prof.values * phi * nodes ** (n - 1))

        def freq_symbol(r):
            return (sigma * np.sqrt(np.pi)) ** n * np.exp(
                -np.pi ** 2 * sigma ** 2 * r * r
            ) / (1.0 + operator_symbol(r * r, s))

        pairs.append((spatial, radial_symbol_integral(freq_symbol, n, quad)))
    return pairs
