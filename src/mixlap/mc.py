"""Monte-Carlo oracle for the mixed heat kernel.

Samples the time-t marginal of the mixture process X = G + S, where G is a
Brownian increment and S an independent isotropic 2s-stable increment, and
compares shell-histogram densities against quadrature values of the heat
kernel.  The law of X is fixed by the Fourier identity

    E exp(2 pi i xi . X) = exp(-t (|xi|^2 + |xi|^{2s})),

from which all sampler constants follow:

* Gaussian part: E exp(i theta . G) = exp(-|theta|^2 sigma^2 / 2) must equal
  exp(-t |xi|^2) at theta = 2 pi xi, so the per-coordinate variance is
  sigma^2 = t / (2 pi^2).
* Stable part by Gaussian subordination: S = sqrt(2 A) Z with Z standard
  normal gives E exp(i theta . S) = E exp(-A |theta|^2).  With A_1 a
  one-sided s-stable variable normalized to E exp(-lambda A_1) =
  exp(-lambda^s) (Kanter's construction) and A = c^{1/s} A_1 where
  c = t (2 pi)^{-2s}, this equals exp(-c |theta|^{2s}) = exp(-t |xi|^{2s})
  at theta = 2 pi xi.
"""

import json
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write
from .kernels import heat_kernel
from .params import DEFAULT_QUAD, KernelParams
from .special import gamma

_MIN_SHELL_COUNT = 50
_SUB_BATCH = 1 << 17  # sampling is split into sub-batches with spawned sub-seeds


@dataclass
class SampleBatch:
    """Draws of the mixture process at a fixed time."""

    t: float
    params: KernelParams
    count: int
    seed: int
    points: np.ndarray
    mode: str = "mixed"

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.shape != (self.count, self.params.n):
            raise ValueError("points must have shape (count, n)")

    def write_csv(self, path):
        header = ",".join(f"x{i + 1}" for i in range(self.params.n))
        np.savetxt(str(path), self.points, delimiter=",", header=header, comments="")


def _one_sided_stable(s, size, rng):
    """One-sided s-stable draws normalized to E exp(-lambda A) = exp(-lambda^s).

    Kanter's construction: with U uniform on (0, pi) and W standard
    exponential,

        A = (a(U) / W)^{(1-s)/s},
        a(u) = sin(s u)^{s/(1-s)} sin((1-s) u) / sin(u)^{1/(1-s)}.
    """
    u = rng.uniform(0.0, np.pi, size)
    w = rng.standard_exponential(size)
    a = (
        np.sin(s * u) ** (s / (1.0 - s))
        * np.sin((1.0 - s) * u)
        / np.sin(u) ** (1.0 / (1.0 - s))
    )
    return (a / w) ** ((1.0 - s) / s)


def _sample_chunk(t, params, count, rng, mode):
    n, s = params.n, params.s
    pts = np.zeros((count, n))
    if mode in ("mixed", "gaussian"):
        sigma = np.sqrt(t / (2.0 * np.pi ** 2))
        pts += sigma * rng.standard_normal((count, n))
    if mode in ("mixed", "stable"):
        c = t * (2.0 * np.pi) ** (-2.0 * s)
        a = c ** (1.0 / s) * _one_sided_stable(s, count, rng)
        pts += np.sqrt(2.0 * a)[:, None] * rng.standard_normal((count, n))
    return pts


def sample_mixed(t, params, count, seed, mode="mixed"):
    """Sample ``count`` draws of X(t); deterministic in (seed, parameters).

    ``mode`` disables one component for convention gating: "gaussian" keeps
    only the Brownian part, "stable" only the 2s-stable part.  Sampling is
    split into fixed-size sub-batches whose generators are spawned from the
    master SeedSequence in order, so the result is independent of how the
    work would be distributed.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if mode not in ("mixed", "gaussian", "stable"):
        raise ValueError(f"unknown mode {mode!r}")
    master = np.random.SeedSequence(seed)
    n_chunks = (count + _SUB_BATCH - 1) // _SUB_BATCH
    children = master.spawn(n_chunks)
    chunks = []
    remaining = count
    for child in children:
        m = min(_SUB_BATCH, remaining)
        chunks.append(_sample_chunk(t, params, m, np.random.default_rng(child), mode))
        remaining -= m
    return SampleBatch(
        t=t, params=params, count=count, seed=seed,
        points=np.concatenate(chunks, axis=0), mode=mode,
    )


def empirical_char_function(batch, xis):
    """Empirical E exp(2 pi i xi . X) with per-frequency standard errors.

    Returns (values, standard_errors); by symmetry of the law the imaginary
    part is pure noise and the real part carries the symbol.
    """
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    phases = 2.0 * np.pi * batch.points @ xis.T
    re = np.cos(phases)
    vals = re.mean(axis=0)
    ses = re.std(axis=0, ddof=1) / np.sqrt(batch.count)
    return vals, ses


def validate_char_function(batch, xis, n_sigma=3.0):
    """Check the defining Fourier identity at the given frequencies."""
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    vals, ses = empirical_char_function(batch, xis)
    r = np.linalg.norm(xis, axis=1)
    target = np.exp(-batch.t * (r ** 2 + r ** (2.0 * batch.params.s)))
    if batch.mode == "gaussian":
        target = np.exp(-batch.t * r ** 2)
    elif batch.mode == "stable":
        target = np.exp(-batch.t * r ** (2.0 * batch.params.s))
    rows = [
        {
            "xi": list(map(float, xi)),
            "empirical": float(v),
            "expected": float(tg),
            "standard_error": float(se),
            "sigmas": float(abs(v - tg) / se) if se > 0 else np.inf,
        }
        for xi, v, tg, se in zip(xis, vals, target, ses)
    ]
    return {
        "check": "characteristic-function",
        "mode": batch.mode,
        "n_sigma": n_sigma,
        "frequencies": rows,
        "pass": bool(all(row["sigmas"] <= n_sigma for row in rows)),
    }


def _shell_volumes(edges, n):
    unit_ball = np.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)
    return unit_ball * (edges[1:] ** n - edges[:-1] ** n)


def compare_density(batch, radii, quad=DEFAULT_QUAD, n_sigma=3.0):
    """Shell-histogram densities versus quadrature heat-kernel values.

    ``radii`` are the shell edges.  Each shell's empirical density
    (count / (total * shell volume)) is compared with the kernel averaged
    over the shell; shells whose expected count is below 50 are excluded
    and flagged.  PASS iff all retained shells agree within ``n_sigma``
    combined standard errors.
    """
    edges = np.asarray(radii, dtype=float)
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("radii must be increasing shell edges")
    n = batch.params.n
    r = np.linalg.norm(batch.points, axis=1)
    counts, _ = np.histogram(r, bins=edges)
    vols = _shell_volumes(edges, n)

    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    area = 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)
    shells = []
    excluded = []
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes = mid + half * gl_x
        kern = np.array([heat_kernel(x, batch.t, batch.params, quad) for x in nodes])
        prob = area * np.sum(half * gl_w * kern * nodes ** (n - 1))
        expected_count = prob * batch.count
        density_pred = prob / vols[i]
        density_obs = counts[i] / (batch.count * vols[i])
        se = np.sqrt(max(prob * (1.0 - prob), 1e-300) / batch.count) / vols[i]
        row = {
            "r_lo": float(lo),
            "r_hi": float(hi),
            "count": int(counts[i]),
            "expected_count": float(expected_count),
            "density_observed": float(density_obs),
            "density_predicted": float(density_pred),
            "standard_error": float(se),
            "sigmas": float(abs(density_obs - density_pred) / se),
        }
        if expected_count < _MIN_SHELL_COUNT:
            row["excluded"] = "expected count below threshold"
            excluded.append(row)
        else:
            shells.append(row)
    return {
        "check": "shell-density",
        "t": batch.t,
        "count": batch.count,
        "seed": batch.seed,
        "n_sigma": n_sigma,
        "shells": shells,
        "excluded": excluded,
        "pass": bool(shells) and all(s["sigmas"] <= n_sigma for s in shells),
    }


def write_report(path, report):
    atomic_write(str(path), json.dumps(report, indent=2))
