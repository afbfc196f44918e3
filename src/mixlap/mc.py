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
* Given A, X = G + sqrt(2 A) Z is exactly N(0, (sigma^2 + 2 A) I), so the
  sampler draws A and then one standard normal row per sample, scaled by
  sqrt(sigma^2 + 2 A).  That is the one draw (``_sample_chunk``).

Plan: both paths split ``count`` samples into the same sub-batches of
``_SUB_BATCH`` rows, each drawn from a generator spawned from ``seed`` in
order (``_sub_batches``), so they draw the same points.

Trig: every sine and cosine here comes from t = tan(phi / 2), as
sin phi = 2 t / (1 + t^2) and cos phi = 1 - 2 t^2 / (1 + t^2) (``_sin``,
``_cos``).  Halving phi is exact, so each value is as accurate as ``np.tan``:
the cosine within 4.5e-16 absolute of ``np.cos`` over |phi| <= 1e15, the sine
within 4.5e-16 relative of ``np.sin`` on (0, pi), and non-finite phases give
nan.  The gain rests on numpy's float64 ``tan`` being vectorised where its
``sin`` and ``cos`` are not, as on x86-64 CPUs with AVX-512
(``numpy.show_config()`` lists the SIMD extensions found): on a 2-core
AVX-512 Xeon a cosine takes 4.7 ns against 14.7 ns for ``np.cos``.  Where
numpy's ``tan`` runs scalar, the identities cost about what ``np.cos`` does;
there is no second path.

Memory: a stored batch (``sample_mixed``) is one ``(count, n)`` points array.
The sampler draws each sub-batch straight into its rows, with three
sub-batch-long vectors as temporaries; Kanter's sines borrow the rows, unused
until the Gaussian draw, as their scratch.  The characteristic-function and
shell-density checks walk those rows in blocks, the cosines of a block taking
one block row of scratch, so nothing else a check allocates grows with
``count``.  ``stream_checks`` runs both checks without that array: each
sub-batch is drawn into its own rows, reduced block by block into the cosine
sums and shell counts, and dropped, so its memory is that of the sub-batches
in flight (about 13 MB at n = 3 with two workers, against 24 MB of points at
10^6 samples).  Both paths feed the same block statistics and report
builders.  ``stream_checks`` is the pass ``mc-validate`` runs; the stored
batch is its serial reference.

Shift: each frequency's cosines are summed less the closed-form target, the
value the report compares against, so the sum of squares does not cancel when
the spread is small against the mean, and no block has to be reduced before
the others.

Threads: only ``stream_checks`` uses them.  Its sub-batches are independent
units of work, mapped over ``worker_count()`` threads (at most two; numpy
releases the GIL in this work), while the calling thread computes the
density check's heat-kernel values.  A sub-batch draws from its own spawned
generator into its own rows, and the blocks' partial sums are added in block
order, so every result is bitwise the same whatever the worker count, and
equal to the stored batch's checks, which run on the calling thread.  At
most two sub-batches, and so two sub-batches' temporaries, are in flight at
a time.

Input: ``t`` must be finite and positive and ``count`` at least 1, or
``sample_mixed`` raises ``ValueError``; the characteristic-function check
needs ``count >= 2`` for its ``ddof=1`` standard error.  ``stream_checks``
raises these errors before it draws anything.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .inversion import sphere_surface_area
from .kernels import heat_kernel
from .params import DEFAULT_QUAD, KernelParams, operator_symbol
from .special import gamma

_MIN_SHELL_COUNT = 50
_N_SIGMA = 3.0  # a check passes when every statistic is within 3 standard errors
_SUB_BATCH = 1 << 17  # sampling is split into sub-batches with spawned sub-seeds
# The statistics walk the points a quarter sub-batch at a time: a block's
# phases and its 2 pi-scaled rows then take ~2 MB at n = 3 and five frequencies.
_BLOCK = _SUB_BATCH // 4


def worker_count():
    """Threads the oracle maps its work over: two, or one on a one-CPU process.

    Two is the cap, not a tuning value: the sampler's and the checks' memory
    bounds allow two units of work in flight at a time.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


@dataclass
class SampleBatch:
    """Draws of the mixture process at a fixed time."""

    t: float
    params: KernelParams
    seed: int
    points: np.ndarray  # (count, n)


def _half_angle_tan(phase, scratch):
    """t = tan(phase / 2) in place, and 1 + t^2 into ``scratch``.

    Halving is exact, so t is as accurate as ``np.tan`` itself.
    """
    phase *= 0.5
    np.tan(phase, out=phase)
    np.multiply(phase, phase, out=scratch)
    scratch += 1.0


def _sin(phase, scratch):
    """sin(phase) in place as 2t / (1 + t^2), t = tan(phase / 2).

    ``scratch`` is a float array of the same length, overwritten.  Returns
    ``phase``.
    """
    _half_angle_tan(phase, scratch)
    phase *= 2.0
    phase /= scratch
    return phase


def _cos(phase, scratch):
    """cos(phase) in place as 1 - 2 t^2 / (1 + t^2), t = tan(phase / 2).

    Not 2 / (1 + t^2) - 1, which loses about an ulp where the cosine is near
    1.  ``scratch`` is a float array of the same length, overwritten.
    Returns ``phase``.
    """
    _half_angle_tan(phase, scratch)
    phase *= phase
    phase /= scratch
    phase *= -2.0
    phase += 1.0
    return phase


def _one_sided_stable(s, size, rng, scratch):
    """One-sided s-stable draws normalized to E exp(-lambda A) = exp(-lambda^s).

    Kanter's construction: with U uniform on (0, pi) and W standard
    exponential,

        A = (a(U) / W)^{(1-s)/s},
        a(u) = sin(s u)^{s/(1-s)} sin((1-s) u) / sin(u)^{1/(1-s)}.

    Evaluated in place on the draws, in the order of the formula; W is drawn
    after U, as the stream has it, once the work on U has freed a buffer.
    ``scratch``, a float array of ``size`` entries whose contents are
    overwritten, holds the sines' temporaries.
    """
    u = rng.uniform(0.0, np.pi, size)
    a = _sin(np.multiply(s, u), scratch)
    a **= s / (1.0 - s)
    b = np.multiply(1.0 - s, u)
    a *= _sin(b, scratch)
    _sin(u, scratch)
    u **= 1.0 / (1.0 - s)
    a /= u
    a /= rng.standard_exponential(out=b)
    a **= (1.0 - s) / s
    return a


def _sample_chunk(t, params, out, rng):
    """Fill the rows of ``out`` with draws of X(t) from ``rng``.

    Given A, X = G + sqrt(2 A) Z is N(0, (sigma^2 + 2 A) I), so a row is one
    Gaussian row scaled by sqrt(sigma^2 + 2 A): A is drawn first, then Z.
    """
    count = len(out)
    s = params.s
    c = t * (2.0 * np.pi) ** (-2.0 * s)
    # the rows are unused until the Gaussian draw: they lend Kanter its scratch
    a = _one_sided_stable(s, count, rng, out.reshape(-1)[:count])
    a *= c ** (1.0 / s)
    a *= 2.0
    a += t / (2.0 * np.pi ** 2)
    rng.standard_normal(out=out)
    out *= np.sqrt(a, out=a)[:, None]


def _check_sampling(t, count):
    if not (np.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and positive, got {t}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")


def _sub_batches(count, seed):
    """The plan: each sub-batch's first row and its generator's seed."""
    starts = range(0, count, _SUB_BATCH)
    return zip(starts, np.random.SeedSequence(seed).spawn(len(starts)))


def sample_mixed(t, params, count, seed):
    """Sample ``count`` draws of X(t); deterministic in (seed, parameters).

    Each sub-batch of the plan (``_sub_batches``), those of ``stream_checks``,
    is drawn on the calling thread straight into its rows of the one
    ``(count, n)`` points array.
    """
    _check_sampling(t, count)
    points = np.empty((count, params.n))
    for start, child in _sub_batches(count, seed):
        _sample_chunk(t, params, points[start:start + _SUB_BATCH],
                      np.random.default_rng(child))
    return SampleBatch(t=t, params=params, seed=seed, points=points)


def _blocks(points):
    """Consecutive row blocks of ``points``, ``_BLOCK`` rows each."""
    return [points[start:start + _BLOCK] for start in range(0, len(points), _BLOCK)]


# -- block statistics, fed by a stored batch or by the streamed sub-batches


def _cosine_sums(block, xis, shift):
    """(sum, sum of squares) of the block's cosines cos(2 pi xi . x) less
    ``shift``, one entry per frequency.

    The phases are laid out (frequency, row), so both reductions run along
    contiguous rows.
    """
    re = xis @ (2.0 * np.pi * block).T
    scratch = np.empty(re.shape[1])
    for row in re:
        _cos(row, scratch)
    re -= shift[:, None]
    return re.sum(axis=1), np.array([row @ row for row in re])


def _radii(block):
    """|x| of each row, its squares summed column by column: bitwise
    ``np.linalg.norm(block, axis=1)``."""
    squares = block[:, 0] * block[:, 0]
    for column in block.T[1:]:
        squares += column * column
    return np.sqrt(squares, out=squares)


def _shell_counts(block, edges):
    return np.histogram(_radii(block), bins=edges)[0]


def _check_char_count(count):
    if count < 2:
        raise ValueError(f"a standard error needs count >= 2, got count {count}")


def _shell_edges(radii):
    edges = np.asarray(radii, dtype=float)
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("radii must be increasing shell edges")
    return edges


def _shell_volumes(edges, n):
    unit_ball = np.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)
    return unit_ball * (edges[1:] ** n - edges[:-1] ** n)


def _shell_probabilities(edges, t, params, quad):
    """Heat-kernel mass of each shell: an 8-node Gauss rule in the radius.

    One ``heat_kernel`` call evaluates every shell's nodes, a row of 8 per
    shell.
    """
    n = params.n
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * gl_x
    kern = heat_kernel(nodes.ravel(), t, params, quad).reshape(nodes.shape)
    masses = np.sum(half[:, None] * gl_w * kern * nodes ** (n - 1), axis=1)
    return sphere_surface_area(n) * masses


# -- reports


def _char_target(t, params, xis):
    """The closed-form E cos(2 pi xi . X) at each frequency."""
    r = np.linalg.norm(xis, axis=1)
    return np.exp(-t * operator_symbol(r ** 2, params.s))


def _char_report(xis, target, parts, count):
    """The report of the blocks' (sum, sum of squares) of cosines less
    ``target``, the closed form at ``xis``: the sums are added in block order
    into each frequency's mean and ``ddof=1`` standard error."""
    total = squares = 0.0
    for block_total, block_squares in parts:
        total += block_total
        squares += block_squares
    var = (squares - total * total / count) / (count - 1)
    vals = target + total / count
    ses = np.sqrt(np.maximum(var, 0.0)) / np.sqrt(count)
    rows = [
        {
            "xi": list(map(float, xi)),
            "empirical": float(v),
            "expected": float(tg),
            "standard_error": float(se),
            # no spread: 0 for an exact estimate, else None, a failure (JSON has no inf)
            "sigmas": float(abs(v - tg) / se) if se > 0 else (0.0 if v == tg else None),
        }
        for xi, v, tg, se in zip(xis, vals, target, ses)
    ]
    return {
        "check": "characteristic-function",
        "n_sigma": _N_SIGMA,
        "frequencies": rows,
        "pass": all(row["sigmas"] is not None and row["sigmas"] <= _N_SIGMA
                    for row in rows),
    }


def _density_report(edges, counts, probs, t, n, count, seed):
    vols = _shell_volumes(edges, n)
    shells = []
    excluded = []
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        prob = probs[i]
        expected_count = prob * count
        density_pred = prob / vols[i]
        density_obs = counts[i] / (count * vols[i])
        se = np.sqrt(max(prob * (1.0 - prob), 1e-300) / count) / vols[i]
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
        "t": t,
        "count": count,
        "seed": seed,
        "n_sigma": _N_SIGMA,
        "shells": shells,
        "excluded": excluded,
        "pass": bool(shells) and all(s["sigmas"] <= _N_SIGMA for s in shells),
    }


# -- the checks of a stored batch


def validate_char_function(batch, xis):
    """Check the defining Fourier identity at the given frequencies.

    E exp(2 pi i xi . X) is estimated by the mean cosine, block by block (the
    law is symmetric), with a ``ddof=1`` standard error: ``count >= 2``.
    PASS iff every frequency's estimate lies within 3 standard errors of the
    closed form.
    """
    count = len(batch.points)
    _check_char_count(count)
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    shift = _char_target(batch.t, batch.params, xis)
    parts = [_cosine_sums(block, xis, shift) for block in _blocks(batch.points)]
    return _char_report(xis, shift, parts, count)


def compare_density(batch, radii, quad=DEFAULT_QUAD):
    """Shell-histogram densities versus quadrature heat-kernel values.

    ``radii`` are the shell edges.  Each shell's empirical density
    (count / (total * shell volume)) is compared with the kernel averaged
    over the shell; shells whose expected count is below 50 are excluded
    and flagged.  PASS iff all retained shells agree within 3 combined
    standard errors.  Shell counts are taken block by block.
    """
    edges = _shell_edges(radii)
    counts = np.sum([_shell_counts(block, edges) for block in _blocks(batch.points)],
                    axis=0)
    probs = _shell_probabilities(edges, batch.t, batch.params, quad)
    return _density_report(edges, counts, probs, batch.t, batch.params.n,
                           len(batch.points), batch.seed)


# -- both checks in one streamed pass


def stream_checks(t, params, count, seed, xis, radii, quad=DEFAULT_QUAD):
    """Both checks of ``sample_mixed(t, params, count, seed)`` with no points array.

    Returns ``(char_report, density_report, timings)``, the reports equal to
    ``validate_char_function`` and ``compare_density`` of that batch.  Each
    pool worker draws one sub-batch with its spawned generator, reduces it
    block by block into the cosine sums and the shell counts, and drops it.
    Every sub-batch is mapped over the workers at once, while the calling
    thread computes the shell probabilities: the heat-kernel values stay on
    that thread.  ``timings`` holds the seconds of that quadrature, the
    seconds of the whole pass and the samples drawn per second of it.
    """
    _check_sampling(t, count)
    _check_char_count(count)
    edges = _shell_edges(radii)
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    shift = _char_target(t, params, xis)
    plan = _sub_batches(count, seed)

    def draw_and_reduce(job):
        start, child = job
        rows = np.empty((min(_SUB_BATCH, count - start), params.n))
        _sample_chunk(t, params, rows, np.random.default_rng(child))
        blocks = _blocks(rows)
        return ([_cosine_sums(block, xis, shift) for block in blocks],
                sum(_shell_counts(block, edges) for block in blocks))

    t0 = time.perf_counter()
    with ThreadPoolExecutor(worker_count()) as pool:
        results = pool.map(draw_and_reduce, plan)
        probs = _shell_probabilities(edges, t, params, quad)
        quad_s = time.perf_counter() - t0
        parts = []
        counts = 0
        for more_parts, more_counts in results:
            parts += more_parts
            counts = counts + more_counts
    pass_s = time.perf_counter() - t0
    char = _char_report(xis, shift, parts, count)
    density = _density_report(edges, counts, probs, t, params.n, count, seed)
    timings = {"quadrature_s": quad_s, "pass_s": pass_s,
               "samples_per_s": count / pass_s}
    return char, density, timings
