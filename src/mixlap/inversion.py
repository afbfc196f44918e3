"""Radial Fourier inversion by partitioned Hankel quadrature.

Evaluates integrals of the form

    F(x) = int_{R^n} g(|xi|) e^{2 pi i x.xi} d xi
         = 2 pi q^{1 - n/2} int_0^inf g(r) r^{n/2} J_{n/2-1}(2 pi q r) dr,

with q = |x| > 0.  The half line is partitioned at the zeros of the Bessel
factor; each subinterval is integrated with fixed-order Gauss-Legendre
panels (geometrically graded toward r = 0 to absorb the |xi|^{2s} cusp of
the symbols used here).  After the head [0, first zero], the zero intervals
are integrated ``_BLOCK`` at a time, one term per interval.  After each
block Wynn's epsilon algorithm extrapolates the last 40 partial sums, and
the sum stops once its error estimate meets the tolerance and agrees with
the previous block's extrapolation to that same tolerance, or, where the
partition ends, once the estimate alone meets the tolerance.  This is the
only stop.  Where the partition goes on past block 1, block 1's test cannot
stop the sum, as no extrapolation precedes it; its extrapolation is then
read off the epsilon table of the first two blocks' sums, which block 2's
test builds anyway, and no table of block 1's own is built.
``QuadratureSpec.max_zeros`` (or the caller's ``r_max``) caps the partition,
and an ``r_max`` before the first zero leaves only the head, on [0, r_max];
a sum that has not converged by then raises ``AccuracyError``.

Panels.  A panel on [lo, hi] is at most max(w, ``_REL_WIDTH`` lo) wide, where
w is half the caller's ``envelope_scale`` (no less than 1e-8): the symbols
used here vary on a scale proportional to r away from the origin, and w
resolves them near it.  Every call states its ``envelope_scale``, so this
one rule sets every panel.  The head's breaks are the dyadic ladder
first 2^-30, ..., first/2, first, 2 first, ... up to its end, with
first = min(w, end), so the 31 intervals below first take one panel each
and each interval above it at most 2.  A zero interval takes at most 4
(the widest relative to its left end is the first at n = 1, [pi/2, 3 pi/2]
over 2 pi |x|; rounding can make that one 5, but its block then takes 21).
So a head takes at most 31 + 2 ceil(log2(end / first)) panels, at most 2,133
for any finite end, a block at most 64, and a pass of ``_BATCH`` radii (a
head and two blocks each) at most 16 (2,133 + 128) = 36,176, whatever the
kernel.

Batches of radii.  ``radial_inverse_fourier_many`` evaluates one symbol at
an array of radii in one pass.  The stop needs two blocks' extrapolations
to agree wherever the partition goes on, so no sum stops before its second
block and every radius with a second block reaches it.  The first pass
therefore panelizes every radius's graded head together with its first two
blocks (or its one block, where the partition ends there) and integrates
them as one run of panels, with a = 2 pi |x| set per panel: it builds no
panel a radius does not use.  The loop's first two tests read their terms
from that pass; each later block of every radius still summing gets a pass
of its own.  One ``bincount`` over (radius, interval) maps a pass's panels
back to their terms.  Everything that decides a value stays per radius:
the stopping test, the tolerances, ``r_max``, x = 0 and ``AccuracyError``.
Each panel, term and partial sum is the one a one-radius call computes, so
every value is bitwise equal to ``radial_inverse_fourier`` at that radius,
which is this engine on one radius.

Memory.  Integrating a panel holds about 1 kB (nodes, symbol and Bessel
values at 24 nodes each), so radii go through ``_BATCH`` = 16 at a time and
a pass is integrated in one integrand call: it stays under about 36 MiB at
the panel bound above, and near 1 MiB at the few hundred panels a typical
radius needs, where the 1,932 radii of a Plancherel tabulation in one pass
reach 88 MiB.
"""

import functools
import itertools
import math

import numpy as np

from .errors import AccuracyError
from .params import DEFAULT_QUAD
from .special import bessel_j, bessel_j_zeros, gamma

_GL_ORDER = 24
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)
_HEAD_LEVELS = 30  # dyadic grading depth toward r = 0
_GRADING = 0.5 ** np.arange(_HEAD_LEVELS, 0, -1)
_NORMAL_MIN = np.finfo(float).tiny
_BLOCK = 16  # zero intervals integrated between two convergence tests
_BATCH = 16  # radii integrated together (module docstring, "Memory")
_REL_WIDTH = 0.5  # panel width cap relative to the panel's left end ("Panels")


def sphere_surface_area(n):
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)


@functools.lru_cache(maxsize=64)
def _cached_zeros(nu, count):
    return bessel_j_zeros(nu, count)


def partition_end(x_norm, n, quad):
    """Where the Bessel-zero partition at |x| = x_norm > 0 ends, with no ``r_max``:
    the ``quad.max_zeros``-th zero of J_{n/2-1} over 2 pi |x|."""
    last = float(_cached_zeros(n / 2.0 - 1.0, int(quad.max_zeros))[-1])
    return last / (2.0 * math.pi * x_norm)  # a float quotient: inf, not a warning


def _panel_counts(lo, hi, w_cap):
    """Panels for each interval [lo[i], hi[i]], each at most max(w_cap, _REL_WIDTH * lo) wide."""
    return np.ceil((hi - lo) / np.maximum(w_cap, _REL_WIDTH * lo))


def _panelize(lo, hi, m):
    """Split each interval [lo[i], hi[i]] into m[i] equal panels.

    Interval i's k-th panel edge is k * ((hi - lo) / m_i) + lo and its last
    edge is exactly hi, which is ``np.linspace(lo, hi, m_i + 1)`` to the bit.
    Returns the panels' left and right ends and each panel's interval.
    """
    ends = np.cumsum(m)
    owner = np.repeat(np.arange(len(m)), m)  # interval of each panel
    k = np.arange(ends[-1]) - (ends - m)[owner]  # panel index within its interval
    p_lo = k * ((hi - lo) / m)[owner] + lo[owner]
    # each panel ends where the next of its interval begins
    p_hi = np.empty_like(p_lo)
    p_hi[:-1] = p_lo[1:]
    p_hi[ends - 1] = hi
    return p_lo, p_hi, owner


def _head_breaks(hi, w_cap):
    """Breaks of the head [0, hi], geometrically refined toward 0."""
    first = min(hi, w_cap)
    # continue the dyadic ladder upward so [first, hi] never degenerates into
    # one long interval whose relative panel cap is set by its small left end
    up = [first]
    while up[-1] < hi:
        up.append(min(2.0 * up[-1], hi))
    breaks = np.concatenate(([0.0], first * _GRADING, up))
    # strictly increasing already, unless the grading underflowed and repeats
    return breaks if first * _GRADING[0] >= _NORMAL_MIN else np.unique(breaks)


def _gl_integrate(integrand, los, his, a):
    """Vectorized Gauss-Legendre over a batch of panels; returns per-panel integrals.

    ``a`` is a column of each panel's 2 pi |x|; the integrand takes the nodes
    r and a * r.
    """
    mid = 0.5 * (los + his)[:, None]
    half = 0.5 * (his - los)[:, None]
    nodes = mid + half * _GL_X[None, :]
    vals = integrand(nodes.ravel(), (a * nodes).ravel()).reshape(nodes.shape)
    return (vals * _GL_W[None, :] * half).sum(axis=1)


def _integrate_pass(integrand, a, pieces, w_cap):
    """Panel integrals over the intervals of several pieces, in one integrand call.

    ``pieces[i]`` holds the breaks of a run of intervals (a head or a block)
    and a[i] is the 2 pi |x| of its radius; one radius may own several
    pieces.  Returns the panel integrals, each panel's interval (numbered
    across all pieces, in order) and each piece's panel count.
    """
    lo = np.concatenate([b[:-1] for b in pieces])
    hi = np.concatenate([b[1:] for b in pieces])
    first = list(itertools.accumulate((len(b) - 1 for b in pieces), initial=0))
    m = _panel_counts(lo, hi, w_cap).astype(np.int64)
    counts = np.add.reduceat(m, first[:-1]).tolist()
    p_lo, p_hi, owner = _panelize(lo, hi, m)
    vals = _gl_integrate(integrand, p_lo, p_hi, np.repeat(a, counts)[:, None])
    return vals, owner, counts


def _wynn_epsilon(partial_sums, prefix=None):
    """Wynn epsilon extrapolation; returns (estimate, error_estimate).

    The estimate is the best-converged entry of the even epsilon columns
    (smallest change from the previous even column), not the deepest one:
    deep columns are ruined by the 1/diff recursion once neighbouring
    entries agree to roundoff.  The table has at most 40 entries a column,
    so it is built on Python floats: numpy's per-call cost would dominate.

    Given ``prefix``, returns that pair for all the sums and then the pair
    for their first ``prefix``, each bitwise what a call on those sums alone
    returns.  Column k of the prefix's table is the first prefix - k entries
    of column k here, so it is read off this table; only where a column's
    first bad entry lies past the prefix, which the prefix's table never
    meets, is its table built on its own.
    """
    s = np.asarray(partial_sums, dtype=float).tolist()
    m = len(s)
    p = prefix or 0  # no prefix: its columns are never read
    prev = [0.0] * m  # the epsilon_{-1} column
    cur = s
    best_val, best_err = s[-1], abs(s[-1] - s[-2]) if m > 1 else math.inf
    last_even = s[-1]
    pre_val, pre_err = s[p - 1], abs(s[p - 1] - s[p - 2]) if p > 1 else math.inf
    pre_last = s[p - 1]
    pre = None
    for col in range(1, m):
        nxt = []
        for q, a, b in zip(prev[1:], cur, cur[1:]):
            diff = b - a
            if abs(diff) < 1e-300:
                break
            e = q + 1.0 / diff
            if not math.isfinite(e):
                break
            nxt.append(e)
        if len(nxt) < m - col:  # a bad entry, at index len(nxt), ends the table
            if len(nxt) >= p - col > 0:
                pre = _wynn_epsilon(s[:p])
            break
        prev, cur = cur, nxt
        if col % 2 == 0:  # even columns approximate the limit
            err = abs(cur[-1] - last_even)
            last_even = cur[-1]
            if err < best_err:
                best_val, best_err = cur[-1], err
            if col < p:
                err = abs(cur[p - col - 1] - pre_last)
                pre_last = cur[p - col - 1]
                if err < pre_err:
                    pre_val, pre_err = pre_last, err
    if prefix is None:
        return best_val, best_err
    return (best_val, best_err), pre or (pre_val, pre_err)


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


def radial_inverse_fourier(symbol, x_norm, n, quad=DEFAULT_QUAD, *, envelope_scale,
                           r_max=None):
    """Inverse Fourier transform of a radial symbol, evaluated at |x| = x_norm.

    ``symbol`` must accept a 1-D numpy array of radii r >= 0 and return the
    symbol values g(r), elementwise.  ``envelope_scale`` >= 0 is the width on
    which the symbol varies near r = 0: panels there are at most half of it
    wide (no less than 1e-8), and farther out at most half their distance
    from 0 (module docstring, "Panels").  ``r_max`` > 0 truncates the
    partition where the caller knows the envelope to be negligible.
    """
    return radial_inverse_fourier_many(symbol, [x_norm], n, quad,
                                       envelope_scale=envelope_scale, r_max=r_max)[0]


def radial_inverse_fourier_many(symbol, x_norms, n, quad=DEFAULT_QUAD, *, envelope_scale,
                                r_max=None):
    """``radial_inverse_fourier`` at each radius of the 1-D array ``x_norms``, in one pass.

    Radii may come in any order and repeat.  Each value is bitwise equal to
    ``radial_inverse_fourier`` at that radius; an error any radius raises
    there is raised here.
    """
    if not 0.0 <= envelope_scale < math.inf:
        raise ValueError("envelope_scale must be finite and nonnegative, "
                         f"got {envelope_scale}")
    if r_max is not None and not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    x_norms = np.asarray(x_norms, dtype=float)
    if x_norms.ndim != 1:
        raise ValueError("x_norms must be a 1-D array")
    xs = x_norms.tolist()
    # 2 pi |x| scales the Bessel zeros: where it overflows they all read 0
    if not all(0.0 <= x and 2.0 * math.pi * x < math.inf for x in xs):
        raise ValueError("x_norm must be finite and nonnegative, and 2 pi x_norm finite")
    out = np.empty(len(xs))
    at_origin = [i for i, x in enumerate(xs) if x == 0.0]
    if at_origin:
        out[at_origin] = radial_symbol_integral(symbol, n, quad)
    rest = [i for i, x in enumerate(xs) if x != 0.0]
    w_cap = max(envelope_scale / 2.0, 1e-8)
    for c in range(0, len(rest), _BATCH):
        chunk = rest[c : c + _BATCH]
        out[chunk] = _batch(symbol, [xs[i] for i in chunk], n, quad, w_cap, r_max)
    return out


def _batch(symbol, xs, n, quad, w_cap, r_max):
    """Values at up to ``_BATCH`` positive radii ``xs``: heads and two blocks, then blocks."""
    nu = n / 2.0 - 1.0

    def integrand(r, ar):
        return symbol(r) * r ** (n / 2.0) * bessel_j(nu, ar)

    count = len(xs)
    a = np.array([2.0 * np.pi * x for x in xs])
    pref = [2.0 * np.pi * x ** (1.0 - n / 2.0) for x in xs]
    unit_zeros = _cached_zeros(float(nu), int(quad.max_zeros))
    zeros, head_hi = [], []
    for j in range(count):
        z = unit_zeros / a[j]
        if r_max is not None and r_max < z[0]:
            # the symbol is negligible past r_max, before the first zero: the
            # graded head on [0, r_max] is the whole integral
            zeros.append(None)
            head_hi.append(r_max)
            continue
        if r_max is not None and z[-1] > r_max:
            keep = max(6, int(np.searchsorted(z, r_max)) + 1)
            z = z[: min(keep, len(z))]
        zeros.append(z)
        head_hi.append(z[0])

    def integrate(blocks, heads=()):
        """Head sums and the terms of ``blocks``, (radius, start) pairs, in one pass."""
        pieces = list(heads) + [zeros[j][k : k + _BLOCK + 1] for j, k in blocks]
        radii = list(range(len(heads))) + [j for j, _ in blocks]
        vals, owner, per_piece = _integrate_pass(integrand, a[radii], pieces, w_cap)
        ends = list(itertools.accumulate(per_piece, initial=0))
        first = list(itertools.accumulate((len(b) - 1 for b in pieces), initial=0))
        interval_terms = np.bincount(owner, vals)  # one term per interval
        h = len(heads)
        return ([vals[ends[i] : ends[i + 1]].sum() for i in range(h)],
                {block: interval_terms[first[h + i] : first[h + i + 1]]
                 for i, block in enumerate(blocks)})

    # one pass for the heads, [0, first zero] (or [0, r_max]) graded toward the
    # origin, and the first two blocks of zero intervals: no radius can stop
    # before its second block, if the partition has one
    active = [j for j in range(count) if zeros[j] is not None]
    blocks = [(j, 0) for j in active] + [
        (j, _BLOCK) for j in active if len(zeros[j]) - 1 > _BLOCK]
    head, ready = integrate(blocks, [_head_breaks(hi, w_cap) for hi in head_hi])

    out = np.empty(count)
    for j in range(count):
        if zeros[j] is None:
            out[j] = pref[j] * head[j]
    abs_floor = [quad.abs_tol / max(abs(p), 1e-300) for p in pref]
    terms = [np.empty(0)] * count
    previous = [np.nan] * count  # no extrapolation yet: Wynn cannot stop the first block

    # oscillatory part: one term per interval between consecutive zeros,
    # integrated a block of intervals at a time until each sum has converged
    start = 0
    while active:
        missing = [(j, start) for j in active if (j, start) not in ready]
        if missing:
            ready.update(integrate(missing)[1])
        still = []
        for j in active:
            terms[j] = np.concatenate((terms[j], ready.pop((j, start))))
            goes_on = start + _BLOCK < len(zeros[j]) - 1
            if start == 0 and goes_on:
                # the first test cannot stop a sum whose partition goes on:
                # block 1's extrapolation is read off block 2's table instead
                still.append(j)
                continue
            sums = head[j] + np.cumsum(terms[j])
            if start == _BLOCK:
                (value, est), (previous[j], _) = _wynn_epsilon(sums, prefix=_BLOCK)
            else:
                value, est = _wynn_epsilon(sums[-40:])
            tol = max(abs_floor[j], quad.rel_tol * abs(value))
            if est <= tol and abs(value - previous[j]) <= tol:
                out[j] = pref[j] * value
                continue
            previous[j] = value
            if goes_on:
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
        start += _BLOCK
    return out
