"""Ground states of -Laplacian u + (-Laplacian)^s u + u = u^p.

The positive ground state is computed on the periodic box by Petviashvili
fixed-point iteration: each step solves the resolvent equation for the
positive-part nonlinearity and renormalizes by the stabilizer

    m_k = <x, (1 + operator) x> / <x, (x+)^p>,

whose fixed points with m_k = 1 are exactly the discrete weak solutions.
The nonlinearity is evaluated pointwise (collocation), so the discrete
Nehari and fiber-energy identities hold to roundoff at convergence.

A step maps its input x_k to the image g_k = m_k^gamma R[(x_k+)^p] with
R = (1 + operator)^{-1}, so (1 + operator) g_k = m_k^gamma (x_k+)^p holds
exactly.  The residual m_k^gamma (x_k+)^p - (g_k+)^p of the image is therefore
pointwise, and a step costs one transform pair, that of the resolvent.

The solve wraps the step in depth-1 Anderson mixing (type II; H. F. Walker and
P. Ni, SIAM J. Numer. Anal. 49 (2011) 1715-1735).  With f_k = g_k - x_k, the
next input is x_{k+1} = g_k + theta_k (g_{k-1} - g_k), where theta_k minimizes
|f_k + theta (f_{k-1} - f_k)|.  The history is the two grid arrays g_{k-1} and
f_{k-1}.  Since the input is a combination of two images, its stabilizer
numerator is the same combination of <g_i, (1 + operator) g_j>, each a
pointwise product, so mixing adds no transform.  A safeguard keeps the plain
step x_{k+1} = g_k, and restarts the history, where theta is not finite or the
mixed input's stabilizer denominator <x, (x+)^p> is not positive; the plain
iteration converges under conditions on the stabilizer (D. E. Pelinovsky and
Yu. A. Stepanyants, SIAM J. Numer. Anal. 42 (2004) 1110-1127).

The solve stops on an image: the returned field is the last step's g_k,
whose pointwise residual the stop tests.  Only the first step applies the
operator, and a solve confirms its stopping residual with FFTs.

The step and the mixing preserve evenness under every reflection x_i -> -x_i,
which the ground state has (it is radial), and so does the default start.  A
start that equals its reflection on every axis is therefore iterated on
``spectral``'s even layout, [0, L]^n with a DCT-I pair a step, and the
inner products are its weighted ``dot``; any other start (a perturbed or
shifted one) on the full box with an rfftn/irfftn pair.  The start alone
selects the layout.  The stop is confirmed, and the report's residual,
energy and Nehari gap are computed, on the full-layout field with rfftn, so
the even path is checked by code it does not share.  Both layouts take their
symbol from ``spectral.grid_symbol``, whose one cache holds at most the two
of a solve and is cleared when the solve returns.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateIterateError
from .params import KernelParams
from .spectral import (
    RealField,
    apply_operator,
    apply_resolvent,
    expand_even,
    grid_symbol,
    norms,
    positive_part_power,
    reduce_even,
)

_SUBCRITICAL_MARGIN = 1e-6
_STABILIZER_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Nonlinearity exponent, stabilization and stopping parameters.

    ``p`` must be strictly subcritical: p < (n+2)/(n-2) - margin for n = 3
    (any p > 1 for n = 2).  Unless the solve is given a starting field
    ``u0``, it starts from a centered isotropic Gaussian bump of width L/8,
    optionally perturbed with a seeded random field of relative amplitude
    ``perturb``.
    """

    p: float
    tol_residual: float = 1e-10
    max_iter: int = 5000
    seed: int = 0
    perturb: float = 0.0

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError(f"exponent p must exceed 1, got {self.p}")
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not (math.isfinite(self.perturb) and self.perturb >= 0.0):
            raise ValueError(f"perturb must be finite and nonnegative, got {self.perturb}")

    @property
    def gamma_stab(self):
        """p/(p-1): the unique exponent making the iteration's linearization
        contractive at the fixed point."""
        return self.p / (self.p - 1.0)

    def check_subcritical(self, n):
        if n >= 3 and self.p >= (n + 2.0) / (n - 2.0) - _SUBCRITICAL_MARGIN:
            raise ValueError(
                f"p = {self.p} is not strictly subcritical for n = {n} "
                f"(requires p < {(n + 2.0) / (n - 2.0)} with margin {_SUBCRITICAL_MARGIN})"
            )


@dataclass
class SolveReport:
    """Convergence diagnostics of a ground-state solve.

    Each history has one entry a step.  ``stabilizer_history`` holds the
    stabilizer of the step's input and ``mixing_history`` the theta that
    mixed that input, 0.0 where the input was not mixed: the starting field,
    and the plain image taken where the history was empty or the safeguard
    fell back.  ``residual_history`` holds the pointwise residual of the
    step's image.  ``mixing_fallbacks`` counts the safeguard's fallbacks.
    """

    iterations: int
    residual_linf: float
    energy: float
    nehari_gap: float
    stabilizer_history: list
    residual_history: list
    mixing_history: list
    mixing_fallbacks: int
    converged: bool


def _fiber_terms(u, params, cfg):
    """||u||_s^2 and the integral of (u+)^{p+1}: the two terms of F(t u)."""
    norm_s_sq = norms(u, params)["sobolev_s"] ** 2
    up_p1 = np.maximum(u.data, 0.0) ** (cfg.p + 1.0)
    return norm_s_sq, float(u.grid.cell_volume * up_p1.sum())


def energy_plus(u, params, cfg):
    """The functional (1/2)||u||_s^2 - 1/(p+1) integral of (u+)^{p+1}."""
    norm_s_sq, lp_plus = _fiber_terms(u, params, cfg)
    return 0.5 * norm_s_sq - lp_plus / (cfg.p + 1.0)


def gradient_plus(u, params, cfg):
    """Riesz gradient of the functional: (1 + operator) u - (u+)^p.

    Vanishes exactly at discrete weak solutions of the positive-part
    equation, so its max norm is the solver's residual.
    """
    lin = apply_operator(u, params)
    return RealField(u.grid, lin.data - np.maximum(u.data, 0.0) ** cfg.p)


class Step(NamedTuple):
    """A Petviashvili step: the next iterate and what the next step needs of it.

    ``m`` is the stabilizer of the step's input.  ``residual`` is
    max |(1 + operator) u - (u+)^p|, ``up_p`` is (u+)^p and ``num`` is
    <u, (1 + operator) u>, each of the next iterate ``u``.
    """

    u: RealField
    m: float
    residual: float
    up_p: RealField
    num: float


def petviashvili_step(u, params, cfg, up_p=None, num=None, den=None):
    """One stabilized fixed-point step u -> m^gamma R[(u+)^p]; returns a Step.

    ``up_p`` and ``num`` are the ``up_p`` and ``num`` of the Step that returned
    ``u``; the step overwrites ``up_p``.  Without them it computes both from
    ``u``, at the cost of one ``apply_operator``.  ``den`` is the stabilizer
    denominator <u, (u+)^p> where the caller has already formed it.
    """
    grid = u.grid
    dv = grid.cell_volume
    if up_p is None:
        num = dv * grid.dot(u.data, apply_operator(u, params).data)
        up_p = positive_part_power(u, cfg.p)
    if den is None:
        den = dv * grid.dot(u.data, up_p.data)
    if den <= 0.0:
        raise DegenerateIterateError(
            "stabilizer denominator <u, (u+)^p> is nonpositive: "
            "the iterate has collapsed to a nonpositive field"
        )
    m_k = num / den
    scale = m_k ** cfg.gamma_stab
    nxt = apply_resolvent(up_p, params)
    nxt.data *= scale
    # (1 + operator) nxt = scale * up_p: turn up_p into it, read the next
    # numerator, then overwrite it with the residual
    lin = up_p.data
    lin *= scale
    next_num = dv * grid.dot(nxt.data, lin)
    next_up_p = positive_part_power(nxt, cfg.p)
    lin -= next_up_p.data
    residual = float(np.abs(lin, out=lin).max())
    return Step(nxt, m_k, residual, next_up_p, next_num)


def initial_field(grid, cfg):
    """Starting guess: isotropic Gaussian bump of width L/8, amplitude 1.

    Node k of an axis is taken at distance |k - N/2| h from the centre, not at
    -L + k h, so that the unperturbed bump equals its reflection bitwise.
    """
    dist = np.abs(np.arange(grid.N) - grid.N // 2) * grid.spacing
    r_sq = sum(d ** 2 for d in np.ix_(*([dist] * grid.n)))
    width = grid.L / 8.0
    data = np.exp(-r_sq / (2.0 * width ** 2))
    if cfg.perturb > 0.0:
        rng = np.random.default_rng(cfg.seed)
        data = data * (1.0 + cfg.perturb * rng.standard_normal(grid.shape))
    return RealField(grid, data)


def solve_ground_state(grid, params, cfg, u0=None):
    """Iterate to the positive ground state on the box by Anderson-mixed
    Petviashvili steps (see the module docstring).

    Stops when the residual max norm falls below ``cfg.tol_residual`` and
    the stabilizer satisfies |m_k - 1| < 1e-10 jointly; either criterion
    alone can stall.  The loop tests the pointwise residual of each step and
    confirms it with ``gradient_plus``, whose value the report carries.
    Returns (field, SolveReport); a non-converged run is reported, not raised.
    """
    try:
        return _solve(grid, params, cfg, u0)
    finally:
        # the symbols of both layouts live only as long as the solve
        grid_symbol.cache_clear()


def _solve(grid, params, cfg, u0):
    cfg.check_subcritical(grid.n)
    x = initial_field(grid, cfg) if u0 is None else u0.copy()
    half = reduce_even(x)
    even = half is not None
    if even:
        x = half
    del half  # x alone holds the start, which the loop overwrites
    work = x.grid  # the layout the loop runs on

    def confirm(u):
        """``u`` on the full layout, and its residual by ``gradient_plus``."""
        if even:
            u = expand_even(u)
        return u, float(np.abs(gradient_plus(u, params, cfg).data).max())

    stabilizers = []
    residuals = []
    thetas = []
    fallbacks = 0
    converged = False
    up_p = num = den = None
    # the history: the previous image g_prev, its residual f_prev = g_prev - x
    # and their scalars |f_prev|^2 and a_prev = <g_prev, (1 + operator) g_prev>
    g_prev = f_prev = None
    theta = 0.0
    it = 0
    for it in range(1, cfg.max_iter + 1):
        if g_prev is not None:
            cross = work.dot(g_prev.data, up_p.data)  # before the step overwrites up_p
        u, m_k, pointwise, up_p, a_k = petviashvili_step(x, params, cfg, up_p, num,
                                                         den)
        stabilizers.append(m_k)
        residuals.append(pointwise)
        thetas.append(theta)
        if abs(m_k - 1.0) < _STABILIZER_TOL and pointwise <= cfg.tol_residual:
            # the history and (u+)^p are dropped so that the check's FFTs add
            # no grid array to the step's peak; a failed check restarts the
            # carry and the history from u
            x = up_p = g_prev = f_prev = f = None
            u_full, res = confirm(u)
            if res <= cfg.tol_residual:
                converged = True
                break
            x, num, den, theta = u.copy(), None, None, 0.0
            continue

        # x is the solver's own array, never a step's image: the residual
        # u - x goes into its buffer
        f = np.subtract(u.data, x.data, out=x.data)
        f_sq = work.dot(f, f)
        x = None
        if g_prev is not None:
            # depth-1 Anderson mixing: theta minimizes |f + theta (f_prev - f)|
            f_cross = work.dot(f_prev, f)
            df_sq = f_sq - 2.0 * f_cross + f_prev_sq
            theta = (f_sq - f_cross) / df_sq if df_sq > 0.0 else np.nan
            if np.isfinite(theta):
                # the mixed input u + theta (g_prev - u), in f_prev's buffer
                np.subtract(g_prev.data, u.data, out=f_prev)
                f_prev *= theta
                f_prev += u.data
                x = RealField(work, f_prev)
                positive_part_power(x, cfg.p, out=up_p.data)
                den = grid.cell_volume * work.dot(x.data, up_p.data)
                if den > 0.0:
                    # (1 + operator) u is m^gamma times the step input's
                    # (x+)^p, so the mixed input's numerator needs only
                    # a_k, b_k and a_prev
                    b_k = m_k ** cfg.gamma_stab * grid.cell_volume * cross
                    num = ((1.0 - theta) ** 2 * a_k + 2.0 * theta * (1.0 - theta) * b_k
                           + theta ** 2 * a_prev)
                else:
                    x = None
                    positive_part_power(u, cfg.p, out=up_p.data)
            if x is None:
                fallbacks += 1  # the safeguard
        if x is None:
            # the plain step, which also starts a new history from u
            theta = 0.0
            x, num, den = u.copy(), a_k, None
        g_prev, f_prev, f_prev_sq, a_prev = u, f, f_sq, a_k

    if not converged:
        x = up_p = g_prev = f_prev = f = None
        u_full, res = confirm(u)
    u = u_full
    # one norms call serves both identities; the energy is energy_plus's arithmetic
    norm_s_sq, lp_plus = _fiber_terms(u, params, cfg)
    report = SolveReport(
        iterations=it,
        residual_linf=res,
        energy=0.5 * norm_s_sq - lp_plus / (cfg.p + 1.0),
        nehari_gap=abs(norm_s_sq - lp_plus),
        stabilizer_history=stabilizers,
        residual_history=residuals,
        mixing_history=thetas,
        mixing_fallbacks=fallbacks,
        converged=converged,
    )
    return u, report


@dataclass
class MountainPassProfile:
    """Fiber energy t -> F(t u) with its stationary point."""

    t_grid: np.ndarray
    energies: np.ndarray
    t_star: float
    t_argmax: float
    t_negative: float


def mountain_pass_profile(u, params, cfg):
    """Tabulate F(t u) on 200 points of [0.05, 2] t_* and locate the fiber maximum.

    The stationary point has the closed form
    t_* = (||u||_s^2 / ||u+||_{p+1}^{p+1})^{1/(p-1)}; the returned
    ``t_negative`` is a scale T with F(T u) < 0, witnessing the
    mountain-pass geometry.
    """
    norm_s_sq, lp_plus = _fiber_terms(u, params, cfg)
    if lp_plus <= 0.0:
        raise DegenerateIterateError("u+ vanishes identically: no fiber maximum")
    t_star = (norm_s_sq / lp_plus) ** (1.0 / (cfg.p - 1.0))

    def F(t):
        return 0.5 * t ** 2 * norm_s_sq - t ** (cfg.p + 1.0) * lp_plus / (cfg.p + 1.0)

    t_grid = np.linspace(0.05, 2.0, 200) * t_star
    energies = F(t_grid)
    # F(t u) -> -inf as t -> inf: find a witness scale with negative energy
    T = 2.0 * t_star
    while F(T) >= 0:
        T *= 2.0
    return MountainPassProfile(
        t_grid=t_grid,
        energies=energies,
        t_star=float(t_star),
        t_argmax=float(t_grid[np.argmax(energies)]),
        t_negative=float(T),
    )
