"""Ground states of -Laplacian u + (-Laplacian)^s u + u = u^p.

The positive ground state is computed on the periodic box by Petviashvili
fixed-point iteration: each step solves the resolvent equation for the
positive-part nonlinearity and renormalizes by the stabilizer

    m_k = <u, (1 + operator) u> / <u, (u+)^p>,

whose fixed points with m_k = 1 are exactly the discrete weak solutions.
The nonlinearity is evaluated pointwise (collocation), so the discrete
Nehari and fiber-energy identities hold to roundoff at convergence.

Every iterate after the first is u_{k+1} = m_k^gamma R[(u_k+)^p] with
R = (1 + operator)^{-1}, so (1 + operator) u_{k+1} = m_k^gamma (u_k+)^p holds
exactly.  The next stabilizer numerator <u_{k+1}, m_k^gamma (u_k+)^p> and the
residual m_k^gamma (u_k+)^p - (u_{k+1}+)^p are therefore pointwise, and a step
costs one rfftn and one irfftn, those of the resolvent.  Only the first step
applies the operator, and a solve confirms its stopping residual with FFTs.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateIterateError
from .params import KernelParams
from .spectral import (
    GridSpec,
    RealField,
    apply_operator,
    apply_resolvent,
    half_symbol,
    norms,
    positive_part_power,
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
    """Convergence diagnostics of a ground-state solve."""

    iterations: int
    residual_linf: float
    energy: float
    nehari_gap: float
    stabilizer_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    converged: bool = False

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "residual_linf": self.residual_linf,
            "energy": self.energy,
            "nehari_gap": self.nehari_gap,
            "stabilizer_final": self.stabilizer_history[-1]
            if self.stabilizer_history
            else None,
            "converged": self.converged,
            "stabilizer_history": list(self.stabilizer_history),
            "residual_history": list(self.residual_history),
        }


def _volume_sum(f, values):
    return float(f.grid.cell_volume * values.sum())


def energy_plus(u, params, cfg):
    """The functional (1/2)||u||_s^2 - 1/(p+1) integral of (u+)^{p+1}."""
    nm = norms(u, params)
    nonlinear = _volume_sum(u, np.maximum(u.data, 0.0) ** (cfg.p + 1.0))
    return 0.5 * nm["sobolev_s"] ** 2 - nonlinear / (cfg.p + 1.0)


def gradient_plus(u, params, cfg):
    """Riesz gradient of the functional: (1 + operator) u - (u+)^p.

    Vanishes exactly at discrete weak solutions of the positive-part
    equation, so its max norm is the solver's residual.
    """
    lin = apply_operator(u, params, include_identity=True)
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


def petviashvili_step(u, params, cfg, up_p=None, num=None):
    """One stabilized fixed-point step u -> m^gamma R[(u+)^p]; returns a Step.

    ``up_p`` and ``num`` are the ``up_p`` and ``num`` of the Step that returned
    ``u``; the step overwrites ``up_p``.  Without them it computes both from
    ``u``, at the cost of one ``apply_operator``.
    """
    if up_p is None:
        num = _volume_sum(
            u, u.data * apply_operator(u, params, include_identity=True).data)
        up_p = positive_part_power(u, cfg.p)
    den = _volume_sum(u, u.data * up_p.data)
    if den <= 0.0:
        raise DegenerateIterateError(
            "stabilizer denominator <u, (u+)^p> is nonpositive: "
            "the iterate has collapsed to a nonpositive field"
        )
    m_k = num / den
    scale = m_k ** cfg.gamma_stab
    nxt = RealField(u.grid, scale * apply_resolvent(up_p, params).data)
    # (1 + operator) nxt = scale * up_p: turn up_p into it, read the next
    # numerator, then overwrite it with the residual
    lin = up_p.data
    lin *= scale
    next_num = _volume_sum(u, nxt.data * lin)
    next_up_p = positive_part_power(nxt, cfg.p)
    lin -= next_up_p.data
    residual = float(np.abs(lin, out=lin).max())
    return Step(nxt, m_k, residual, next_up_p, next_num)


def initial_field(grid, cfg):
    """Starting guess: isotropic Gaussian bump of width L/8, amplitude 1."""
    r = grid.radius()
    width = grid.L / 8.0
    data = np.exp(-(r ** 2) / (2.0 * width ** 2))
    if cfg.perturb > 0.0:
        rng = np.random.default_rng(cfg.seed)
        data = data * (1.0 + cfg.perturb * rng.standard_normal(grid.shape))
    return RealField(grid, data)


def solve_ground_state(grid, params, cfg, u0=None):
    """Iterate to the positive ground state on the box.

    Stops when the residual max norm falls below ``cfg.tol_residual`` and
    the stabilizer satisfies |m_k - 1| < 1e-10 jointly; either criterion
    alone can stall.  The loop tests the pointwise residual of each step and
    confirms it with ``gradient_plus``, whose value the report carries.
    Returns (field, SolveReport); a non-converged run is reported, not raised.
    """
    try:
        return _solve(grid, params, cfg, u0)
    finally:
        half_symbol.cache_clear()  # the symbol lives only as long as the solve


def _solve(grid, params, cfg, u0):
    cfg.check_subcritical(grid.n)
    u = initial_field(grid, cfg) if u0 is None else u0.copy()

    def residual(u):
        return float(np.abs(gradient_plus(u, params, cfg).data).max())

    stabilizers = []
    residuals = []
    converged = False
    up_p = num = None
    it = 0
    for it in range(1, cfg.max_iter + 1):
        u, m_k, pointwise, up_p, num = petviashvili_step(u, params, cfg, up_p, num)
        stabilizers.append(m_k)
        residuals.append(pointwise)
        if abs(m_k - 1.0) < _STABILIZER_TOL and pointwise <= cfg.tol_residual:
            # (u+)^p is dropped so that the check's FFTs add no grid array to
            # the step's peak; a failed check restarts the carry from u
            up_p = None
            res = residual(u)
            if res <= cfg.tol_residual:
                converged = True
                break

    if not converged:
        up_p = None
        res = residual(u)
    # one norms call serves both identities; the energy is energy_plus's arithmetic
    norm_s_sq = norms(u, params)["sobolev_s"] ** 2
    lp_plus = _volume_sum(u, np.maximum(u.data, 0.0) ** (cfg.p + 1.0))
    report = SolveReport(
        iterations=it,
        residual_linf=res,
        energy=0.5 * norm_s_sq - lp_plus / (cfg.p + 1.0),
        nehari_gap=abs(norm_s_sq - lp_plus),
        stabilizer_history=stabilizers,
        residual_history=residuals,
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


def mountain_pass_profile(u, params, cfg, t_grid=None):
    """Tabulate F(t u) and locate the fiber maximum.

    The stationary point has the closed form
    t_* = (||u||_s^2 / ||u+||_{p+1}^{p+1})^{1/(p-1)}; the returned
    ``t_negative`` is a scale T with F(T u) < 0, witnessing the
    mountain-pass geometry.
    """
    norm_s_sq = norms(u, params)["sobolev_s"] ** 2
    lp_plus = _volume_sum(u, np.maximum(u.data, 0.0) ** (cfg.p + 1.0))
    if lp_plus <= 0.0:
        raise DegenerateIterateError("u+ vanishes identically: no fiber maximum")
    t_star = (norm_s_sq / lp_plus) ** (1.0 / (cfg.p - 1.0))
    if t_grid is None:
        t_grid = np.linspace(0.05, 2.0, 200) * t_star
    t_grid = np.asarray(t_grid, dtype=float)
    energies = 0.5 * t_grid ** 2 * norm_s_sq - t_grid ** (cfg.p + 1.0) * lp_plus / (
        cfg.p + 1.0
    )
    # F(t u) -> -inf as t -> inf: find a witness scale with negative energy
    T = 2.0 * t_star
    while 0.5 * T ** 2 * norm_s_sq - T ** (cfg.p + 1.0) * lp_plus / (cfg.p + 1.0) >= 0:
        T *= 2.0
    return MountainPassProfile(
        t_grid=t_grid,
        energies=energies,
        t_star=float(t_star),
        t_argmax=float(t_grid[np.argmax(energies)]),
        t_negative=float(T),
    )
