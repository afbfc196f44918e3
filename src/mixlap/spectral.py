"""Periodic-box spectral discretization of -Laplacian + (-Laplacian)^s.

A field lives on the uniform grid of the box [-L, L]^n with N points per
axis; its discrete Fourier coefficients sit at the frequencies
xi_k = k / (2L), k in {-N/2, ..., N/2 - 1}^n.  The operator acts as the
Fourier multiplier w^2 + w^{2s} with the angular wavenumber w = 2 pi |xi|,
i.e. the multiplier of the classical Laplacian plus its fractional power,
so that plane waves e^{2 pi i xi.x} are eigenfunctions with the continuum
eigenvalues.

Fields are real, so the operator, resolvent and norms work on the real-FFT
half spectrum (``scipy.fft.rfftn``: last-axis modes 0..N/2 only), with the
symbol built once per (grid, s) by ``half_symbol``.
"""

import json
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft

from .errors import FieldFormatError, GridMismatchError
from .fileio import atomic_write


@dataclass(frozen=True)
class GridSpec:
    """Periodic box [-L, L]^n sampled with N points per axis."""

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"supported dimensions are 2 and 3, got {self.n}")
        if self.L <= 0:
            raise ValueError("box half-width L must be positive")
        N = self.N
        if N < 16 or N % 2 or (N & (N - 1)):
            raise ValueError(f"N must be a power of two >= 16, got {N}")

    @property
    def spacing(self):
        return 2.0 * self.L / self.N

    @property
    def cell_volume(self):
        return self.spacing ** self.n

    @property
    def shape(self):
        return (self.N,) * self.n

    def axis(self):
        """Physical coordinates along one axis."""
        return -self.L + self.spacing * np.arange(self.N)

    def meshgrid(self):
        ax = self.axis()
        return np.meshgrid(*([ax] * self.n), indexing="ij")

    def radius(self, center=None):
        """Distance from ``center`` (grid point coordinates) at every node."""
        mesh = self.meshgrid()
        if center is None:
            center = (0.0,) * self.n
        return np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, center)))


@dataclass
class RealField:
    """A real-valued function sampled on a GridSpec."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.grid.shape:
            raise GridMismatchError(
                f"data shape {self.data.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("field values must be finite")

    def copy(self):
        return RealField(self.grid, self.data.copy())


def operator_symbol(w_sq, s):
    """Multiplier of -Laplacian + (-Laplacian)^s at squared angular wavenumber w_sq."""
    return w_sq + w_sq ** s


@dataclass(frozen=True)
class HalfSymbol:
    """Symbol arrays of one (grid, s) on the ``rfftn`` half layout.

    ``weight`` counts each kept mode together with its dropped conjugate
    partner, so that sum(weight * |c|^2) over the half layout equals
    sum(|c|^2) over the full one: 1 on the zero and Nyquist planes of the
    last axis, whose partners lie in the same plane, and 2 elsewhere.  It is
    shaped to broadcast along the last axis.  The arrays are read-only.
    """

    w_sq: np.ndarray
    w_2s: np.ndarray
    multiplier: np.ndarray
    weight: np.ndarray


@lru_cache(maxsize=1)
def half_symbol(grid, s):
    """w^2, w^{2s}, operator_symbol and Parseval weights of ``grid`` at order ``s``.

    One entry is cached: a solve reuses its symbol on every step, and
    ``solve_ground_state`` clears the cache on return so that the arrays
    live no longer than the solve.
    """
    w_axis = 2.0 * np.pi * fft.fftfreq(grid.N, d=grid.spacing)
    w_last = 2.0 * np.pi * fft.rfftfreq(grid.N, d=grid.spacing)
    w_sq = sum(w ** 2 for w in np.ix_(*([w_axis] * (grid.n - 1) + [w_last])))
    weight = np.full(w_last.size, 2.0)
    weight[0] = weight[-1] = 1.0
    sym = HalfSymbol(
        w_sq=w_sq,
        w_2s=w_sq ** s,
        multiplier=operator_symbol(w_sq, s),
        weight=weight.reshape((1,) * (grid.n - 1) + (-1,)),
    )
    for arr in (sym.w_sq, sym.w_2s, sym.multiplier, sym.weight):
        arr.flags.writeable = False
    return sym


def _field_from_half(c, grid):
    return RealField(grid, fft.irfftn(c, s=grid.shape))


def apply_operator(f, params, include_identity=False):
    """Apply -Laplacian + (-Laplacian)^s (optionally + identity) spectrally."""
    m = half_symbol(f.grid, params.s).multiplier
    if include_identity:
        m = m + 1.0
    c = fft.rfftn(f.data)
    c *= m
    return _field_from_half(c, f.grid)


def apply_resolvent(f, params):
    """Invert identity + operator: divide by 1 + w^2 + w^{2s} in frequency space."""
    m = half_symbol(f.grid, params.s).multiplier
    c = fft.rfftn(f.data)
    c /= 1.0 + m
    return _field_from_half(c, f.grid)


def _parseval_scale(grid):
    """Box volume over N^{2n}: turns weighted sums of |rfftn|^2 into integrals."""
    return (2.0 * grid.L) ** grid.n / float(grid.N) ** (2 * grid.n)


def norms(f, params, p=None):
    """Discrete norms of a field.

    Returns a dict with keys l2, h1_seminorm, hs_seminorm, linf, sobolev_s
    and, when ``p`` is given, lp.  The L^2 quantities use the spectral
    (Parseval-exact) quadrature; sobolev_s^2 = l2^2 + h1^2 + hs^2.
    """
    grid = f.grid
    sym = half_symbol(grid, params.s)
    c = fft.rfftn(f.data)
    power = c.real ** 2
    power += c.imag ** 2
    power *= sym.weight
    scale = _parseval_scale(grid)
    l2_sq = scale * power.sum()
    h1_sq = scale * (sym.w_sq * power).sum()
    hs_sq = scale * (sym.w_2s * power).sum()
    out = {
        "l2": float(np.sqrt(l2_sq)),
        "h1_seminorm": float(np.sqrt(h1_sq)),
        "hs_seminorm": float(np.sqrt(hs_sq)),
        "linf": float(np.abs(f.data).max()),
        "sobolev_s": float(np.sqrt(l2_sq + h1_sq + hs_sq)),
    }
    if p is not None:
        if p < 1:
            raise ValueError("lp norm requires p >= 1")
        out["lp"] = float((grid.cell_volume * (np.abs(f.data) ** p).sum()) ** (1.0 / p))
    return out


def positive_part_power(f, p):
    """(max(f, 0))^p, pointwise."""
    if p <= 0:
        raise ValueError("power p must be positive")
    return RealField(f.grid, np.maximum(f.data, 0.0) ** p)


# ---------------------------------------------------------------------------
# serialization


def write_field(path, f):
    """Write a field as little-endian float64 with a JSON header sidecar.

    Both files are written atomically, the data first, so a reader never
    sees a partial data file.
    """
    path = str(path)
    atomic_write(path, np.ascontiguousarray(f.data, dtype="<f8"))
    header = {"n": f.grid.n, "L": f.grid.L, "N": f.grid.N}
    atomic_write(path + ".json", json.dumps(header, indent=2))


def read_field(path):
    """Read a field written by ``write_field``.

    Raises FieldFormatError when the data file's size is not the
    8 N^n bytes its header implies.
    """
    path = str(path)
    with open(path + ".json") as fh:
        header = json.load(fh)
    grid = GridSpec(n=header["n"], L=header["L"], N=header["N"])
    expected = 8 * grid.N ** grid.n
    actual = os.path.getsize(path)
    if actual != expected:
        raise FieldFormatError(
            f"{path}: {actual} bytes, but the header's grid "
            f"(n={grid.n}, N={grid.N}) needs {expected}"
        )
    data = np.fromfile(path, dtype="<f8").reshape(grid.shape)
    return RealField(grid, data)
