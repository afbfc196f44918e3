"""Periodic-box spectral discretization of -Laplacian + (-Laplacian)^s.

A field lives on the uniform grid of the box [-L, L]^n with N points per
axis; its discrete Fourier coefficients sit at the frequencies
xi_k = k / (2L), k in {-N/2, ..., N/2 - 1}^n.  The operator acts as the
Fourier multiplier ``params.operator_symbol`` at the angular wavenumber
w = 2 pi |xi|, so that plane waves e^{2 pi i xi.x} are eigenfunctions with the
continuum eigenvalues; that docstring relates this unit to that of ``kernels``.

A field has one of two layouts, told apart by its grid:

* the full layout (``GridSpec``): all N^n points of [-L, L]^n.  Fields are
  real, so the operator, resolvent and norms work on the real-FFT half
  spectrum (``scipy.fft.rfftn``: last-axis modes 0..N/2 only).
* the even layout (``EvenGrid``): a field even under every reflection
  x_i -> -x_i, stored on [0, L]^n with N/2 + 1 points per axis at x_j = j h.
  Half index j is full index N/2 + j, and j = N/2 is full index 0, since
  x = L and x = -L are one point of the periodic box.  An even periodic
  sequence's DFT is its DCT-I (FFTW's REDFT00), so the operator and resolvent
  multiply at w = 2 pi k / (2L), k = 0..N/2 on every axis between a DCT-I and
  its inverse: 2^n times fewer points than the full box.
  ``reduce_even`` and ``expand_even`` convert between the layouts.

The even layout's DCT-I takes one of two paths, by the M = N/2 + 1 points of
an axis.  Up to M = 65 (N <= 128) it is one dense matrix product per axis,
C[j, k] = 2 cos(pi j k / (M - 1)) halved in columns k = 0 and M - 1, and the
inverse is the same product over 2 (M - 1) per axis; the matrix is part of
the grid's Symbol.  Above that it is ``scipy.fft.dctn``/``idctn(type=1)``.
On random arrays the two agree to 1e-15 of the maximum.  The switch follows
the measured crossover, ms per forward transform of a random array on a
2-core AVX-512 machine with scipy 1.17's pocketfft and OpenBLAS 0.3.31 (two
threads):

    n  M     pocketfft  dense
    2  65    0.044      0.023
    2  129   0.147      0.157
    2  257   0.686      0.887
    2  513   3.27       4.43
    3  17    0.076      0.020
    3  33    0.529      0.152
    3  65    4.03       2.99

The dense products run on BLAS with the process's BLAS threads; pinned to one
thread, 3-D M = 65 is even (3.48 against 3.49 ms) and 2-D M = 129 favours
pocketfft (0.19 against 0.29 ms).

``apply_operator``, ``apply_resolvent``, ``positive_part_power`` and the
grid's ``dot`` accept either layout; ``norms`` and the field files are full
layout only.  ``grid_symbol`` builds one record, w^2 and 1 / (1 + symbol),
for either layout, and the even layout's DCT-I matrix, cached per (grid, s).
The resolvent, applied on every solver step, multiplies by the stored
1 / (1 + symbol); the operator, applied once or twice a solve, and ``norms``,
once a solve, form the rest per call.
"""

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import fft

from .errors import FieldFormatError, GridMismatchError
from .fileio import atomic_write, write_json
from .params import operator_symbol


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

    def dot(self, a, b):
        """Sum of a * b over the box's N^n points, without a temporary grid array."""
        return float(np.dot(a.ravel(), b.ravel()))


@dataclass(frozen=True)
class EvenGrid(GridSpec):
    """The even layout of the box [-L, L]^n: [0, L]^n with N/2 + 1 points per axis.

    Point j of an axis is x_j = j h, full index N/2 + j (see the module
    docstring).  ``dot`` weights each point by the number of full-box points
    it stands for, per axis 1 at x = 0 and x = L and 2 in between, so that it
    equals the full box's sum.
    """

    @property
    def shape(self):
        return (self.N // 2 + 1,) * self.n

    @property
    def full(self):
        """The full layout of the same box."""
        return GridSpec(self.n, self.L, self.N)

    def dot(self, a, b):
        total = a * b
        weight = np.full(self.N // 2 + 1, 2.0)
        weight[0] = weight[-1] = 1.0
        for _ in range(self.n):  # contract the last axis, one at a time
            total = total @ weight
        return float(total)


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


# The even layout applies its DCT-I as one dense matrix product per axis up to
# this many points an axis, and with scipy.fft above it (the module docstring
# gives the measured crossover)
_DENSE_DCT_POINTS = 65


class Symbol(NamedTuple):
    """w^2 and the resolvent symbol 1 / (1 + operator_symbol) of one (grid, s),
    on the grid's transform layout, and the even layout's DCT-I matrix
    (None where the layout transforms with scipy.fft); every array is
    read-only."""

    w_sq: np.ndarray
    resolvent: np.ndarray
    dct: "np.ndarray | None"


def _dct1_matrix(M):
    """C[j, k] = 2 cos(pi j k / (M - 1)), halved in columns k = 0 and M - 1:
    C @ x is scipy's unnormalized DCT-I of the M points x."""
    j = np.arange(M)
    # j k is reduced modulo the cosine's period 2 (M - 1) so that the argument
    # stays below 2 pi: unreduced, its rounding alone costs 1e-14 at M = 65
    matrix = 2.0 * np.cos(np.pi * (np.outer(j, j) % (2 * (M - 1))) / (M - 1))
    matrix[:, [0, -1]] *= 0.5
    return matrix


@lru_cache(maxsize=2)
def grid_symbol(grid, s):
    """The Symbol of ``grid`` at order ``s``, on its layout's frequencies.

    The last axis holds DFT modes k = 0..N/2 on both layouts: the rfftn half
    spectrum of a GridSpec, and the DCT-I coefficients of an EvenGrid.  The
    other axes hold all N modes on a GridSpec, and modes 0..N/2 again on an
    EvenGrid.  Two entries are cached, the even layout a solve iterates on and
    the full layout on which it confirms its stop; ``solve_ground_state``
    clears the cache on return so that the arrays live no longer than the
    solve.  An EvenGrid of at most ``_DENSE_DCT_POINTS`` points an axis also
    gets its DCT-I matrix.
    """
    even = isinstance(grid, EvenGrid)
    w_last = 2.0 * np.pi * fft.rfftfreq(grid.N, d=grid.spacing)
    w_axis = w_last if even else 2.0 * np.pi * fft.fftfreq(grid.N, d=grid.spacing)
    w_sq = sum(w ** 2 for w in np.ix_(*([w_axis] * (grid.n - 1) + [w_last])))
    M = len(w_last)
    dct = _dct1_matrix(M) if even and M <= _DENSE_DCT_POINTS else None
    sym = Symbol(w_sq, 1.0 / (1.0 + operator_symbol(w_sq, s)), dct)
    for arr in sym:
        if arr is not None:
            arr.flags.writeable = False
    return sym


def _dct1(x, matrix):
    """``x`` transformed by ``matrix`` along every axis, one product an axis."""
    shape, M = x.shape, len(matrix)
    for axis in range(x.ndim - 1):
        x = matrix @ x.reshape(M ** axis, M, -1)  # contracts the middle axis
    return (x.reshape(-1, M) @ matrix.T).reshape(shape)


def _multiply(f, m, dct):
    """The field whose transform is f's times the multiplier ``m``.

    ``dct`` is the grid's Symbol's DCT-I matrix, or None.
    """
    if dct is not None:
        c = _dct1(f.data, dct)
        c *= m
        # the inverse is the same product over 2 (M - 1) = N per axis
        return RealField(f.grid, _dct1(c, dct / f.grid.N))
    if isinstance(f.grid, EvenGrid):
        c = fft.dctn(f.data, type=1)
        c *= m
        return RealField(f.grid, fft.idctn(c, type=1))
    c = fft.rfftn(f.data)
    c *= m
    return RealField(f.grid, fft.irfftn(c, s=f.grid.shape))


def apply_operator(f, params, include_identity=False):
    """Apply -Laplacian + (-Laplacian)^s (optionally + identity) spectrally."""
    sym = grid_symbol(f.grid, params.s)
    m = operator_symbol(sym.w_sq, params.s)
    if include_identity:
        m += 1.0
    return _multiply(f, m, sym.dct)


def apply_resolvent(f, params):
    """Invert identity + operator: multiply by 1 / (1 + w^2 + w^{2s}) in frequency space."""
    sym = grid_symbol(f.grid, params.s)
    return _multiply(f, sym.resolvent, sym.dct)


def reduce_even(f):
    """``f`` on the even layout if it equals its reflection on every axis, else None.

    The reflection x -> -x maps full index k to (N - k) mod N.
    """
    grid = f.grid
    mirror = -np.arange(grid.N) % grid.N
    for axis in range(grid.n):
        if not np.array_equal(f.data, np.take(f.data, mirror, axis=axis)):
            return None
    half = np.r_[grid.N // 2:grid.N, 0]
    return RealField(EvenGrid(grid.n, grid.L, grid.N), f.data[np.ix_(*([half] * grid.n))])


def expand_even(f):
    """The full-layout field of the even-layout ``f``: full[k] = half[|k - N/2|]."""
    grid = f.grid
    half = np.abs(np.arange(grid.N) - grid.N // 2)
    return RealField(grid.full, f.data[np.ix_(*([half] * grid.n))])


def _parseval_scale(grid):
    """Box volume over N^{2n}: turns weighted sums of |rfftn|^2 into integrals."""
    return (2.0 * grid.L) ** grid.n / float(grid.N) ** (2 * grid.n)


def norms(f, params):
    """Discrete norms of a field.

    Returns a dict with keys l2, h1_seminorm, hs_seminorm, linf and
    sobolev_s.  The L^2 quantities use the spectral (Parseval-exact)
    quadrature; sobolev_s^2 = l2^2 + h1^2 + hs^2.
    """
    grid = f.grid
    w_sq = grid_symbol(grid, params.s).w_sq
    c = fft.rfftn(f.data)
    power = c.real ** 2
    power += c.imag ** 2
    # each kept mode counts with its dropped conjugate partner, so that the
    # half spectrum's weighted sum is the full one's: weight 1 on the zero and
    # Nyquist planes of the last axis, whose partners lie in the same plane
    weight = np.full(grid.N // 2 + 1, 2.0)
    weight[0] = weight[-1] = 1.0
    power *= weight
    scale = _parseval_scale(grid)
    l2_sq = scale * power.sum()
    h1_sq = scale * (w_sq * power).sum()
    hs_sq = scale * (w_sq ** params.s * power).sum()
    return {
        "l2": float(np.sqrt(l2_sq)),
        "h1_seminorm": float(np.sqrt(h1_sq)),
        "hs_seminorm": float(np.sqrt(hs_sq)),
        "linf": float(np.abs(f.data).max()),
        "sobolev_s": float(np.sqrt(l2_sq + h1_sq + hs_sq)),
    }


def positive_part_power(f, p, out=None):
    """(max(f, 0))^p, pointwise; written into the array ``out`` when given."""
    if p <= 0:
        raise ValueError("power p must be positive")
    out = np.maximum(f.data, 0.0, out=out)
    out **= p  # in place: one grid array, not two, at the solver's peak
    return RealField(f.grid, out)


# ---------------------------------------------------------------------------
# serialization


def write_field(path, f, **meta):
    """Write a field as little-endian float64 with a JSON header sidecar.

    The header holds the grid's n, L and N, plus the JSON values in ``meta``
    (``solve`` records s and p).  Both files are written atomically, the data
    first, so a reader never sees a partial data file.
    """
    path = str(path)
    atomic_write(path, np.ascontiguousarray(f.data, dtype="<f8"))
    header = dict(meta, n=f.grid.n, L=f.grid.L, N=f.grid.N)
    write_json(path + ".json", header)


def read_header(path, *keys):
    """The JSON header of the field at ``path``.

    Raises FieldFormatError when it lacks one of ``keys``.
    """
    with open(str(path) + ".json") as fh:
        header = json.load(fh)
    missing = [key for key in keys if key not in header]
    if missing:
        raise FieldFormatError(f"{path}.json: the header has no {', '.join(missing)}")
    return header


def read_field(path):
    """Read a field written by ``write_field``.

    Raises FieldFormatError when the header lacks n, L or N, or when the data
    file's size is not the 8 N^n bytes its header implies.
    """
    path = str(path)
    header = read_header(path, "n", "L", "N")
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
