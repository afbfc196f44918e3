"""Physical coordinates of a box grid, for tests that paint fields or build
oracles from them.

The library addresses grid points by index only: the field audits group
points by integer grid offsets from the peak.  The coordinates below are
those of the module docstring of ``mixlap.spectral``: x_k = -L + k h on the
full layout and x_j = j h on the even layout, h = 2L / N.
"""

import numpy as np

from mixlap.spectral import EvenGrid


def axis(grid):
    """Coordinates along one axis of ``grid``, on either layout."""
    if isinstance(grid, EvenGrid):
        return grid.spacing * np.arange(grid.N // 2 + 1)
    return -grid.L + grid.spacing * np.arange(grid.N)


def meshgrid(grid):
    """One coordinate array per axis, in ``ij`` indexing."""
    ax = axis(grid)
    return np.meshgrid(*([ax] * grid.n), indexing="ij")


def radius(grid, center=None):
    """Distance of every grid point from ``center``, a point in coordinates
    (the origin when None)."""
    if center is None:
        center = (0.0,) * grid.n
    return np.sqrt(sum((m - c) ** 2 for m, c in zip(meshgrid(grid), center)))
