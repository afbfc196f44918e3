"""Kernels, ground states and verification suites for -Laplacian + (-Laplacian)^s."""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    DegenerateIterateError,
    FieldFormatError,
    GridMismatchError,
    MixlapError,
)
from .params import DEFAULT_QUAD, KernelParams, QuadratureSpec

__all__ = [
    "AccuracyError",
    "DegenerateIterateError",
    "FieldFormatError",
    "GridMismatchError",
    "MixlapError",
    "DEFAULT_QUAD",
    "KernelParams",
    "QuadratureSpec",
    "__version__",
]
