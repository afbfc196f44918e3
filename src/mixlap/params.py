"""Shared parameter objects: operator parameters and quadrature settings."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class KernelParams:
    """Dimension and fractional order entering every kernel formula.

    ``n`` is the space dimension (>= 1) and ``s`` the fractional order in
    (0, 1).  The solver layer additionally requires n in {2, 3}; that is not
    enforced here because the kernel formulas are valid for every n >= 1.
    """

    n: int
    s: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"dimension n must be an integer >= 1, got {self.n}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"fractional order s must lie in (0, 1), got {self.s}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation limits for the oscillatory radial quadrature.

    ``max_zeros`` is the number of Bessel-zero subintervals summed before the
    alternating tail is extrapolated.  ``tail_accel`` selects the tail
    treatment: "alternating-series" (Wynn epsilon extrapolation of the partial
    sums) or "none" (plain summation).
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_zeros: int = 400
    tail_accel: str = "alternating-series"

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_zeros < 4:
            raise ValueError("max_zeros must be at least 4")
        if self.tail_accel not in ("none", "alternating-series"):
            raise ValueError(f"unknown tail_accel {self.tail_accel!r}")


DEFAULT_QUAD = QuadratureSpec()
