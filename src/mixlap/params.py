"""Shared parameter objects and the operator symbol: operator parameters,
quadrature settings and the Fourier multiplier of -Laplacian + (-Laplacian)^s."""

from dataclasses import dataclass


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

    ``max_zeros`` caps the number of Bessel-zero subintervals summed.  The
    summation stops earlier, block by block, once the Wynn-epsilon
    extrapolations of the partial sums after two consecutive blocks agree
    within the tolerance; a sum that has not converged within the cap raises
    ``AccuracyError``.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_zeros: int = 400

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_zeros < 4:
            raise ValueError("max_zeros must be at least 4")


DEFAULT_QUAD = QuadratureSpec()


def operator_symbol(k_sq, s):
    """Multiplier k^2 + k^{2s} of -Laplacian + (-Laplacian)^s at squared frequency k_sq.

    The only place the symbol is written; it is evaluated in two units.
    ``kernels`` and ``mc`` pass k = |xi|, under the transform convention
    exp(2 pi i x.xi).  ``spectral`` and ``solver`` pass the angular wavenumber
    w = 2 pi |xi|.  So the Green's function of the solver's 1 + operator is
    G(x) = (2 pi)^{-n} K(x / 2 pi), with K = ``kernels.bessel_kernel``, and a
    ground state's tail constant is (2 pi)^{2s} c_H int u^p, with
    c_H = ``kernels.heat_tail_constant``.
    """
    return k_sq + k_sq ** s
