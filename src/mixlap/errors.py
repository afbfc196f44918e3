"""Exception types shared across the package."""


class MixlapError(Exception):
    """Base class for package errors."""


class AccuracyError(MixlapError):
    """A quadrature or iteration did not reach the requested tolerance.

    Carries the achieved error estimate in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class DegenerateIterateError(MixlapError):
    """The fixed-point iteration collapsed to a nonpositive field."""


class GridMismatchError(MixlapError):
    """Operands live on different grids."""


class FieldFormatError(MixlapError, ValueError):
    """A stored field does not match its header.

    Also a ValueError: like any malformed input, the CLI reports it as a
    usage error (exit 2).
    """
