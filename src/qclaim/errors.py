"""Exception hierarchy: input validation failures vs numerical failures.

The split matters to the command line layer, which maps validation errors
to exit code 2 and numerical errors to exit code 3.
"""


class QClaimError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QClaimError):
    """Malformed input or a violated construction invariant."""


class DimensionMismatchError(ValidationError):
    """Operands live on spaces of different dimension."""


class NumericalError(QClaimError):
    """A numerical procedure failed: residual, positivity or convergence."""


class CalibrationError(NumericalError):
    """Recovering a pricing state from quotes failed."""


class SolverError(NumericalError):
    """The budget multiplier or the payouts it implies lie beyond floating-point range."""


class DegenerateMarginalError(NumericalError):
    """A measurement outcome carries numerically zero probability mass."""
