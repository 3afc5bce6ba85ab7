"""Exception hierarchy, and the one rule each for real and integer scalars.

The split matters to the command line layer, which maps validation errors
to exit code 2 and numerical errors to exit code 3.  ``finite_real`` and
``is_integer`` serve the library and the JSON decoders alike, without numpy.
"""

import math


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


def finite_real(value, what: str) -> float:
    """``value`` as a float, if it is a finite real number and not a bool."""
    if type(value) is not float:
        if type(value) is not int:
            from numbers import Real

            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValidationError(f"{what} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer of 309 or more digits
            raise ValidationError(
                f"{what} must be finite, got an integer beyond floating-point range"
            ) from None
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return value


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included, and not a bool."""
    if type(value) is int:
        return True
    from numbers import Integral

    return isinstance(value, Integral) and not isinstance(value, bool)
