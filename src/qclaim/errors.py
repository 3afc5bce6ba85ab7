"""Exception hierarchy, and the one rule each for real scalars, integers, sizes and arrays.

The split matters to the command line layer, which maps validation errors
to exit code 2 and numerical errors to exit code 3.  The rules serve the
library and the JSON decoders alike; only ``numeric_array`` imports numpy.
"""

import math
import sys
from contextlib import suppress
from itertools import chain


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


MAX_SIZE = math.isqrt(sys.maxsize // 16)  # the largest n x n complex matrix numpy can address


def bounded_int(value, what: str, high: int = MAX_SIZE) -> int:
    """``value`` as an int in [1, high], if it is an integer and not a bool."""
    if not is_integer(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if not 1 <= value <= high:
        raise ValidationError(f"{what} must lie in [1, {high}], got {value}")
    return int(value)


def numeric_array(values, what: str, *, ndim: int, dtype=float):
    """``values`` as a fresh ``ndim``-dimensional ``dtype`` array, float or complex, of numbers not bools.

    A numeric ndarray, or a list of exactly typed leaves, converts in one copy; else a walk names
    the first bad entry ``what[i][j]`` (``ndim`` lists deep).  Floats come back finite; complex unchecked.
    """
    import numpy as np

    real, arr = dtype is float, None
    if isinstance(values, np.ndarray) and values.dtype.kind in ("iuf" if real else "iufc"):
        arr = np.array(values, dtype=dtype)
    elif isinstance(values, list):
        with suppress(ValueError, TypeError, OverflowError):
            converted, leaves = np.array(values, dtype=dtype), values
            for _ in range(converted.ndim - 1):
                leaves = chain.from_iterable(leaves)
            # The conversion alone takes True, None (as NaN) and "1.5".
            if set(map(type, leaves)) <= ({int, float} if real else {int, float, complex}):
                arr = converted
    if arr is None or (real and not np.isfinite(arr).all()):
        stack = [(values, what, 0)]
        while stack:  # row-major
            node, path, depth = stack.pop()
            node = node.tolist() if isinstance(node, np.ndarray) else node
            if isinstance(node, (list, tuple)) and depth < ndim:
                stack.extend((node[i], f"{path}[{i}]", depth + 1) for i in reversed(range(len(node))))
            elif real or not isinstance(node, (complex, np.complexfloating)):
                finite_real(node, path)
        try:
            arr = np.array(values, dtype=dtype)
        except ValueError:  # ragged
            raise DimensionMismatchError(f"{what} must be a rectangular array") from None
    if arr.ndim != ndim:
        words = ("zero", "one", "two", "three")
        raise DimensionMismatchError(
            f"{what} must be a {words[ndim]}-dimensional array, got shape {arr.shape}"
        )
    return arr
