"""Every floating-point threshold used by the library, in one record."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds behind every exact statement in the library.

    Exact identities hold only in exact arithmetic; any check against a
    stored matrix or a solver output goes through one of these fields.
    """

    hermiticity: float = 1e-9
    orthonormality: float = 1e-9
    trace: float = 1e-9
    psd: float = 1e-9
    null_space: float = 1e-9
    price: float = 1e-8
    calibration: float = 1e-8
    budget: float = 1e-8
    marginal_floor: float = 1e-12
    excess_identity: float = 1e-10
    optimality: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()
