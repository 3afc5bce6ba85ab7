"""Joint states over two (or more) subsystems: portfolio payouts and correlations.

A two-leg portfolio holds weighted positions in one observable per
subsystem.  Its expected payout and price split additively across the
subsystem marginals for every joint state, entangled or not; correlations
show up only at the level of covariances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .errors import DimensionMismatchError, NumericalError, ValidationError, bounded_int, finite_real
from .pricing import PricingKernel
from .quantum import DensityMatrix, HermitianOperator, _trusted, subsystem_marginal
from .tolerances import DEFAULT_TOLERANCES as TOL

__all__ = _EXPORTS["portfolio"]


class TwoPartyState:
    """Joint state over a pair of subsystems of the given dimensions."""

    __slots__ = ("dims", "rho")

    def __init__(self, dims: tuple[int, int], rho: DensityMatrix):
        if len(dims) != 2:
            raise ValidationError(f"subsystem dimensions must be a pair, got {dims!r}")
        n, m = (bounded_int(d, "subsystem dimension") for d in dims)
        if n * m != rho.dim:
            raise DimensionMismatchError(
                f"subsystem dimensions {n}x{m} do not compose to state dimension {rho.dim}"
            )
        self.dims = (n, m)
        self.rho = rho

    def __repr__(self) -> str:
        return f"TwoPartyState(dims={self.dims})"


@dataclass(frozen=True)
class PortfolioObservable:
    """Two weighted single-subsystem positions; weights may be negative (shorts)."""

    first: HermitianOperator
    second: HermitianOperator
    weights: tuple[float, float]

    def __post_init__(self):
        if len(self.weights) != 2:
            raise ValidationError(f"weights must be two finite reals, got {self.weights!r}")
        object.__setattr__(self, "weights", tuple(_real_weights(self.weights)))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.first.dim, self.second.dim)


@dataclass(frozen=True)
class CorrelationReport:
    """Covariance of two subsystem observables under a joint state.

    ``computed_under`` records whether the state was the physical or the
    pricing one.  The covariance is raw (not normalized): callers that
    want a correlation coefficient must divide by standard deviations
    themselves and handle degenerate (zero-variance) legs.
    """

    covariance: float
    marginal_means: tuple[float, float]
    computed_under: str


def product_state(first: DensityMatrix, second: DensityMatrix) -> TwoPartyState:
    """Uncorrelated joint state: Kronecker product of the two factors."""
    joint = _trusted(DensityMatrix, np.kron(first.entries, second.entries))
    return TwoPartyState((first.dim, second.dim), joint)


def separable_mixture(components: Sequence[tuple[float, DensityMatrix, DensityMatrix]]) -> TwoPartyState:
    """Convex mixture of product states with explicit weights."""
    items = list(components)
    if not items:
        raise ValidationError("a mixture needs at least one component")
    dims = (items[0][1].dim, items[0][2].dim)
    total = 0.0
    joint = np.zeros((dims[0] * dims[1], dims[0] * dims[1]), dtype=complex)
    for k, (weight, first, second) in enumerate(items):
        w = finite_real(weight, f"component {k}: weight")
        if w < 0.0:
            raise ValidationError(f"component {k}: weight must be nonnegative, got {w!r}")
        if (first.dim, second.dim) != dims:
            raise DimensionMismatchError(
                f"component {k}: factor dimensions {(first.dim, second.dim)} differ from {dims}"
            )
        joint += w * np.kron(first.entries, second.entries)
        total += w
    if not abs(total - 1.0) <= TOL.trace:
        raise ValidationError(f"mixture weights must sum to 1, got {total:.12g}")
    return TwoPartyState(dims, _trusted(DensityMatrix, joint))


def is_ppt(state: TwoPartyState) -> bool:
    """Whether the partial transpose over the second subsystem stays PSD.

    A negative eigenvalue certifies entanglement.  A nonnegative spectrum
    certifies separability only for factor dimensions 2x2 and 2x3; beyond
    those sizes PPT entangled states exist and this test stays one-sided.
    """
    n, m = state.dims
    blocks = state.rho.entries.reshape(n, m, n, m)
    transposed = blocks.transpose(0, 3, 2, 1).reshape(n * m, n * m)
    smallest = float(np.linalg.eigvalsh(transposed)[0])
    return smallest >= -TOL.psd


def portfolio_observable(
    first: HermitianOperator, second: HermitianOperator, weights: tuple[float, float]
) -> PortfolioObservable:
    """Bundle one observable per subsystem with position weights."""
    return PortfolioObservable(first, second, tuple(weights))


def _real_trace_product(a: np.ndarray, b: np.ndarray) -> float:
    # tr(ab) for Hermitian a, b without forming the product matrix.
    return float(np.real(np.sum(a * b.T)))


def portfolio_expected_payout(state: TwoPartyState, observable: PortfolioObservable) -> float:
    """Expected portfolio payout, verified to split across subsystem marginals.

    The two-leg case of ``nparty_expected_payout``: the joint-space
    expectation must agree with the weighted sum of single-subsystem
    expectations for every state; disagreement beyond tolerance signals a
    numerical fault, not a property of the state.
    """
    if state.dims != observable.dims:
        raise DimensionMismatchError(
            f"state dimensions {state.dims} differ from observable dimensions {observable.dims}"
        )
    legs = (observable.first, observable.second)
    return nparty_expected_payout(state.rho, legs, observable.weights)


def portfolio_price(kernel: PricingKernel, observable: PortfolioObservable) -> float:
    """Present value of the portfolio under a joint-space kernel, split-verified."""
    legs = (observable.first, observable.second)
    return kernel.discount * nparty_expected_payout(kernel.q, legs, observable.weights)


def payout_covariance(
    state: TwoPartyState,
    first: HermitianOperator,
    second: HermitianOperator,
    under: str = "physical",
) -> CorrelationReport:
    """Covariance of two one-per-subsystem payouts under the joint state.

    Both observables are centered by their marginal means before taking
    the joint expectation.  Pass the pricing state with under="pricing" to
    label the result accordingly.
    """
    if under not in ("physical", "pricing"):
        raise ValidationError(f'computed_under must be "physical" or "pricing", got {under!r}')
    n, m = state.dims
    if first.dim != n or second.dim != m:
        raise DimensionMismatchError(
            f"observable dimensions {(first.dim, second.dim)} differ from state dimensions {state.dims}"
        )
    reduced_first = subsystem_marginal(state.rho, state.dims, 0)
    reduced_second = subsystem_marginal(state.rho, state.dims, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing legs end in the finite check
        mean_first = _real_trace_product(reduced_first.entries, first.entries)
        mean_second = _real_trace_product(reduced_second.entries, second.entries)
        centered = np.kron(
            first.entries - mean_first * np.eye(n), second.entries - mean_second * np.eye(m)
        )
        covariance = _real_trace_product(state.rho.entries, centered)
    if not all(math.isfinite(x) for x in (covariance, mean_first, mean_second)):
        raise ValidationError("correlation report fields must be finite")
    return CorrelationReport(covariance, (mean_first, mean_second), under)


def _real_weights(weights) -> list[float]:
    return [finite_real(x, f"weights[{i}]") for i, x in enumerate(weights)]


def nparty_portfolio_operator(
    operators: Sequence[HermitianOperator], weights: Sequence[float]
) -> HermitianOperator:
    """Sum of weighted one-per-subsystem positions on an N-fold joint space."""
    ops = list(operators)
    w = _real_weights(weights)
    if not ops or len(ops) != len(w):
        raise ValidationError("need one weight per operator, at least one of each")
    dims = [op.dim for op in ops]
    total_dim = math.prod(dims)
    joint = np.zeros((total_dim, total_dim), dtype=complex)
    for i, op in enumerate(ops):
        before, after = math.prod(dims[:i]), math.prod(dims[i + 1 :])
        # Leg i is id x op x id: add w * op to every block diagonal in the other factors' indices.
        blocks = joint.reshape(before, dims[i], after, before, dims[i], after)
        np.einsum("aibajb->abij", blocks)[...] += w[i] * op.entries
    return _trusted(HermitianOperator, joint)


def nparty_expected_payout(
    state: DensityMatrix,
    operators: Sequence[HermitianOperator],
    weights: Sequence[float],
) -> float:
    """Expected N-leg portfolio payout, verified additive across marginals."""
    ops = list(operators)
    w = _real_weights(weights)
    dims = [op.dim for op in ops]
    joint_op = nparty_portfolio_operator(ops, w)
    if state.dim != joint_op.dim:
        raise DimensionMismatchError(
            f"state dimension {state.dim} does not match joint dimension {joint_op.dim}"
        )
    joint = _real_trace_product(state.entries, joint_op.entries)
    split = 0.0
    for i, op in enumerate(ops):
        reduced = subsystem_marginal(state, dims, i)
        split += w[i] * _real_trace_product(reduced.entries, op.entries)
    if not abs(joint - split) <= TOL.additivity * max(1.0, abs(joint)):  # NaN fails too
        raise NumericalError(
            f"additivity violated numerically: joint {joint!r} vs marginal split {split!r}"
        )
    return joint
