"""Utility-optimal payout schedules, their returns, and divergence analytics.

Fixing a measurement basis reduces the problem to classical allocation
across outcomes: maximize expected utility of the payout subject to the
budget constraint that the claim's price equals the initial capital.  The
optimum equalizes marginal utility times physical probability against the
multiplier times pricing probability, outcome by outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import DegenerateMarginalError, DimensionMismatchError, NumericalError, SolverError
from .errors import ValidationError, bounded_int, finite_real, numeric_array
from .pricing import FinancialClaim, PricingKernel, _payout_vector
from .quantum import DensityMatrix, MeasurementBasis, basis_marginals
from .tolerances import DEFAULT_TOLERANCES as TOL

__all__ = _EXPORTS["investment"]

_MULTIPLIER_RANGE = (1e-300, 1e300)


@dataclass(frozen=True)
class UtilityFunction:
    """Strictly increasing, strictly concave utility on positive payouts.

    Two families: ``log`` with value log(x), and ``power`` with value
    x**p / p for an exponent p < 1, p != 0.  Marginal utility maps
    (0, inf) onto itself, so its inverse is defined for every positive
    argument.
    """

    kind: str
    exponent: float | None = None

    def __post_init__(self):
        if self.kind == "log":
            if self.exponent is not None:
                raise ValidationError("log utility takes no exponent")
        elif self.kind == "power":
            p = finite_real(self.exponent, "power utility exponent")
            if p >= 1.0 or p == 0.0:
                raise ValidationError(f"power utility exponent must be below 1 and nonzero, got {p!r}")
            object.__setattr__(self, "exponent", p)
        else:
            raise ValidationError(f'utility kind must be "log" or "power", got {self.kind!r}')

    @classmethod
    def log(cls) -> "UtilityFunction":
        return cls("log")

    @classmethod
    def power(cls, exponent: float) -> "UtilityFunction":
        return cls("power", exponent)

    @property
    def _marginal_exponent(self) -> float:
        """p - 1, marginal utility being x**(p - 1) in both families, with p = 0 for log."""
        return (0.0 if self.exponent is None else self.exponent) - 1.0

    def value(self, payout):
        if self.kind == "log":
            return np.log(payout)
        return np.power(payout, self.exponent) / self.exponent

    def marginal(self, payout):
        return np.power(payout, self._marginal_exponent)

    def inverse_marginal(self, slope):
        return np.power(slope, 1.0 / self._marginal_exponent)


class OptimalInvestment:
    """Solver output: strictly positive payouts that exactly spend the budget."""

    __slots__ = ("basis", "payouts", "multiplier", "budget", "realized_price")

    def __init__(
        self,
        basis: MeasurementBasis,
        payouts,
        multiplier: float,
        budget: float,
        realized_price: float,
    ):
        arr = _payout_vector(payouts, basis)
        if (arr <= 0).any():
            raise ValidationError("optimal payouts must be strictly positive and finite")
        self.multiplier = finite_real(multiplier, "budget multiplier")
        if self.multiplier <= 0.0:
            raise ValidationError(f"budget multiplier must be positive, got {self.multiplier!r}")
        arr.setflags(write=False)
        self.basis = basis
        self.payouts = arr
        self.budget = finite_real(budget, "budget")
        self.realized_price = finite_real(realized_price, "realized price")

    def __repr__(self) -> str:
        return (
            f"OptimalInvestment(dim={self.basis.dim}, budget={self.budget!r},"
            f" multiplier={self.multiplier!r})"
        )


@dataclass(frozen=True)
class ReturnReport:
    """Gross return and its decomposition into interest and excess rates."""

    gross_return: float
    total_rate: float
    interest_rate: float
    excess_rate: float
    horizon: float


@dataclass(frozen=True)
class DivergenceReport:
    """Relative entropy between outcome distributions on a common basis."""

    kl: float
    p_marginals: np.ndarray
    q_marginals: np.ndarray


def _checked_distribution(values, name: str) -> np.ndarray:
    arr = numeric_array(values, name, ndim=1)
    if arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty vector")
    if (arr < 0).any():
        raise ValidationError(f"{name} must be finite and nonnegative")
    total = float(arr.sum())
    if not abs(total - 1.0) <= TOL.trace:
        raise ValidationError(f"{name} must sum to 1, got {total:.12g}")
    arr.setflags(write=False)
    return arr


def solve_multiplier(
    coefficients,
    budget: float,
    discount: float,
    utility: UtilityFunction,
) -> float:
    """Multiplier that makes the payout schedule spend the budget, in closed form.

    ``coefficients`` is a sequence of (pricing weight, slope ratio) pairs
    and the budget equation is discount * sum_j I(multiplier * ratio_j) *
    weight_j = budget.  Both utility families invert marginal utility as
    I(y) = y**(1 / (p - 1)), log utility being the exponent-0 member, so
    the root is (budget / (discount * S))**(p - 1) with S = sum_j weight_j
    * ratio_j**(1 / (p - 1)).  S is summed as a log-sum-exp so that
    exponents near p = 1 do not overflow.  A multiplier outside
    [1e-300, 1e300] raises ``SolverError``.
    """
    pairs = list(coefficients)
    if not pairs:
        raise ValidationError("at least one outcome is required")
    weights = numeric_array([p[0] for p in pairs], "pricing weights", ndim=1)
    ratios = numeric_array([p[1] for p in pairs], "slope ratios", ndim=1)
    if (weights <= 0).any() or (ratios <= 0).any():
        raise ValidationError("pricing weights and slope ratios must be positive")
    budget = finite_real(budget, "budget")
    if budget <= 0.0:
        raise ValidationError(f"budget must be positive, got {budget!r}")
    discount = finite_real(discount, "discount factor")
    if not 0.0 < discount <= 1.0:
        raise ValidationError(f"discount factor must lie in (0, 1], got {discount!r}")

    slope_power = utility._marginal_exponent
    log_sum = float(np.logaddexp.reduce(np.log(weights) + np.log(ratios) / slope_power))
    log_multiplier = slope_power * (math.log(budget) - math.log(discount) - log_sum)
    lo, hi = _MULTIPLIER_RANGE
    if not math.log(lo) <= log_multiplier <= math.log(hi):
        raise SolverError(
            f"budget multiplier exp({log_multiplier:.6g}) lies outside [{lo:g}, {hi:g}]; "
            "inputs are pathological"
        )
    return math.exp(log_multiplier)


def _positive_marginals(
    state: DensityMatrix, kernel: PricingKernel, basis: MeasurementBasis
) -> tuple[np.ndarray, np.ndarray]:
    p_m = basis_marginals(state, basis)
    q_m = basis_marginals(kernel.q, basis)
    for label, arr in (("physical", p_m), ("pricing", q_m)):
        small = int(np.argmin(arr))
        if arr[small] <= TOL.marginal_floor:
            raise DegenerateMarginalError(
                f"{label} probability {arr[small]:.3e} at outcome {small} is below the "
                f"marginal floor; the allocation problem is ill posed on this basis"
            )
    return p_m, q_m


def optimal_payouts(
    state: DensityMatrix,
    kernel: PricingKernel,
    basis: MeasurementBasis,
    budget: float,
    utility: UtilityFunction,
) -> OptimalInvestment:
    """Expected-utility-maximizing payout schedule on ``basis`` under the budget.

    Outcome j receives I(multiplier * q_j / p_j) where p_j and q_j are the
    physical and pricing probabilities of the outcome and I inverts
    marginal utility; the multiplier is solved so the claim's price equals
    the budget exactly.
    """
    budget = finite_real(budget, "budget")
    p_m, q_m = _positive_marginals(state, kernel, basis)
    ratios = q_m / p_m
    multiplier = solve_multiplier(zip(q_m.tolist(), ratios.tolist()), budget, kernel.discount, utility)
    with np.errstate(over="ignore", divide="ignore"):
        payouts = utility.inverse_marginal(multiplier * ratios)
        realized = kernel.discount * float(payouts @ q_m)
    if not ((payouts > 0).all() and np.isfinite(payouts).all() and math.isfinite(realized)):
        raise SolverError(
            f"multiplier {multiplier!r} gives payouts or a price beyond floating-point range"
        )
    if not abs(realized - budget) <= TOL.budget * max(1.0, budget):
        raise NumericalError(f"budget not saturated: realized price {realized!r} vs budget {budget!r}")
    return OptimalInvestment(basis, payouts, multiplier, budget, realized)


def expected_utility(
    state: DensityMatrix,
    basis: MeasurementBasis,
    payouts,
    utility: UtilityFunction,
) -> float:
    """Expectation of utility of the payout under the state's basis marginals."""
    arr = _payout_vector(payouts, basis)
    if (arr <= 0).any():
        j = int(np.argmin(arr))
        raise ValidationError(f"utility undefined at nonpositive payout {arr[j]:.6g} (outcome {j})")
    marginals = basis_marginals(state, basis)
    return float(utility.value(arr) @ marginals)


def verify_optimality(
    candidate: OptimalInvestment,
    state: DensityMatrix,
    kernel: PricingKernel,
    utility: UtilityFunction,
    trials: int,
    rng: np.random.Generator,
) -> bool:
    """Check the candidate is not beaten by random budget-exhausting payouts.

    Alternatives spread the budget across outcomes with uniform-on-simplex
    weights (good coverage of extreme allocations) and are scaled to spend
    the budget exactly.  Returns False as soon as any alternative exceeds
    the candidate's expected utility beyond the optimality tolerance.
    A candidate whose payouts, priced under ``kernel``, do not cost its
    budget raises ``ValidationError``.
    """
    trials = bounded_int(trials, "trials")  # trials x dimension floats stay within MAX_SIZE**2
    p_m, q_m = _positive_marginals(state, kernel, candidate.basis)
    cost = kernel.discount * float(candidate.payouts @ q_m)
    if not abs(cost - candidate.budget) <= TOL.budget * max(1.0, abs(candidate.budget)):
        raise ValidationError(
            f"budget not saturated: candidate costs {cost!r} against budget {candidate.budget!r}"
        )
    base = float(utility.value(candidate.payouts) @ p_m)
    shares = rng.dirichlet(np.ones(candidate.basis.dim), size=trials)
    with np.errstate(divide="ignore", over="ignore"):
        alternatives = candidate.budget * shares / (kernel.discount * q_m)
        scores = utility.value(alternatives) @ p_m
    if np.isposinf(scores).any():
        raise NumericalError(
            "a random alternative payout overflowed; the budget is beyond floating-point range"
        )
    return bool(np.all(scores <= base + TOL.optimality))


def _checked_pair(p_marginals, q_marginals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Both distributions checked, equally long, and q > 0 wherever p > 0; also returns p's support.
    p_m = _checked_distribution(p_marginals, "physical marginals")
    q_m = _checked_distribution(q_marginals, "pricing marginals")
    if p_m.shape != q_m.shape:
        raise DimensionMismatchError("marginal vectors differ in length")
    mask = p_m > 0.0
    if (q_m[mask] == 0.0).any():
        j = int(np.flatnonzero(mask & (q_m == 0.0))[0])
        raise ValidationError(
            f"support violation at outcome {j}: physical mass {p_m[j]:.6g} where pricing mass is 0"
        )
    return p_m, q_m, mask


def excess_return_factor(p_marginals, q_marginals) -> float:
    """Growth factor sum_j p_j^2 / q_j of the log-optimal payout schedule."""
    p_m, q_m, mask = _checked_pair(p_marginals, q_marginals)
    with np.errstate(over="ignore"):  # a subnormal q_j overflows; the finite check names it
        factor = float(np.sum(p_m[mask] ** 2 / q_m[mask]))
    if not math.isfinite(factor):
        raise ValidationError(f"growth factor must be finite, got {factor!r}")
    return factor


def kl_divergence(p_marginals, q_marginals) -> DivergenceReport:
    """Relative entropy sum_j p_j log(p_j / q_j); zero-probability terms drop out."""
    p_m, q_m, mask = _checked_pair(p_marginals, q_marginals)
    with np.errstate(over="ignore"):  # a subnormal q_j overflows; the finite check names it
        kl = max(float(np.sum(p_m[mask] * np.log(p_m[mask] / q_m[mask]))), 0.0)
    if not math.isfinite(kl):
        raise ValidationError(f"divergence must be finite and nonnegative, got {kl!r}")
    return DivergenceReport(kl, p_m, q_m)


def rate_of_return(
    state: DensityMatrix,
    kernel: PricingKernel,
    basis: MeasurementBasis,
    payouts,
    horizon: float = 1.0,
    *,
    verify_log_optimal: bool = False,
) -> ReturnReport:
    """Gross return, total/interest/excess rates of a payout schedule.

    The gross return is expected payout divided by price; the interest
    rate comes from the discount factor alone.  With
    ``verify_log_optimal`` the discounted gross return is cross-checked
    against the closed-form growth factor of the log-optimal schedule.
    """
    arr = FinancialClaim(basis, payouts).payouts
    t = finite_real(horizon, "horizon")
    if t <= 0.0:
        raise ValidationError(f"horizon must be positive, got {t!r}")
    p_m = basis_marginals(state, basis)
    q_m = basis_marginals(kernel.q, basis)
    initial = kernel.discount * float(arr @ q_m)
    if initial <= 0.0:
        raise ValidationError("payout schedule has zero price; return undefined")
    gross = float(arr @ p_m) / initial
    if gross <= 0.0:
        raise ValidationError("gross return must be positive for rate decomposition")
    interest = -math.log(kernel.discount) / t
    total = math.log(gross) / t
    report = ReturnReport(gross, total, interest, total - interest, t)
    for name in ("gross_return", "total_rate", "interest_rate", "excess_rate"):
        if not math.isfinite(getattr(report, name)):
            raise ValidationError(f"return report field {name} must be finite")
    if verify_log_optimal:
        factor = excess_return_factor(p_m, q_m)
        gap = abs(gross * kernel.discount - factor)
        if not gap <= TOL.excess_identity * max(1.0, factor):
            raise NumericalError(
                f"discounted gross return {gross * kernel.discount:.12g} does not match "
                f"the log-optimal growth factor {factor:.12g}"
            )
    return report
