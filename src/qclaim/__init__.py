"""Claims contingent on quantum measurement outcomes: pricing, calibration,
optimal investment, contextuality checks, and multi-subsystem portfolios.

Only the error classes and tolerances load with the package.  Every other
name, and each submodule, is imported on first access, so a program that
needs only the integer Kochen-Specker path never loads numpy.

``_EXPORTS`` below is the one list of those public names: each numeric
module's ``__all__`` is its row of that table, so a name is added or
removed in one place.
"""

import sys as _sys
from importlib import import_module as _import_module

from . import errors, tolerances
from .errors import (
    CalibrationError,
    DegenerateMarginalError,
    DimensionMismatchError,
    NumericalError,
    QClaimError,
    SolverError,
    ValidationError,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"

# Submodule -> the public names the package re-exports from it; also that
# submodule's ``__all__``.
_EXPORTS = {
    "investment": (
        "DivergenceReport",
        "OptimalInvestment",
        "ReturnReport",
        "UtilityFunction",
        "excess_return_factor",
        "expected_utility",
        "kl_divergence",
        "optimal_payouts",
        "rate_of_return",
        "solve_multiplier",
        "verify_optimality",
    ),
    "kochen_specker": (
        "ContractMenu",
        "KSBasis",
        "KSRay",
        "KSSystem",
        "cabello_system",
        "choose_contract",
        "menu_prices",
        "menu_probabilities",
        "parity_certificate",
        "search_colourings",
        "structure_diagnostics",
    ),
    "portfolio": (
        "CorrelationReport",
        "PortfolioObservable",
        "TwoPartyState",
        "is_ppt",
        "nparty_expected_payout",
        "nparty_portfolio_operator",
        "payout_covariance",
        "portfolio_expected_payout",
        "portfolio_observable",
        "portfolio_price",
        "product_state",
        "separable_mixture",
    ),
    "pricing": (
        "AxiomReport",
        "FinancialClaim",
        "PricingKernel",
        "arrow_debreu",
        "calibrate",
        "check_axioms",
        "discount_bond",
        "expected_payout",
        "price",
    ),
    "quantum": (
        "DensityMatrix",
        "HermitianOperator",
        "MeasurementBasis",
        "Spectrum",
        "absolutely_continuous",
        "basis_marginals",
        "eigendecompose",
        "equivalent_states",
        "from_spectrum",
        "standard_basis",
        "subsystem_marginal",
    ),
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"cli", "serialization", *_EXPORTS})

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    | _MODULE_OF.keys()
    | _EXPORTS.keys()
)


def __getattr__(name: str):
    # Looked up on every access and never stored here, so the package
    # always returns what the defining module currently binds.  Once that
    # module is loaded, an access costs two dict lookups, not an import.
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_sys.modules.get(module) or _import_module(module), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
