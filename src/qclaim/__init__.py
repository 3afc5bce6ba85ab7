"""Claims contingent on quantum measurement outcomes: pricing, calibration,
optimal investment, contextuality checks, and multi-subsystem portfolios."""

from .errors import (
    CalibrationError,
    DegenerateMarginalError,
    DimensionMismatchError,
    NumericalError,
    QClaimError,
    SolverError,
    ValidationError,
)
from .investment import (
    DivergenceReport,
    OptimalInvestment,
    ReturnReport,
    UtilityFunction,
    excess_return_factor,
    expected_utility,
    kl_divergence,
    optimal_payouts,
    rate_of_return,
    solve_multiplier,
    verify_optimality,
)
from .kochen_specker import (
    ContractMenu,
    KSBasis,
    KSRay,
    KSSystem,
    cabello_system,
    choose_contract,
    menu_prices,
    menu_probabilities,
    parity_certificate,
    search_colourings,
    structure_diagnostics,
    verify_structure,
)
from .portfolio import (
    CorrelationReport,
    PortfolioObservable,
    TwoPartyState,
    is_ppt,
    nparty_expected_payout,
    nparty_portfolio_operator,
    payout_covariance,
    portfolio_expected_payout,
    portfolio_observable,
    portfolio_price,
    product_state,
    separable_mixture,
)
from .pricing import (
    AxiomReport,
    FinancialClaim,
    PricingKernel,
    arrow_debreu,
    calibrate,
    check_axioms,
    claim_combine,
    discount_bond,
    expected_payout,
    price,
)
from .quantum import (
    DensityMatrix,
    HermitianOperator,
    MeasurementBasis,
    Spectrum,
    absolutely_continuous,
    basis_marginals,
    born_probability,
    eigendecompose,
    equivalent_states,
    evolve,
    from_spectrum,
    identity_operator,
    partial_trace,
    standard_basis,
    subsystem_marginal,
    tensor_product,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances, tolerances_from_env

__version__ = "0.1.0"
