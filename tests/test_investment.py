import math

import numpy as np
import pytest

import qclaim as qc
from helpers import random_basis, random_density


def diag_state(*weights):
    return qc.DensityMatrix(np.diag(weights))


UTILITIES = [qc.UtilityFunction.log(), qc.UtilityFunction.power(0.5),
             qc.UtilityFunction.power(-1.0), qc.UtilityFunction.power(-3.0)]


def test_utility_validation():
    with pytest.raises(qc.ValidationError):
        qc.UtilityFunction.power(0.0)
    with pytest.raises(qc.ValidationError):
        qc.UtilityFunction.power(1.0)
    with pytest.raises(qc.ValidationError):
        qc.UtilityFunction.power(1.5)
    with pytest.raises(qc.ValidationError):
        qc.UtilityFunction("log", 2.0)
    with pytest.raises(qc.ValidationError):
        qc.UtilityFunction("exp")


def test_utility_values():
    log = qc.UtilityFunction.log()
    assert log.value(math.e) == pytest.approx(1.0)
    sqrt = qc.UtilityFunction.power(0.5)
    assert sqrt.value(4.0) == pytest.approx(4.0)  # x**0.5 / 0.5
    assert sqrt.marginal(4.0) == pytest.approx(0.5)  # x**(p-1) at p=1/2


@pytest.mark.parametrize("utility", UTILITIES)
def test_inverse_marginal_round_trip(utility):
    xs = np.geomspace(1e-6, 1e6, 25)
    back = utility.inverse_marginal(utility.marginal(xs))
    assert np.allclose(back, xs, rtol=1e-10)


@pytest.mark.parametrize("utility", UTILITIES)
def test_marginal_is_positive_and_decreasing(utility):
    xs = np.geomspace(1e-3, 1e3, 40)
    slopes = utility.marginal(xs)
    assert (slopes > 0).all()
    assert (np.diff(slopes) < 0).all()


def test_solve_multiplier_log_closed_form():
    # for log utility the budget map is discount / multiplier exactly
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        q = rng.dirichlet(np.ones(n))
        p = rng.dirichlet(np.ones(n))
        budget = rng.uniform(0.1, 50.0)
        discount = rng.uniform(0.1, 1.0)
        got = qc.solve_multiplier(
            list(zip(q, q / p)), budget, discount, qc.UtilityFunction.log()
        )
        assert got == pytest.approx(discount / budget, rel=1e-9)


def test_solve_multiplier_power_single_outcome():
    # spent(m) = m**-2 for exponent 0.5, so budget 4 pins m = 0.5
    got = qc.solve_multiplier([(1.0, 1.0)], 4.0, 1.0, qc.UtilityFunction.power(0.5))
    assert got == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("utility", UTILITIES)
def test_solve_multiplier_meets_budget(utility):
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        q = rng.dirichlet(np.ones(n))
        p = rng.dirichlet(np.ones(n))
        budget = rng.uniform(0.05, 20.0)
        discount = rng.uniform(0.2, 1.0)
        ratios = q / p
        got = qc.solve_multiplier(list(zip(q, ratios)), budget, discount, utility)
        spent = discount * float(utility.inverse_marginal(got * ratios) @ q)
        assert abs(spent - budget) <= 1e-12 * budget


def test_solve_multiplier_decreases_with_budget():
    coeff = [(0.5, 1.2), (0.5, 0.8)]
    small = qc.solve_multiplier(coeff, 1.0, 0.9, qc.UtilityFunction.power(0.5))
    large = qc.solve_multiplier(coeff, 2.0, 0.9, qc.UtilityFunction.power(0.5))
    assert large < small


def test_solve_multiplier_validation():
    log = qc.UtilityFunction.log()
    with pytest.raises(qc.ValidationError):
        qc.solve_multiplier([], 1.0, 0.9, log)
    with pytest.raises(qc.ValidationError):
        qc.solve_multiplier([(0.0, 1.0)], 1.0, 0.9, log)
    with pytest.raises(qc.ValidationError):
        qc.solve_multiplier([(1.0, 1.0)], -1.0, 0.9, log)
    with pytest.raises(qc.SolverError):
        qc.solve_multiplier([(1.0, 1.0)], 1e305, 1.0, log)


def test_optimal_payouts_frozen_log_example():
    state = diag_state(0.8, 0.2)
    kernel = qc.PricingKernel(1.0, diag_state(0.5, 0.5))
    plan = qc.optimal_payouts(state, kernel, qc.standard_basis(2), 1.0, qc.UtilityFunction.log())
    assert plan.payouts == pytest.approx([1.6, 0.4], abs=1e-9)
    assert plan.multiplier == pytest.approx(1.0, rel=1e-9)
    assert plan.realized_price == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("utility", [qc.UtilityFunction.log(), qc.UtilityFunction.power(0.5)])
def test_optimal_payouts_flat_when_states_agree(utility):
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        state = random_density(rng, n)
        kernel = qc.PricingKernel(rng.uniform(0.3, 1.0), state)
        basis = random_basis(rng, n)
        budget = rng.uniform(0.5, 5.0)
        plan = qc.optimal_payouts(state, kernel, basis, budget, utility)
        assert np.allclose(plan.payouts, budget / kernel.discount, atol=1e-8)


def test_optimal_payouts_log_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        state = random_density(rng, n, floor=0.05)
        kernel = qc.PricingKernel(rng.uniform(0.3, 1.0), random_density(rng, n, floor=0.05))
        basis = random_basis(rng, n)
        budget = rng.uniform(0.5, 5.0)
        plan = qc.optimal_payouts(state, kernel, basis, budget, qc.UtilityFunction.log())
        p_m = qc.basis_marginals(state, basis)
        q_m = qc.basis_marginals(kernel.q, basis)
        want = budget * p_m / (kernel.discount * q_m)
        assert np.allclose(plan.payouts, want, rtol=1e-9)


@pytest.mark.parametrize("utility", UTILITIES)
def test_first_order_conditions(utility):
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        state = random_density(rng, n, floor=0.05)
        kernel = qc.PricingKernel(rng.uniform(0.3, 1.0), random_density(rng, n, floor=0.05))
        basis = random_basis(rng, n)
        plan = qc.optimal_payouts(state, kernel, basis, 1.0, utility)
        p_m = qc.basis_marginals(state, basis)
        q_m = qc.basis_marginals(kernel.q, basis)
        gap = np.abs(utility.marginal(plan.payouts) * p_m - plan.multiplier * q_m)
        assert gap.max() < 1e-8


def test_degenerate_marginals_are_rejected():
    kernel = qc.PricingKernel(0.9, diag_state(0.5, 0.5))
    pure = diag_state(1.0, 0.0)
    with pytest.raises(qc.DegenerateMarginalError, match="physical"):
        qc.optimal_payouts(pure, kernel, qc.standard_basis(2), 1.0, qc.UtilityFunction.log())
    kernel = qc.PricingKernel(0.9, pure)
    with pytest.raises(qc.DegenerateMarginalError, match="pricing"):
        qc.optimal_payouts(
            diag_state(0.5, 0.5), kernel, qc.standard_basis(2), 1.0, qc.UtilityFunction.log()
        )


def test_investment_record_guards():
    basis = qc.standard_basis(2)
    with pytest.raises(qc.ValidationError):
        qc.OptimalInvestment(basis, [1.0, 0.0], 1.0, 1.0, 1.0)
    with pytest.raises(qc.ValidationError):
        qc.OptimalInvestment(basis, [1.0, 1.0], -2.0, 1.0, 1.0)


def test_expected_utility_flat_and_optimal():
    state = diag_state(0.8, 0.2)
    basis = qc.standard_basis(2)
    log = qc.UtilityFunction.log()
    assert qc.expected_utility(state, basis, [3.0, 3.0], log) == pytest.approx(math.log(3.0))
    with pytest.raises(qc.ValidationError):
        qc.expected_utility(state, basis, [1.0, 0.0], log)
    # log-optimal expected utility = log(budget / discount) + relative entropy
    kernel = qc.PricingKernel(0.95, diag_state(0.5, 0.5))
    plan = qc.optimal_payouts(state, kernel, basis, 2.0, log)
    got = qc.expected_utility(state, basis, plan.payouts, log)
    div = qc.kl_divergence([0.8, 0.2], [0.5, 0.5])
    assert got == pytest.approx(math.log(2.0 / 0.95) + div.kl, abs=1e-10)


@pytest.mark.parametrize("utility", [qc.UtilityFunction.log(), qc.UtilityFunction.power(0.5)])
def test_solver_output_verifies_optimal(utility):
    rng = np.random.default_rng(13)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        state = random_density(rng, n, floor=0.05)
        kernel = qc.PricingKernel(rng.uniform(0.3, 1.0), random_density(rng, n, floor=0.05))
        basis = random_basis(rng, n)
        plan = qc.optimal_payouts(state, kernel, basis, 1.0, utility)
        assert qc.verify_optimality(plan, state, kernel, utility, trials=400, rng=rng)


def test_verify_optimality_rejects_overflowing_alternatives():
    # At budget 5e297 a pricing probability of 1e-11 makes random alternatives
    # overflow; an infinite score must not count as beating the optimum.
    state = diag_state(0.8, 0.2)
    kernel = qc.PricingKernel(0.95, diag_state(1.0 - 1e-11, 1e-11))
    log = qc.UtilityFunction.log()
    plan = qc.optimal_payouts(state, kernel, qc.standard_basis(2), 5e297, log)
    with pytest.raises(qc.NumericalError, match="overflowed"):
        qc.verify_optimality(plan, state, kernel, log, trials=64, rng=np.random.default_rng(0))


def test_flat_allocation_fails_verification():
    state = diag_state(0.8, 0.2)
    kernel = qc.PricingKernel(0.95, diag_state(0.5, 0.5))
    flat = qc.OptimalInvestment(
        qc.standard_basis(2), [1.0 / 0.95, 1.0 / 0.95], 1.0, 1.0, 1.0
    )
    assert not qc.verify_optimality(flat, state, kernel, qc.UtilityFunction.log(), trials=500, rng=np.random.default_rng(0))


@pytest.mark.parametrize("payout, cost", [(10.0, "9.5"), (0.1, "0.095")])
def test_verify_optimality_prices_the_candidate(payout, cost):
    # The record's budget and realized price are whatever the caller passed;
    # only the payouts priced under the kernel show what the candidate spends.
    state = diag_state(0.8, 0.2)
    kernel = qc.PricingKernel(0.95, diag_state(0.5, 0.5))
    candidate = qc.OptimalInvestment(qc.standard_basis(2), [payout, payout], 1.0, 1.0, 1.0)
    with pytest.raises(qc.ValidationError, match=f"candidate costs {cost} against budget 1.0"):
        qc.verify_optimality(candidate, state, kernel, qc.UtilityFunction.log(), trials=16, rng=np.random.default_rng(0))


def test_bond_payouts_earn_the_interest_rate():
    rng = np.random.default_rng(17)
    state = random_density(rng, 3)
    kernel = qc.PricingKernel(0.9, random_density(rng, 3))
    basis = random_basis(rng, 3)
    report = qc.rate_of_return(state, kernel, basis, np.ones(3))
    assert report.gross_return == pytest.approx(1.0 / 0.9, abs=1e-12)
    assert report.excess_rate == pytest.approx(0.0, abs=1e-12)
    assert report.total_rate == pytest.approx(report.interest_rate, abs=1e-12)


def test_excess_rate_frozen_example():
    # marginals (0.8, 0.2) against (0.5, 0.5): growth factor 1.36
    state = diag_state(0.8, 0.2)
    kernel = qc.PricingKernel(0.95, diag_state(0.5, 0.5))
    basis = qc.standard_basis(2)
    plan = qc.optimal_payouts(state, kernel, basis, 1.0, qc.UtilityFunction.log())
    report = qc.rate_of_return(state, kernel, basis, plan.payouts, verify_log_optimal=True)
    assert math.exp(report.excess_rate) == pytest.approx(1.36, abs=1e-11)
    assert qc.excess_return_factor([0.8, 0.2], [0.5, 0.5]) == pytest.approx(1.36, abs=1e-13)


def test_verify_log_optimal_rejects_other_payouts():
    state = diag_state(0.8, 0.2)
    kernel = qc.PricingKernel(0.95, diag_state(0.5, 0.5))
    basis = qc.standard_basis(2)
    with pytest.raises(qc.NumericalError):
        qc.rate_of_return(state, kernel, basis, [1.0, 1.0], verify_log_optimal=True)


def test_horizon_scales_rates_not_gross():
    state = diag_state(0.7, 0.3)
    kernel = qc.PricingKernel(0.9, diag_state(0.4, 0.6))
    basis = qc.standard_basis(2)
    one = qc.rate_of_return(state, kernel, basis, [2.0, 1.0], horizon=1.0)
    two = qc.rate_of_return(state, kernel, basis, [2.0, 1.0], horizon=2.0)
    assert two.gross_return == pytest.approx(one.gross_return)
    assert two.total_rate == pytest.approx(one.total_rate / 2.0)
    assert two.interest_rate == pytest.approx(one.interest_rate / 2.0)
    assert two.excess_rate == pytest.approx(one.excess_rate / 2.0)


def test_subnormal_horizon_overflows_the_rates():
    state = diag_state(0.7, 0.3)
    kernel = qc.PricingKernel(0.9, diag_state(0.4, 0.6))
    with pytest.raises(qc.ValidationError, match="return report field total_rate must be finite"):
        qc.rate_of_return(state, kernel, qc.standard_basis(2), [2.0, 1.0], horizon=5e-324)


def test_kl_divergence_values():
    div = qc.kl_divergence([0.8, 0.2], [0.5, 0.5])
    assert div.kl == pytest.approx(0.19274475702175753, abs=1e-15)
    want = 0.8 * math.log(0.8 / 0.5) + 0.2 * math.log(0.2 / 0.5)
    assert div.kl == pytest.approx(want, abs=1e-15)
    assert qc.kl_divergence([0.5, 0.5], [0.5, 0.5]).kl == 0.0
    # vanishing physical mass drops its term
    assert qc.kl_divergence([0.0, 1.0], [0.5, 0.5]).kl == pytest.approx(math.log(2.0))


def test_kl_divergence_support_violation():
    with pytest.raises(qc.ValidationError, match="support"):
        qc.kl_divergence([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(qc.ValidationError):
        qc.kl_divergence([0.5, 0.6], [0.5, 0.5])


def test_excess_return_factor_names_the_support_violation():
    with pytest.raises(qc.ValidationError, match="support violation at outcome 1"):
        qc.excess_return_factor([0.5, 0.5], [1.0, 0.0])


def test_subnormal_pricing_mass_overflows_divergence_and_growth_factor():
    # No errstate here: the suite turns RuntimeWarning into an error, and the named one must win.
    p, q = [0.5, 0.5], [1.0, 5e-324]
    with pytest.raises(qc.ValidationError, match="divergence must be finite and nonnegative, got inf"):
        qc.kl_divergence(p, q)
    with pytest.raises(qc.ValidationError, match="growth factor must be finite, got inf"):
        qc.excess_return_factor(p, q)


def test_kl_divergence_leaves_the_callers_arrays_writeable():
    p, q = np.array([0.8, 0.2]), np.array([0.5, 0.5])
    div = qc.kl_divergence(p, q)
    assert p.flags.writeable and q.flags.writeable
    with pytest.raises(ValueError):
        div.p_marginals[0] = 0.0
    p[0] = 0.0
    assert div.p_marginals[0] == 0.8


def test_excess_factor_dominates_divergence():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        factor = qc.excess_return_factor(p, q)
        div = qc.kl_divergence(p, q)
        assert factor >= 1.0 + div.kl - 1e-12
    p = rng.dirichlet(np.ones(4))
    assert qc.excess_return_factor(p, p) == pytest.approx(1.0, abs=1e-12)
