"""Acceptance checks, one per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import time
from pathlib import Path

import numpy as np

import qclaim as qc
import qclaim.cli as cli
from helpers import bell_state, random_basis, random_density, random_hermitian, shared_support_pair

GOLDEN = Path(__file__).parent / "golden"


def report(number, ok, label):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {verdict} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_no_classical_assignment():
    started = time.perf_counter()
    system = qc.cabello_system()
    orthogonal_pairs = 0
    for basis in system.bases:
        members = [system.ray(rid).components for rid in basis.ray_ids]
        for i in range(4):
            for j in range(i + 1, 4):
                if sum(x * y for x, y in zip(members[i], members[j])) == 0:
                    orthogonal_pairs += 1
    complete = qc.structure_diagnostics(system) == []  # pairwise orthogonal, hence complete
    count, witness = qc.search_colourings(system)
    parity = qc.parity_certificate(system)
    elapsed = time.perf_counter() - started
    ok = (
        orthogonal_pairs == 54
        and complete
        and count == 0
        and witness is None
        and parity is True
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"18-ray system: 54 exact orthogonal pairs, 9 complete tetrads, "
        f"0 of 2^18 assignments valid, parity agrees ({elapsed:.3f}s)",
    )


def test_criterion_2_calibration_round_trips():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(100):
            kernel = qc.PricingKernel(rng.uniform(0.2, 1.0), random_density(rng, n))
            quotes = []
            for _ in range(n * n):
                claim = qc.arrow_debreu(random_basis(rng, n), 0)
                quotes.append((claim, qc.price(kernel, claim)))
            recovered = qc.calibrate(n, kernel.discount, quotes)
            worst = max(worst, float(np.max(np.abs(recovered.q.entries - kernel.q.entries))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 5.0
    report(
        2,
        ok,
        f"300 calibration round trips (n=2,3,4): max entry error {worst:.2e} < 1e-8 "
        f"({elapsed:.2f}s)",
    )


def test_criterion_3_agreeing_states_buy_the_bond():
    rng = np.random.default_rng(303)
    worst_flat = 0.0
    worst_excess = 0.0
    for k in range(50):
        n = int(rng.integers(2, 7))
        state = random_density(rng, n, floor=0.05)
        kernel = qc.PricingKernel(rng.uniform(0.2, 1.0), state)
        basis = random_basis(rng, n)
        budget = rng.uniform(0.2, 5.0)
        utility = qc.UtilityFunction.log() if k % 2 == 0 else qc.UtilityFunction.power(0.5)
        plan = qc.optimal_payouts(state, kernel, basis, budget, utility)
        flat = budget / kernel.discount
        worst_flat = max(worst_flat, float(np.max(np.abs(plan.payouts - flat))) / flat)
        rates = qc.rate_of_return(state, kernel, basis, plan.payouts)
        worst_excess = max(worst_excess, abs(rates.excess_rate))
    ok = worst_flat < 1e-8 and worst_excess < 1e-10
    report(
        3,
        ok,
        f"50 cases with matching states: payouts flat to {worst_flat:.2e} (rel), "
        f"excess rate within {worst_excess:.2e}",
    )


def test_criterion_4_growth_identity_and_bound():
    rng = np.random.default_rng(404)
    worst_identity = 0.0
    slack_floor = np.inf
    worst_equal = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        state = random_density(rng, n, floor=0.05)
        kernel = qc.PricingKernel(rng.uniform(0.2, 1.0), random_density(rng, n, floor=0.05))
        basis = random_basis(rng, n)
        p_m = qc.basis_marginals(state, basis)
        q_m = qc.basis_marginals(kernel.q, basis)
        budget = rng.uniform(0.2, 5.0)
        payouts = budget * p_m / (kernel.discount * q_m)
        rates = qc.rate_of_return(state, kernel, basis, payouts, verify_log_optimal=True)
        factor = qc.excess_return_factor(p_m, q_m)
        gap = abs(rates.gross_return * kernel.discount - factor) / max(1.0, factor)
        worst_identity = max(worst_identity, gap)
        slack = factor - 1.0 - qc.kl_divergence(p_m, q_m).kl
        slack_floor = min(slack_floor, slack)
        same = qc.excess_return_factor(p_m, p_m) - 1.0 - qc.kl_divergence(p_m, p_m).kl
        worst_equal = max(worst_equal, abs(same))
    ok = worst_identity < 1e-10 and slack_floor > -1e-12 and worst_equal < 1e-10
    report(
        4,
        ok,
        f"200 state/kernel/basis triples: growth identity gap {worst_identity:.2e}, "
        f"bound slack floor {slack_floor:.2e}, equality residual {worst_equal:.2e}",
    )


def test_criterion_5_budget_and_first_order_conditions():
    rng = np.random.default_rng(505)
    utilities = [
        qc.UtilityFunction.log(),
        qc.UtilityFunction.power(0.5),
        qc.UtilityFunction.power(-1.0),
        qc.UtilityFunction.power(-3.0),
    ]
    worst_budget = 0.0
    worst_foc = 0.0
    for utility in utilities:
        for budget in (0.1, 1.0, 10.0):
            for n in (2, 3, 4, 5):
                state = random_density(rng, n, floor=0.05)
                kernel = qc.PricingKernel(rng.uniform(0.2, 1.0), random_density(rng, n, floor=0.05))
                basis = random_basis(rng, n)
                plan = qc.optimal_payouts(state, kernel, basis, budget, utility)
                gap = abs(plan.realized_price - budget) / max(1.0, budget)
                worst_budget = max(worst_budget, gap)
                p_m = qc.basis_marginals(state, basis)
                q_m = qc.basis_marginals(kernel.q, basis)
                foc = np.abs(utility.marginal(plan.payouts) * p_m - plan.multiplier * q_m)
                worst_foc = max(worst_foc, float(foc.max()))
    ok = worst_budget < 1e-8 and worst_foc < 1e-8
    report(
        5,
        ok,
        f"48-point solver grid: budget error {worst_budget:.2e} < 1e-8, "
        f"stationarity residual {worst_foc:.2e} < 1e-8",
    )


def test_criterion_6_never_beaten_by_random_alternatives():
    rng = np.random.default_rng(606)
    all_verified = True
    for k in range(20):
        n = int(rng.integers(2, 5))
        state = random_density(rng, n, floor=0.05)
        kernel = qc.PricingKernel(rng.uniform(0.2, 1.0), random_density(rng, n, floor=0.05))
        basis = random_basis(rng, n)
        utility = qc.UtilityFunction.log() if k % 2 == 0 else qc.UtilityFunction.power(0.5)
        plan = qc.optimal_payouts(state, kernel, basis, rng.uniform(0.2, 5.0), utility)
        all_verified &= qc.verify_optimality(plan, state, kernel, utility, trials=1000, rng=rng)
    report(
        6,
        all_verified,
        "20 solved schedules vs 1000 random budget-exhausting alternatives each: "
        "none beaten beyond 1e-9",
    )


def test_criterion_7_portfolio_additivity_and_correlation():
    rng = np.random.default_rng(707)

    def draw_state(which):
        if which == 0:  # generic joint state
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            return qc.TwoPartyState((n, m), random_density(rng, n * m))
        if which == 1:  # product state
            return qc.product_state(random_density(rng, 2), random_density(rng, 3))
        if which == 2:  # separable mixture
            parts = [
                (w, random_density(rng, 2), random_density(rng, 2))
                for w in rng.dirichlet(np.ones(3))
            ]
            return qc.separable_mixture(parts)
        noisy = 0.5 * bell_state().entries + 0.5 * np.eye(4) / 4.0  # Bell-type blend
        return qc.TwoPartyState((2, 2), qc.DensityMatrix(noisy))

    worst_split = 0.0
    worst_price = 0.0
    for k in range(1000):
        state = draw_state(k % 4)
        n, m = state.dims
        position = qc.portfolio_observable(
            random_hermitian(rng, n), random_hermitian(rng, m), tuple(rng.normal(size=2))
        )
        operator = qc.nparty_portfolio_operator(
            (position.first, position.second), position.weights
        )
        joint = float(np.real(np.trace(state.rho.entries @ operator.entries)))
        split = qc.portfolio_expected_payout(state, position)
        worst_split = max(worst_split, abs(joint - split) / max(1.0, abs(joint)))
        discount = rng.uniform(0.2, 1.0)
        kernel = qc.PricingKernel(discount, state.rho)
        first, second = (qc.subsystem_marginal(state.rho, state.dims, k) for k in (0, 1))
        legs = discount * (
            position.weights[0] * float(np.real(np.trace(first.entries @ position.first.entries)))
            + position.weights[1] * float(np.real(np.trace(second.entries @ position.second.entries)))
        )
        gap = abs(qc.portfolio_price(kernel, position) - legs)
        worst_price = max(worst_price, gap / max(1.0, abs(legs)))
    worst_product = 0.0
    for _ in range(100):
        joint_state = qc.product_state(random_density(rng, 2), random_density(rng, 3))
        cov = qc.payout_covariance(
            joint_state, random_hermitian(rng, 2), random_hermitian(rng, 3)
        ).covariance
        worst_product = max(worst_product, abs(cov))
    bell = qc.TwoPartyState((2, 2), bell_state())
    leg = qc.HermitianOperator(np.diag([1.0, -1.0]))
    bell_cov = qc.payout_covariance(bell, leg, leg).covariance
    ok = (
        worst_split < 1e-10
        and worst_price < 1e-10
        and worst_product < 1e-12
        and abs(bell_cov - 1.0) < 1e-10
    )
    report(
        7,
        ok,
        f"1000 joint states (generic, product, separable, Bell-type): payout split gap "
        f"{worst_split:.2e} and price split gap {worst_price:.2e} < 1e-10; product "
        f"covariance {worst_product:.2e} < 1e-12; aligned two-party covariance {bell_cov:.12f}",
    )


def test_criterion_8_axioms_separate_kernels_by_support():
    rng = np.random.default_rng(808)
    equivalent_ok = True
    for _ in range(10):
        n = int(rng.integers(2, 5))
        state = random_density(rng, n)
        kernel = qc.PricingKernel(rng.uniform(0.2, 1.0), random_density(rng, n))
        claims = [qc.FinancialClaim(random_basis(rng, n), rng.uniform(0.0, 2.0, size=n)) for _ in range(3)]
        equivalent_ok &= qc.check_axioms(kernel, state, claims).all_hold
    shared_a, shared_b = shared_support_pair(rng, 4, 2)
    equivalent_ok &= qc.check_axioms(qc.PricingKernel(0.9, shared_b), shared_a, []).all_hold
    degenerate = qc.DensityMatrix(np.diag([0.5, 0.5, 0.0]))
    wide = qc.PricingKernel(0.9, random_density(rng, 3))
    verdict = qc.check_axioms(wide, degenerate, [qc.discount_bond(3)])
    witnessed = (not verdict.axiom1_holds) and any(
        "null eigenvector" in label for label, _ in verdict.violations
    )
    ok = equivalent_ok and witnessed
    report(
        8,
        ok,
        "axioms hold for equal-support kernels and fail axiom 1 with a "
        "null-direction unit claim when supports differ",
    )


def test_criterion_9_cli_golden_suite(tmp_path, capsys):
    started = time.perf_counter()
    identical = True
    for kind in cli.SUBCOMMANDS:
        out = tmp_path / f"{kind}.json"
        code = cli.run(kind, str(GOLDEN / f"{kind}.scenario.json"), out_path=str(out))
        identical &= code == 0
        identical &= out.read_bytes() == (GOLDEN / f"{kind}.report.json").read_bytes()
    elapsed = time.perf_counter() - started
    capsys.readouterr()  # swallow the summaries so the verdict line stands alone
    ok = identical and elapsed < 10.0
    report(
        9,
        ok,
        f"all {len(cli.SUBCOMMANDS)} subcommands reproduce their frozen reports "
        f"byte for byte ({elapsed:.2f}s)",
    )
