"""Property tests of the paper's identities over random inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qclaim as qc
from helpers import random_basis, random_density, random_hermitian, spanning_quotes


@st.composite
def full_rank_kernels(draw):
    """A pricing kernel whose state has every eigenvalue at least 2e-4, and a generator."""
    n = draw(st.integers(1, 5))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    discount = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = random_basis(rng, n).vectors
    state = (frame.T * (weights / weights.sum())) @ frame.conj()
    return qc.PricingKernel(discount, qc.DensityMatrix((state + state.conj().T) / 2.0)), rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(full_rank_kernels())
def test_calibration_round_trip(drawn):
    # n^2 spanning quotes priced by P0T tr(q X) give back q, and the recovered
    # kernel reprices every quote.
    kernel, rng = drawn
    tol = qc.DEFAULT_TOLERANCES
    quotes = spanning_quotes(rng, kernel)
    recovered = qc.calibrate(kernel.dim, kernel.discount, quotes)
    assert recovered.discount == kernel.discount
    assert np.abs(recovered.q.entries - kernel.q.entries).max() <= tol.calibration
    for claim, observed in quotes:
        assert abs(qc.price(recovered, claim) - observed) <= tol.calibration


@st.composite
def kernels_and_bases(draw):
    """A pricing kernel of any rank and dimension n <= 6, and a measurement basis."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_density(rng, n, rank=draw(st.integers(1, n)))
    return qc.PricingKernel(draw(st.floats(0.05, 1.0)), q), random_basis(rng, n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kernels_and_bases())
def test_the_discount_bond_prices_at_the_discount_factor(drawn):
    # The bond pays 1 on every outcome, so its operator is the identity and
    # its price is P0T tr(q) = P0T.
    kernel, _ = drawn
    bond = qc.discount_bond(kernel.dim)
    assert np.array_equal(bond.as_operator().entries, np.eye(kernel.dim))
    assert abs(qc.price(kernel, bond) - kernel.discount) <= qc.DEFAULT_TOLERANCES.price


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kernels_and_bases())
def test_arrow_debreu_prices_are_the_discounted_outcome_weights(drawn):
    # The claim paying 1 on outcome j of a basis prices at P0T <v_j|q|v_j>: the
    # state prices are the discounted marginals of q, and they add up to the bond.
    kernel, basis = drawn
    tol = qc.DEFAULT_TOLERANCES
    state_prices = np.array([qc.price(kernel, qc.arrow_debreu(basis, j)) for j in range(basis.dim)])
    assert np.abs(state_prices - kernel.discount * qc.basis_marginals(kernel.q, basis)).max() <= tol.price
    assert abs(state_prices.sum() - kernel.discount) <= tol.price


@st.composite
def positive_observables(draw):
    """A pricing kernel and an observable X >= 0 with every eigenvalue at least 1e-3."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eigenvalues = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
    frame = random_basis(rng, n).vectors
    x = (frame.T * eigenvalues) @ frame.conj()
    q = random_density(rng, n, rank=draw(st.integers(1, n)))
    kernel = qc.PricingKernel(draw(st.floats(0.05, 1.0)), q)
    return kernel, qc.HermitianOperator((x + x.conj().T) / 2.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(positive_observables())
def test_a_claim_is_the_observable_whose_eigenvalues_are_its_payouts(drawn):
    # X = sum_j lambda_j |v_j><v_j| is the claim paying lambda_j on outcome j of
    # its eigenbasis: that claim prices at P0T tr(q X), and the spectrum rebuilds X.
    kernel, observable = drawn
    tol = qc.DEFAULT_TOLERANCES
    spectrum = qc.eigendecompose(observable)
    claim = qc.FinancialClaim(spectrum.basis, spectrum.eigenvalues)
    want = kernel.discount * float(np.real(np.trace(kernel.q.entries @ observable.entries)))
    assert abs(qc.price(kernel, claim) - want) <= tol.price
    rebuilt = qc.from_spectrum(spectrum.eigenvalues, spectrum.basis)
    assert np.abs(rebuilt.entries - observable.entries).max() <= tol.reconstruction


@st.composite
def budget_problems(draw):
    """Pricing weights, slope ratios, budget, discount and a utility."""
    n = draw(st.integers(1, 8))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    ratios = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    budget = draw(st.floats(1e-3, 1e3))
    discount = draw(st.floats(0.05, 1.0, exclude_min=True))
    exponent = draw(st.one_of(st.none(), st.floats(-5.0, 0.5).filter(lambda p: p != 0.0)))
    utility = qc.UtilityFunction.log() if exponent is None else qc.UtilityFunction.power(exponent)
    return np.array(weights), np.array(ratios), budget, discount, utility


@settings(max_examples=100, deadline=None, derandomize=True)
@given(budget_problems())
def test_multiplier_spends_budget_and_meets_first_order_conditions(problem):
    # The closed-form multiplier spends the budget, and with p_j = q_j / r_j
    # every outcome's p_j u'(x_j) / q_j = u'(x_j) / r_j equals the multiplier.
    weights, ratios, budget, discount, utility = problem
    multiplier = qc.solve_multiplier(list(zip(weights, ratios)), budget, discount, utility)
    payouts = utility.inverse_marginal(multiplier * ratios)
    spent = discount * float(payouts @ weights)
    assert abs(spent - budget) <= 1e-12 * budget
    slopes = utility.marginal(payouts) / ratios
    assert np.abs(slopes - multiplier).max() <= 1e-9 * multiplier


def _spectrum(draw, n):
    """n eigenvalues, each 0 or at least 1e-3, not all 0, summing to 1."""
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n))
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = 1.0
    return np.array(weights) / sum(weights)


def _state(frame, weights):
    state = (frame.T * weights) @ frame.conj()
    return qc.DensityMatrix((state + state.conj().T) / 2.0)


@st.composite
def state_pairs(draw):
    """Two states of one dimension n <= 5, in a shared frame most of the time."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_weights = _spectrum(draw, n)
    q_weights = _spectrum(draw, n)
    if draw(st.booleans()):
        # the same support, so that equivalent pairs are common
        q_weights = np.where(p_weights > 0, np.maximum(q_weights, 1e-3), 0.0)
        q_weights /= q_weights.sum()
    p_frame = random_basis(rng, n).vectors
    shared = draw(st.integers(0, 9)) < 7
    q_frame = p_frame if shared else random_basis(rng, n).vectors
    return _state(p_frame, p_weights), _state(q_frame, q_weights), draw(st.floats(0.05, 1.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state_pairs())
def test_axiom_one_holds_exactly_for_equivalent_states(pair):
    # The paper's equivalence theorem: zero price iff zero expected payout
    # holds on every claim exactly when the two states share a null space.
    p, q, discount = pair
    report = qc.check_axioms(qc.PricingKernel(discount, q), p, [])
    assert report.axiom1_holds == qc.equivalent_states(p, q)


@st.composite
def marginal_pairs(draw):
    """Physical and pricing marginals with q > 0 wherever p > 0."""
    n = draw(st.integers(1, 12))
    p = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=n, max_size=n))
    if not any(p):
        p[draw(st.integers(0, n - 1))] = 1.0
    q = [
        draw(st.floats(1e-6, 1.0)) if pj > 0 else draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
        for pj in p
    ]
    return np.array(p) / sum(p), np.array(q) / sum(q)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(marginal_pairs())
def test_growth_factor_bounds_the_divergence(pair):
    # Jensen: KL = sum p log(p/q) <= log sum p (p/q), the log growth factor;
    # hence excess_bound_slack = factor - 1 - KL >= log factor - KL >= 0.
    p, q = pair
    factor = qc.excess_return_factor(p, q)
    kl = qc.kl_divergence(p, q).kl
    assert np.log(factor) >= kl - 1e-12
    assert factor - 1.0 - kl >= -1e-12


@st.composite
def claim_pairs(draw):
    """A pricing kernel, two claims on one basis (so their operators commute), and weights."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_density(rng, n, rank=draw(st.integers(1, n)))
    kernel = qc.PricingKernel(draw(st.floats(0.05, 1.0)), q)
    basis = random_basis(rng, n)
    payouts = st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)
    first, second = (qc.FinancialClaim(basis, draw(payouts)) for _ in range(2))
    return kernel, draw(st.floats(0.0, 5.0)), first, draw(st.floats(0.0, 5.0)), second


@settings(max_examples=100, deadline=None, derandomize=True)
@given(claim_pairs())
def test_price_is_linear_on_commuting_claims(drawn):
    # P0T tr(q (aX + bY)) = a P0T tr(q X) + b P0T tr(q Y).
    kernel, a, first, b, second = drawn
    tol = qc.DEFAULT_TOLERANCES
    operator = qc.HermitianOperator(a * first.as_operator().entries + b * second.as_operator().entries)
    spectrum = qc.eigendecompose(operator)
    # Eigenvalues rounded below 0 by at most the PSD tolerance are the zero payouts they stand for.
    vals = spectrum.eigenvalues
    payouts = np.where((vals < 0.0) & (vals >= -tol.psd), 0.0, vals)
    combined = qc.price(kernel, qc.FinancialClaim(spectrum.basis, payouts))
    want = a * qc.price(kernel, first) + b * qc.price(kernel, second)
    assert abs(combined - want) <= tol.price


def _reduced(rho: np.ndarray, dims: list[int], keep: int) -> np.ndarray:
    # Plain-numpy partial trace: trace out every factor but ``keep``, last first,
    # so each remaining row axis j still pairs with column axis j + ndim / 2.
    tensor = rho.reshape(dims + dims)
    for j in reversed(range(len(dims))):
        if j != keep:
            tensor = np.trace(tensor, axis1=j, axis2=j + tensor.ndim // 2)
    return tensor


@st.composite
def nparty_positions(draw):
    """A low-rank (generically entangled) joint state of 2 or 3 factors, legs and weights."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = int(np.prod(dims))
    state = random_density(rng, total, rank=draw(st.integers(1, min(2, total))))
    legs = [random_hermitian(rng, d) for d in dims]
    weights = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(dims), max_size=len(dims)))
    return state, legs, weights


@settings(max_examples=100, deadline=None, derandomize=True)
@given(nparty_positions())
def test_nparty_payout_is_additive_over_marginals(drawn):
    # tr(rho sum_i w_i A_i) = sum_i w_i tr(rho_i A_i) for every joint state, entangled or not.
    state, legs, weights = drawn
    dims = [leg.dim for leg in legs]
    want = sum(
        w * float(np.real(np.trace(_reduced(state.entries, dims, i) @ leg.entries)))
        for i, (w, leg) in enumerate(zip(weights, legs))
    )
    got = qc.nparty_expected_payout(state, legs, weights)
    assert abs(got - want) <= qc.DEFAULT_TOLERANCES.additivity * max(1.0, abs(want))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(nparty_positions())
def test_a_subsystem_marginal_is_the_partial_trace(drawn):
    # rho_i = tr_{j != i} rho is the state of factor i alone: it passes the state gate.
    state, legs, _ = drawn
    dims = [leg.dim for leg in legs]
    for i in range(len(dims)):
        reduced = qc.subsystem_marginal(state, dims, i)
        assert np.abs(reduced.entries - _reduced(state.entries, dims, i)).max() <= qc.DEFAULT_TOLERANCES.additivity
        qc.DensityMatrix(reduced.entries)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(nparty_positions().filter(lambda drawn: len(drawn[1]) == 2))
def test_a_portfolio_prices_at_the_discounted_leg_prices(drawn):
    # P0T tr(q (w1 X x id + w2 id x Y)) = P0T (w1 tr(q_1 X) + w2 tr(q_2 Y)), with q_i
    # the marginals of the joint kernel state, entangled or not.
    q, legs, weights = drawn
    kernel = qc.PricingKernel(0.8, q)
    position = qc.portfolio_observable(legs[0], legs[1], tuple(weights))
    want = kernel.discount * sum(
        w * float(np.real(np.trace(qc.subsystem_marginal(q, position.dims, i).entries @ leg.entries)))
        for i, (w, leg) in enumerate(zip(weights, legs))
    )
    got = qc.portfolio_price(kernel, position)
    assert abs(got - want) <= qc.DEFAULT_TOLERANCES.price * max(1.0, abs(want))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kernels_and_bases())
def test_outcome_marginals_are_the_born_weights(drawn):
    # Outcome j of a basis has probability <v_j|q|v_j>, and the outcomes exhaust the space.
    kernel, basis = drawn
    weights = np.real(np.einsum("ji,ik,jk->j", basis.vectors.conj(), kernel.q.entries, basis.vectors))
    marginals = qc.basis_marginals(kernel.q, basis)
    assert np.abs(marginals - weights).max() <= qc.DEFAULT_TOLERANCES.trace
    assert abs(marginals.sum() - 1.0) <= qc.DEFAULT_TOLERANCES.trace


@st.composite
def parity_systems(draw):
    """An odd number of tetrads, 3 to 15, over rays that each sit in exactly two of them."""
    count = draw(st.sampled_from(range(3, 16, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rays = [qc.KSRay(i, (1, i, i * i, 0)) for i in range(2 * count)]
    ids = [i for i in range(2 * count) for _ in range(2)]
    while True:
        rng.shuffle(ids)
        tetrads = [ids[4 * t : 4 * t + 4] for t in range(count)]
        if all(len(set(tetrad)) == 4 for tetrad in tetrads):
            return qc.KSSystem(rays, [qc.KSBasis(tuple(tetrad)) for tetrad in tetrads])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parity_systems())
def test_a_parity_certificate_implies_no_colouring(system):
    # Each ray counted twice makes any assignment's total over tetrads even; one mark
    # in each of an odd number of tetrads makes it odd.
    assert qc.parity_certificate(system) is True
    assert qc.search_colourings(system) == (0, None)
