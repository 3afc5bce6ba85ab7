import numpy as np
import pytest

import qclaim as qc
from helpers import bell_state, random_density, random_hermitian


def diag_op(*entries):
    return qc.HermitianOperator(np.diag(np.array(entries, dtype=float)))


def test_two_party_state_validation():
    bell = qc.TwoPartyState((2, 2), bell_state())
    assert bell.dims == (2, 2)
    with pytest.raises(qc.DimensionMismatchError):
        qc.TwoPartyState((2, 3), bell_state())
    with pytest.raises(qc.ValidationError):
        qc.TwoPartyState((0, 4), bell_state())


@pytest.mark.parametrize("dims", [(2,), (2, 2, 1)])
def test_two_party_state_needs_a_dimension_pair(dims):
    with pytest.raises(qc.ValidationError, match="must be a pair"):
        qc.TwoPartyState(dims, bell_state())


def test_bell_marginals_are_maximally_mixed():
    bell = qc.TwoPartyState((2, 2), bell_state())
    for index in (0, 1):
        reduced = qc.subsystem_marginal(bell.rho, bell.dims, index)
        assert np.allclose(reduced.entries, np.eye(2) / 2.0, atol=1e-14)


def test_product_state_recovers_factors():
    rng = np.random.default_rng(2)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    joint = qc.product_state(a, b)
    assert joint.dims == (2, 3)
    for index, factor in enumerate((a, b)):
        reduced = qc.subsystem_marginal(joint.rho, joint.dims, index)
        assert np.allclose(reduced.entries, factor.entries, atol=1e-12)


def test_separable_mixture_weights():
    rng = np.random.default_rng(3)
    a, b = random_density(rng, 2), random_density(rng, 2)
    with pytest.raises(qc.ValidationError):
        qc.separable_mixture([])
    with pytest.raises(qc.ValidationError):
        qc.separable_mixture([(0.5, a, b), (0.6, a, b)])
    with pytest.raises(qc.ValidationError):
        qc.separable_mixture([(-0.2, a, b), (1.2, a, b)])


def classical_correlated():
    up = qc.DensityMatrix(np.diag([1.0, 0.0]))
    down = qc.DensityMatrix(np.diag([0.0, 1.0]))
    return qc.separable_mixture([(0.5, up, up), (0.5, down, down)])


def test_classically_correlated_mixture():
    state = classical_correlated()
    assert np.allclose(state.rho.entries, np.diag([0.5, 0.0, 0.0, 0.5]))
    report = qc.payout_covariance(state, diag_op(1.0, -1.0), diag_op(1.0, -1.0))
    assert report.covariance == pytest.approx(1.0, abs=1e-12)
    assert qc.is_ppt(state)


def test_bell_state_entanglement_and_correlation():
    bell = qc.TwoPartyState((2, 2), bell_state())
    assert not qc.is_ppt(bell)
    report = qc.payout_covariance(bell, diag_op(1.0, -1.0), diag_op(1.0, -1.0))
    assert report.covariance == pytest.approx(1.0, abs=1e-10)
    assert report.marginal_means == (pytest.approx(0.0, abs=1e-12),) * 2


def test_partial_transpose_spectrum_of_bell_state():
    # hand-expanded partial transpose of the Bell state: swaps the
    # coherences into an off-diagonal block with eigenvalue -1/2
    swapped = 0.5 * np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.linalg.eigvalsh(swapped)[0] == pytest.approx(-0.5, abs=1e-14)


def test_product_states_are_ppt():
    rng = np.random.default_rng(5)
    for _ in range(10):
        joint = qc.product_state(random_density(rng, 2), random_density(rng, 2))
        assert qc.is_ppt(joint)


def test_portfolio_operator_orders_the_first_factor_slowest():
    # Joint index j * second.dim + j', as np.kron lays out first x second.
    sz = diag_op(0.5, -0.5)
    legs = (sz, qc.HermitianOperator([[3.0, 1.0], [1.0, 4.0]]))
    first_only = qc.nparty_portfolio_operator(legs, (1.0, 0.0)).entries
    assert np.array_equal(first_only, np.diag([0.5, 0.5, -0.5, -0.5]))
    second_only = qc.nparty_portfolio_operator(legs, (0.0, 1.0)).entries
    assert np.array_equal(second_only, np.kron(np.eye(2), legs[1].entries))
    assert second_only[0, 1] == second_only[2, 3] == 1.0 and second_only[0, 3] == 0.0


def test_portfolio_operator_has_kronecker_sum_spectrum():
    legs = (diag_op(1.0, 2.0), diag_op(10.0, 20.0))
    values = np.linalg.eigvalsh(qc.nparty_portfolio_operator(legs, (1.0, 1.0)).entries)
    assert np.allclose(sorted(values), [11.0, 12.0, 21.0, 22.0])
    values = np.linalg.eigvalsh(qc.nparty_portfolio_operator(legs, (2.0, -1.0)).entries)
    assert np.allclose(sorted(values), [-18.0, -16.0, -8.0, -6.0])


def test_portfolio_observable_validation():
    with pytest.raises(qc.ValidationError):
        qc.PortfolioObservable(diag_op(1.0, 2.0), diag_op(1.0, 2.0), (np.inf, 1.0))


@pytest.mark.parametrize("weights", [(1.0,), (1.0, 2.0, 3.0), ("a", 1.0), (None, 1.0)])
def test_portfolio_observable_needs_two_weights(weights):
    # One weight used to raise IndexError; a third was dropped without notice;
    # a non-numeric weight raised a bare ValueError or TypeError.
    message = "two finite reals" if len(weights) != 2 else r"weights\[0\] must be a number"
    with pytest.raises(qc.ValidationError, match=message):
        qc.portfolio_observable(diag_op(1.0, 2.0), diag_op(1.0, 2.0), weights)


def test_expected_payout_splits_across_marginals():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        state = qc.TwoPartyState((n, m), random_density(rng, n * m))
        position = qc.portfolio_observable(
            random_hermitian(rng, n), random_hermitian(rng, m), tuple(rng.normal(size=2))
        )
        got = qc.portfolio_expected_payout(state, position)
        first, second = (qc.subsystem_marginal(state.rho, state.dims, k) for k in (0, 1))
        legs = (
            position.weights[0] * float(np.real(np.trace(first.entries @ position.first.entries)))
            + position.weights[1] * float(np.real(np.trace(second.entries @ position.second.entries)))
        )
        assert got == pytest.approx(legs, abs=1e-10)


def reference_two_party_operator(position):
    # A dedicated two-leg build: the bit-exact oracle for the N = 2 operator.
    n, m = position.dims
    return position.weights[0] * np.kron(position.first.entries, np.eye(m)) + position.weights[
        1
    ] * np.kron(np.eye(n), position.second.entries)


def reference_two_party_payout(state, position):
    # A dedicated two-leg joint trace: the oracle for the N = 2 payout.
    joint = reference_two_party_operator(position)
    return float(np.real(np.sum(state.rho.entries * joint.T)))


def test_two_party_portfolio_is_the_two_leg_nparty_case():
    rng = np.random.default_rng(17)

    def leg(d):
        if rng.random() < 0.15:
            return qc.HermitianOperator(np.zeros((d, d)))
        return random_hermitian(rng, d)

    for _ in range(600):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        state = qc.TwoPartyState((n, m), random_density(rng, n * m))
        weights = tuple(0.0 if rng.random() < 0.15 else float(w) for w in rng.normal(size=2))
        position = qc.portfolio_observable(leg(n), leg(m), weights)
        legs = (position.first, position.second)
        operator = qc.nparty_portfolio_operator(legs, position.weights).entries
        assert np.array_equal(operator, reference_two_party_operator(position))
        got = qc.portfolio_expected_payout(state, position)
        assert repr(got) == repr(reference_two_party_payout(state, position))


def test_bell_two_leg_payout():
    bell = qc.TwoPartyState((2, 2), bell_state())
    position = qc.portfolio_observable(diag_op(1.0, 0.0), diag_op(1.0, 0.0), (1.0, 1.0))
    assert qc.portfolio_expected_payout(bell, position) == pytest.approx(1.0, abs=1e-12)


def test_expected_payout_dimension_guard():
    bell = qc.TwoPartyState((2, 2), bell_state())
    position = qc.portfolio_observable(diag_op(1.0, 2.0, 3.0), diag_op(1.0, 2.0), (1.0, 1.0))
    with pytest.raises(qc.DimensionMismatchError):
        qc.portfolio_expected_payout(bell, position)


def test_portfolio_price_on_product_kernel():
    rng = np.random.default_rng(9)
    qa, qb = random_density(rng, 2), random_density(rng, 2)
    kernel = qc.PricingKernel(0.9, qc.product_state(qa, qb).rho)
    u, v = random_hermitian(rng, 2), random_hermitian(rng, 2)
    position = qc.portfolio_observable(u, v, (1.5, -0.5))
    want = 0.9 * (
        1.5 * float(np.real(np.trace(qa.entries @ u.entries)))
        - 0.5 * float(np.real(np.trace(qb.entries @ v.entries)))
    )
    assert qc.portfolio_price(kernel, position) == pytest.approx(want, abs=1e-12)


def test_product_state_covariance_vanishes():
    rng = np.random.default_rng(11)
    for _ in range(10):
        joint = qc.product_state(random_density(rng, 2), random_density(rng, 3))
        report = qc.payout_covariance(joint, random_hermitian(rng, 2), random_hermitian(rng, 3))
        assert abs(report.covariance) < 1e-12
        assert report.computed_under == "physical"


def test_covariance_is_bilinear():
    rng = np.random.default_rng(13)
    state = qc.TwoPartyState((2, 2), random_density(rng, 4))
    u, v = random_hermitian(rng, 2), random_hermitian(rng, 2)
    base = qc.payout_covariance(state, u, v).covariance
    scaled = qc.payout_covariance(state, qc.HermitianOperator(3.0 * u.entries), v).covariance
    assert scaled == pytest.approx(3.0 * base, abs=1e-10)


def test_covariance_under_pricing_state():
    bell = qc.TwoPartyState((2, 2), bell_state())
    report = qc.payout_covariance(bell, diag_op(1.0, -1.0), diag_op(1.0, -1.0), under="pricing")
    assert report.computed_under == "pricing"
    for under in ("market", "risk-neutral"):
        with pytest.raises(qc.ValidationError, match=f'"physical" or "pricing", got {under!r}'):
            qc.payout_covariance(bell, diag_op(1.0, -1.0), diag_op(1.0, -1.0), under=under)


def test_covariance_rejects_overflowing_legs():
    bell = qc.TwoPartyState((2, 2), bell_state())
    leg = diag_op(1e308, -1e308)
    # No errstate here: the suite turns RuntimeWarning into an error, and the named one must win.
    with pytest.raises(qc.ValidationError, match="correlation report fields must be finite"):
        qc.payout_covariance(bell, leg, leg)


def test_nparty_operator_and_payout():
    rng = np.random.default_rng(15)
    parts = [random_density(rng, 2) for _ in range(3)]
    ops = [random_hermitian(rng, 2) for _ in range(3)]
    weights = [1.0, -2.0, 0.5]
    joint = parts[0]
    for part in parts[1:]:
        joint = qc.DensityMatrix(np.kron(joint.entries, part.entries))
    operator = qc.nparty_portfolio_operator(ops, weights)
    assert operator.dim == 8
    got = qc.nparty_expected_payout(joint, ops, weights)
    want = sum(
        w * float(np.real(np.trace(p.entries @ op.entries)))
        for w, p, op in zip(weights, parts, ops)
    )
    assert got == pytest.approx(want, abs=1e-10)


def reference_nparty_operator(operators, weights):
    # One Kronecker product per factor per leg: the bit-exact oracle for the operator.
    dims = [op.dim for op in operators]
    joint = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for i, w in enumerate(weights):
        term = np.eye(1)
        for j, other in enumerate(operators):
            term = np.kron(term, other.entries if j == i else np.eye(dims[j]))
        joint += float(w) * term
    return joint


def test_nparty_operator_matches_the_nested_kronecker_build():
    rng = np.random.default_rng(23)
    for _ in range(200):
        dims = rng.integers(1, 4, size=int(rng.integers(1, 5)))
        ops = [random_hermitian(rng, int(d)) for d in dims]
        weights = [0.0 if rng.random() < 0.2 else float(w) for w in rng.normal(size=len(ops))]
        got = qc.nparty_portfolio_operator(ops, weights).entries
        assert np.array_equal(got, reference_nparty_operator(ops, weights))


def test_nparty_payout_on_entangled_state():
    v = np.zeros(8)
    v[0] = v[7] = 2.0**-0.5
    ghz = qc.DensityMatrix(np.outer(v, v))
    ops = [diag_op(1.0, -1.0)] * 3
    assert qc.nparty_expected_payout(ghz, ops, [1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_nparty_payout_takes_weights_from_an_iterator():
    # The weights are read once, so an iterator serves both the joint operator and the split.
    rng = np.random.default_rng(31)
    state = random_density(rng, 6)
    ops = [random_hermitian(rng, 2), random_hermitian(rng, 3)]
    want = qc.nparty_expected_payout(state, ops, [1.0, -0.5])
    assert qc.nparty_expected_payout(state, ops, (w for w in [1.0, -0.5])) == want


def test_nparty_validation():
    ops = [diag_op(1.0, -1.0)] * 2
    with pytest.raises(qc.ValidationError):
        qc.nparty_portfolio_operator(ops, [1.0])
    with pytest.raises(qc.ValidationError):
        qc.nparty_portfolio_operator([], [])
    with pytest.raises(qc.DimensionMismatchError):
        qc.nparty_expected_payout(qc.DensityMatrix(np.eye(2) / 2.0), ops, [1.0, 1.0])
