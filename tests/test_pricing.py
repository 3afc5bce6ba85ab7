import dataclasses

import numpy as np
import pytest

import qclaim as qc
import qclaim.pricing
import qclaim.quantum
from helpers import random_basis, random_density, shared_support_pair, spanning_quotes
from qclaim.pricing import _design_matrix
from qclaim.quantum import _trusted
from qclaim.tolerances import DEFAULT_TOLERANCES, Tolerances


def diag_state(*weights):
    return qc.DensityMatrix(np.diag(weights))


def test_claim_validation():
    basis = qc.standard_basis(2)
    claim = qc.FinancialClaim(basis, [2.0, 4.0])
    assert claim.dim == 2
    with pytest.raises(qc.ValidationError):
        qc.FinancialClaim(basis, [1.0, -0.5])
    with pytest.raises(qc.DimensionMismatchError):
        qc.FinancialClaim(basis, [1.0, 2.0, 3.0])
    with pytest.raises(qc.ValidationError):
        qc.FinancialClaim(basis, [np.inf, 1.0])


def test_payout_shape_faults_name_the_shape_or_the_count():
    basis = qc.standard_basis(2)
    with pytest.raises(qc.DimensionMismatchError, match=r"^payouts must be a one-dimensional array, got shape \(1, 2\)$"):
        qc.FinancialClaim(basis, [[1.0, 1.0]])
    with pytest.raises(qc.DimensionMismatchError, match="^3 payouts for a dimension-2 basis$"):
        qc.FinancialClaim(basis, [1.0, 1.0, 1.0])
    state, kernel = diag_state(0.5, 0.5), qc.PricingKernel(0.9, diag_state(0.5, 0.5))
    with pytest.raises(qc.DimensionMismatchError, match=r"got shape \(1, 2\)$"):
        qc.rate_of_return(state, kernel, basis, [[1.0, 1.0]])
    with pytest.raises(qc.DimensionMismatchError, match=r"got shape \(\)$"):
        qc.expected_utility(state, basis, 1.0, qc.UtilityFunction.log())


def test_claim_operator_is_diagonal_on_standard_basis():
    claim = qc.FinancialClaim(qc.standard_basis(3), [5.0, 0.0, 2.0])
    assert np.allclose(claim.as_operator().entries, np.diag([5.0, 0.0, 2.0]))


def test_kernel_validation():
    q = diag_state(0.5, 0.5)
    assert qc.PricingKernel(1.0, q).discount == 1.0
    with pytest.raises(qc.ValidationError):
        qc.PricingKernel(0.0, q)
    with pytest.raises(qc.ValidationError):
        qc.PricingKernel(1.2, q)


def test_price_frozen_example():
    # 0.9 * (2 * 0.25 + 4 * 0.75) = 3.15
    kernel = qc.PricingKernel(0.9, diag_state(0.25, 0.75))
    claim = qc.FinancialClaim(qc.standard_basis(2), [2.0, 4.0])
    assert qc.price(kernel, claim) == pytest.approx(3.15, abs=1e-14)
    assert qc.expected_payout(diag_state(0.5, 0.5), claim) == pytest.approx(3.0, abs=1e-14)


def test_price_dimension_mismatch():
    kernel = qc.PricingKernel(0.9, diag_state(0.25, 0.75))
    claim = qc.FinancialClaim(qc.standard_basis(3), [1.0, 1.0, 1.0])
    with pytest.raises(qc.DimensionMismatchError):
        qc.price(kernel, claim)


def test_arrow_debreu_bounds():
    basis = qc.standard_basis(3)
    claim = qc.arrow_debreu(basis, 0)
    assert np.allclose(claim.as_operator().entries, np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(qc.ValidationError):
        qc.arrow_debreu(basis, 3)
    with pytest.raises(qc.ValidationError):
        qc.arrow_debreu(basis, -1)


def test_axioms_hold_for_equivalent_full_rank_states():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        kernel = qc.PricingKernel(rng.uniform(0.2, 1.0), random_density(rng, n))
        state = random_density(rng, n)
        claims = [
            qc.FinancialClaim(random_basis(rng, n), rng.uniform(0.0, 2.0, size=n))
            for _ in range(3)
        ]
        report = qc.check_axioms(kernel, state, claims)
        assert report.all_hold
        assert report.axiom1_holds and report.axiom2_holds and report.axiom3_holds
        assert report.violations == ()


def test_axioms_hold_on_shared_support():
    rng = np.random.default_rng(9)
    state, other = shared_support_pair(rng, 4, 2)
    kernel = qc.PricingKernel(0.9, other)
    report = qc.check_axioms(kernel, state, [qc.discount_bond(4)])
    assert report.all_hold


def test_axiom1_fails_when_pricing_support_is_larger():
    rng = np.random.default_rng(10)
    state = qc.DensityMatrix(np.diag([0.6, 0.4, 0.0]))
    kernel = qc.PricingKernel(0.9, random_density(rng, 3))
    report = qc.check_axioms(kernel, state, [qc.discount_bond(3)])
    assert not report.axiom1_holds
    assert not report.all_hold
    assert any("physical" in label and "null eigenvector" in label for label, _ in report.violations)


def test_axiom1_fails_when_physical_support_is_larger():
    rng = np.random.default_rng(12)
    state = random_density(rng, 3)
    kernel = qc.PricingKernel(0.9, qc.DensityMatrix(np.diag([0.3, 0.7, 0.0])))
    report = qc.check_axioms(kernel, state, [qc.discount_bond(3)])
    assert not report.axiom1_holds
    assert any("pricing" in label and "null eigenvector" in label for label, _ in report.violations)


@pytest.mark.parametrize("scale", [1e7, 1e8])
def test_axioms_hold_for_commuting_claims_with_large_payouts(scale):
    # Prices are linear in the payouts whatever their size, so claims paying of order 1e7 or
    # 1e8 on one basis under equivalent full-rank states break no axiom.
    rng = np.random.default_rng(13)
    for _ in range(5):
        basis = random_basis(rng, 4)
        claims = [qc.FinancialClaim(basis, rng.uniform(0.0, 2.0, size=4) * scale) for _ in range(2)]
        kernel = qc.PricingKernel(rng.uniform(0.2, 1.0), random_density(rng, 4))
        report = qc.check_axioms(kernel, random_density(rng, 4), claims)
        assert report.all_hold and report.violations == ()


@pytest.mark.parametrize("count", [0, 1, 2, 8])
def test_check_axioms_diagonalises_each_state_once(monkeypatch, count):
    rng = np.random.default_rng(14)
    kernel, state = qc.PricingKernel(0.9, random_density(rng, 3)), random_density(rng, 3, rank=2)
    basis = random_basis(rng, 3)
    claims = [qc.FinancialClaim(basis, rng.uniform(0.0, 2.0, size=3)) for _ in range(6)]
    claims += [qc.discount_bond(3), qc.arrow_debreu(basis, 1)]
    eigh, calls = np.linalg.eigh, []

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    qc.check_axioms(kernel, state, claims[:count])
    assert calls == [(3, 3), (3, 3)]


@pytest.mark.parametrize("n", range(1, 9))
def test_the_bond_prices_at_the_discount_factor_under_any_admitted_state(n):
    # Why check_axioms reports axiom 3 as holding: the state gate admits |tr q - 1| up to
    # TOL.trace, so the bond's price is off the discount factor by at most discount * TOL.trace.
    rng = np.random.default_rng(15 + n)
    tol = DEFAULT_TOLERANCES
    for shift in (0.99 * tol.trace, -0.99 * tol.trace):
        q = qc.DensityMatrix(random_density(rng, n).entries * (1.0 + shift))
        discount = rng.uniform(0.2, 1.0)
        gap = abs(qc.price(qc.PricingKernel(discount, q), qc.discount_bond(n)) - discount)
        assert gap <= discount * tol.trace <= tol.price
        report = qc.check_axioms(qc.PricingKernel(discount, q), q, [qc.discount_bond(n)])
        assert report.axiom3_holds and report.all_hold


def test_calibrate_bond_only_in_dimension_one():
    kernel = qc.calibrate(1, 0.97, [])
    assert kernel.discount == pytest.approx(0.97)
    assert np.allclose(kernel.q.entries, [[1.0]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_calibrate_round_trip(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(5):
        kernel = qc.PricingKernel(rng.uniform(0.3, 1.0), random_density(rng, n))
        recovered = qc.calibrate(n, kernel.discount, spanning_quotes(rng, kernel))
        assert np.max(np.abs(recovered.q.entries - kernel.q.entries)) < 1e-8
        assert recovered.discount == kernel.discount


def test_calibrate_preserves_support():
    rng = np.random.default_rng(30)
    source = random_density(rng, 3, rank=2)
    kernel = qc.PricingKernel(0.85, source)
    recovered = qc.calibrate(3, 0.85, spanning_quotes(rng, kernel))
    assert qc.equivalent_states(source, recovered.q)


def test_calibrate_rejects_rank_deficient_quotes():
    basis = qc.standard_basis(2)
    quotes = [(qc.arrow_debreu(basis, 0), 0.4), (qc.arrow_debreu(basis, 1), 0.5)]
    with pytest.raises(qc.CalibrationError, match="rank 2 of 4"):
        qc.calibrate(2, 0.9, quotes)


def test_calibrate_rejects_inconsistent_quotes():
    bond = qc.discount_bond(1)
    with pytest.raises(qc.CalibrationError, match="inconsistent"):
        qc.calibrate(1, 0.9, [(bond, 0.7)])


def test_calibrate_reports_arbitrage_instead_of_repairing():
    # quotes generated by the trace rule for diag(1.2, -0.2): individually
    # nonnegative, jointly only consistent with a non-state
    s = 2.0**-0.5
    fake = np.diag([1.2, -0.2])
    d = 0.9
    bases = [
        qc.MeasurementBasis([[s, s], [s, -s]]),
        qc.MeasurementBasis([[s, 1j * s], [s, -1j * s]]),
        qc.MeasurementBasis([[3.0**0.5 / 2.0, 0.5], [-0.5, 3.0**0.5 / 2.0]]),
        qc.MeasurementBasis([[0.5, 3.0**0.5 / 2.0], [3.0**0.5 / 2.0, -0.5]]),
    ]
    quotes = []
    for basis in bases:
        claim = qc.arrow_debreu(basis, 0)
        v = basis.vectors[0]
        observed = d * float(np.real(v.conj() @ fake @ v))
        assert observed >= 0.0
        quotes.append((claim, observed))
    with pytest.raises(qc.CalibrationError, match="arbitrage"):
        qc.calibrate(2, d, quotes)


def test_calibrated_kernel_reprices_quotes():
    rng = np.random.default_rng(31)
    kernel = qc.PricingKernel(0.8, random_density(rng, 4))
    quotes = spanning_quotes(rng, kernel)
    recovered = qc.calibrate(4, 0.8, quotes)
    for claim, observed in quotes:
        assert qc.price(recovered, claim) == pytest.approx(observed, abs=1e-9)


def _reference_row(operator, n):
    # The per-entry loop the design matrix replaced: diagonal, then
    # 2 Re / -2 Im of X[j, i] for each i < j in row-major order.
    row = np.empty(n * n)
    row[:n] = operator.diagonal().real
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            row[k] = 2.0 * operator[j, i].real
            row[k + 1] = -2.0 * operator[j, i].imag
            k += 2
    return row


def _reference_state(params, n):
    out = np.zeros((n, n), dtype=complex)
    out[np.diag_indices(n)] = params[:n]
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = params[k] + 1j * params[k + 1]
            out[j, i] = params[k] - 1j * params[k + 1]
            k += 2
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_design_matrix_matches_the_entry_loop(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(3):
        kernel = qc.PricingKernel(rng.uniform(0.3, 1.0), random_density(rng, n))
        claims = [
            qc.FinancialClaim(random_basis(rng, n), rng.uniform(0.0, 2.0, size=n))
            for _ in range(n * n + int(rng.integers(0, 3)))
        ]
        quotes = [(c, qc.price(kernel, c)) for c in claims]
        rows = [_reference_row(c.as_operator().entries, n) for c in claims]
        rows.append(np.r_[np.ones(n), np.zeros(n * n - n)])
        reference = np.array(rows)
        assert np.array_equal(_design_matrix(claims, n), reference)
        target = np.array([p / kernel.discount for _, p in quotes] + [1.0])
        solution, *_ = np.linalg.lstsq(reference, target, rcond=None)
        recovered = qc.calibrate(n, kernel.discount, quotes)
        assert np.array_equal(recovered.q.entries, _reference_state(solution, n))


# The per-probe audit that check_axioms replaced, kept as its reference: one price and
# expectation per probe.  Its own gates read ``tol``; the library calls it makes read the
# record in force.
def _reference_check_axioms(kernel, state, claims, tol):
    violations = []
    probes = [(f"sample claim {i}", c) for i, c in enumerate(claims)]
    for label, probed in (("physical", state), ("pricing", kernel.q)):
        vals, vecs = np.linalg.eigh(probed.entries)
        eigenbasis = _trusted(qc.MeasurementBasis, vecs.T.copy())
        for j in np.flatnonzero(vals < tol.null_space):
            label_j = f"unit claim on {label}-state null eigenvector {int(j)}"
            probes.append((label_j, qc.arrow_debreu(eigenbasis, int(j))))
    axiom1 = True
    for label, claim in probes:
        value = qc.price(kernel, claim)
        expectation = qc.expected_payout(state, claim)
        if (value <= tol.price) != (expectation <= tol.price):
            axiom1 = False
            violations.append(
                (
                    f"axiom 1: {label}: price {value:.6g} vs expected payout {expectation:.6g}",
                    float(max(value, expectation)),
                )
            )
    return qc.AxiomReport(axiom1, True, True, tuple(violations))


def _audit_inputs(seed):
    # Dimension 1-16; 0-12 claims on shared bases (the standard basis and q's eigenbasis
    # among them), with repeated and zero-payout claims; null spaces on neither side, the
    # physical side, the pricing side or both.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 17))
    rank = max(1, n - int(rng.integers(1, 3)))
    sides = seed % 4
    state = random_density(rng, n, rank=rank if sides & 1 else None)
    q = random_density(rng, n, rank=rank if sides & 2 else None)
    kernel = qc.PricingKernel(rng.uniform(0.2, 1.0), q)
    claims = []
    count = int(rng.integers(0, 13))
    # q's eigenbasis puts outcomes on its null space: Born weights round to either side of 0.
    bases = (qc.standard_basis(n), qc.MeasurementBasis(np.linalg.eigh(q.entries)[1].T))
    while len(claims) < count:
        draw = rng.random()
        basis = bases[int(draw < 0.25)] if draw < 0.5 else random_basis(rng, n)
        for _ in range(int(rng.integers(1, 5))):
            draw = rng.random()
            if claims and draw < 0.15:
                claims.append(claims[int(rng.integers(len(claims)))])
            elif draw < 0.3:
                claims.append(qc.FinancialClaim(basis, np.zeros(n)))
            else:  # some with zero payout on a few outcomes
                payouts = rng.uniform(0.0, 2.0, size=n) * (draw < 0.6 or rng.random(n) < 0.6)
                claims.append(qc.FinancialClaim(basis, payouts))
    return kernel, state, claims[:count]


# (scale, psd_only): every tolerance scaled, or only the Born range's ``psd``, so that the
# range fails while the null-space and price thresholds stay at their defaults.
TOLERANCE_SCALES = [(s, False) for s in (1.0, 1e-6, 3e-7, 1e-7, 1e-8, 1e-10)]
TOLERANCE_SCALES += [(s, True) for s in (1e-7, 1e-8, 1e-9)]


def _outcome(audit, *args):
    try:
        return audit(*args)
    except qc.QClaimError as exc:
        return type(exc), str(exc)


def _scaled(factor):
    # DEFAULT_TOLERANCES with every threshold multiplied by ``factor``.
    fields = dataclasses.fields(Tolerances)
    return Tolerances(**{f.name: getattr(DEFAULT_TOLERANCES, f.name) * factor for f in fields})


def _audits(monkeypatch, tol, kernel, state, claims):
    # The outcomes of the reference and of check_axioms with ``tol`` in force: every gate
    # either one reaches reads the record bound as TOL in qclaim.pricing or qclaim.quantum.
    with monkeypatch.context() as patch:
        for module in (qclaim.pricing, qclaim.quantum):
            patch.setattr(module, "TOL", tol)
        want = _outcome(_reference_check_axioms, kernel, state, claims, tol)
        return want, _outcome(qc.check_axioms, kernel, state, claims)


def test_check_axioms_matches_the_per_pair_reference(monkeypatch):
    # Exact equality, violation floats included; with tolerances small enough for the Born
    # range to fail, the same first error.  Both the violations and the error show up.
    seen = set()
    for seed in range(60):
        kernel, state, claims = _audit_inputs(seed)
        for scale, psd_only in TOLERANCE_SCALES:
            if psd_only:
                tol = dataclasses.replace(DEFAULT_TOLERANCES, psd=DEFAULT_TOLERANCES.psd * scale)
            else:
                tol = _scaled(scale)
            want, got = _audits(monkeypatch, tol, kernel, state, claims)
            assert got == want, (seed, scale)
            if isinstance(want, tuple):
                seen.add(" ".join(want[1].split()[:2]))
            else:
                seen.update(label.split(":")[0] for label, _ in want.violations)
    assert seen >= {"axiom 1", "Born probability"}
