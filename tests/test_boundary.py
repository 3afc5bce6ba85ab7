"""Input is checked once, where it enters; values derived from it are trusted.

The first group rebuilds library-derived values through the public gates
they no longer pass through, so a derivation that drifts out of them
shows up here.  The second group counts validating constructions and pins
that derived values skip the gates.  Then each input rule that a caller
leaves to the one function owning it is shown to still reject, from the
library and from the command line; a table pins the class and message of
each gate no other test reaches; and every real or integer scalar
argument, size and numeric array is shown to go through the one rule in
``qclaim.errors``.  The last tests keep the library on its one set of
tolerances, with no function taking a ``tol`` parameter and every
``Tolerances`` field read by a gate, and keep the scalar and array rules the
only copies.
"""

import ast
import dataclasses
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qclaim as qc
import qclaim.cli as cli
from helpers import bell_state, random_basis, random_density, random_hermitian, spanning_quotes
from test_kochen_specker import peres_system

TOL = qc.DEFAULT_TOLERANCES
DIMS = range(1, 9)


@pytest.mark.parametrize("n", DIMS)
def test_spectral_values_pass_the_gates(n):
    rng = np.random.default_rng(100 + n)
    spectrum = qc.eigendecompose(random_hermitian(rng, n))
    qc.MeasurementBasis(spectrum.basis.vectors)
    basis = random_basis(rng, n)
    claim = qc.FinancialClaim(basis, rng.uniform(0.0, 2.0, size=n))
    qc.HermitianOperator(qc.from_spectrum(rng.normal(size=n), basis).entries)
    qc.HermitianOperator(claim.as_operator().entries)
    legs = [random_hermitian(rng, n), random_hermitian(rng, 3)]
    qc.HermitianOperator(qc.nparty_portfolio_operator(legs, [2.0, -0.5]).entries)
    qc.HermitianOperator(qc.nparty_portfolio_operator(legs + legs[:1], [2.0, -0.5, 1.0]).entries)


@pytest.mark.parametrize("n", DIMS)
def test_combined_claim_reproduces_the_weighted_sum(n):
    # a X + b Y for two claims on one basis, rebuilt from its spectrum with the eigenvalues
    # rounded below 0 by at most TOL.psd taken as zero payouts, passes the claim gates.
    rng = np.random.default_rng(200 + n)
    basis = random_basis(rng, n)
    first = qc.FinancialClaim(basis, rng.uniform(0.0, 2.0, size=n))
    second = qc.FinancialClaim(basis, rng.uniform(0.0, 2.0, size=n))
    for a, b in ((1.0, 1.0), (0.5, 2.0)):
        expected = a * first.as_operator().entries + b * second.as_operator().entries
        spectrum = qc.eigendecompose(qc.HermitianOperator(expected))
        vals = spectrum.eigenvalues
        payouts = np.where((vals < 0.0) & (vals >= -TOL.psd), 0.0, vals)
        combined = qc.FinancialClaim(qc.MeasurementBasis(spectrum.basis.vectors), payouts)
        gap = np.abs(combined.as_operator().entries - expected).max()
        assert gap <= TOL.reconstruction


@pytest.mark.parametrize("n", DIMS)
def test_reduced_and_evolved_states_pass_the_gate(n):
    rng = np.random.default_rng(300 + n)
    rho = random_density(rng, 2 * n)
    for dims in ((n, 2), (2, n)):
        for index in (0, 1):
            qc.DensityMatrix(qc.subsystem_marginal(rho, dims, index).entries)
    triple = random_density(rng, 6 * n)
    for index in range(3):
        qc.DensityMatrix(qc.subsystem_marginal(triple, (2, n, 3), index).entries)
    parts = [(w, random_density(rng, 2), random_density(rng, n)) for w in (0.3, 0.7)]
    qc.DensityMatrix(qc.separable_mixture(parts).rho.entries)
    qc.DensityMatrix(qc.product_state(*parts[0][1:]).rho.entries)


def test_menu_probabilities_are_ray_born_weights():
    system = peres_system()
    rng = np.random.default_rng(400)
    state = random_density(rng, 4)
    menu = qc.ContractMenu(system, np.ones((len(system.bases), 4)), state)
    probabilities = qc.menu_probabilities(menu)
    for row, basis in zip(probabilities, system.bases):
        for value, rid in zip(row, basis.ray_ids):
            ray = system.ray(rid)
            v = np.array(ray.components, dtype=complex)
            expected = float(np.real(v.conj() @ state.entries @ v)) / sum(c * c for c in ray.components)
            assert value == pytest.approx(expected, abs=1e-14)


@pytest.fixture
def constructions(monkeypatch):
    """Names of the validating constructors run since the last ``clear()``."""
    calls = []

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            if type(self) is cls:  # a subclass chaining up is one construction
                calls.append(cls.__name__)
            return init(self, *args, **kwargs)

        return counted

    for cls in (qc.HermitianOperator, qc.DensityMatrix, qc.MeasurementBasis):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    return calls


def test_derived_values_skip_the_gates(constructions):
    rng = np.random.default_rng(500)
    n = 4
    state = random_density(rng, n, rank=3)
    kernel = qc.PricingKernel(0.9, random_density(rng, n, rank=2))
    basis = random_basis(rng, n)
    claims = [qc.FinancialClaim(basis, rng.uniform(0.1, 2.0, size=n)) for _ in range(2)]
    operator = random_hermitian(rng, n)
    joint = random_density(rng, 2 * n)
    constructions.clear()

    qc.check_axioms(kernel, state, claims)
    qc.eigendecompose(operator)
    qc.from_spectrum(np.arange(n, dtype=float), basis)
    qc.subsystem_marginal(joint, (n, 2), 1)
    assert constructions == []


def test_calibration_gates_only_the_recovered_state(constructions):
    rng = np.random.default_rng(600)
    kernel = qc.PricingKernel(0.95, random_density(rng, 3))
    quotes = spanning_quotes(rng, kernel)
    constructions.clear()
    qc.calibrate(3, 0.95, quotes)
    assert constructions == ["DensityMatrix"]


GOLDEN = Path(__file__).parent / "golden"


def _library_rejects(call):
    def check(tmp_path, capsys):
        with pytest.raises(qc.DimensionMismatchError):
            call()

    return check


def _cli_rejects(kind, edit):
    def check(tmp_path, capsys):
        document = json.loads((GOLDEN / f"{kind}.scenario.json").read_text())
        edit(document)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        out = tmp_path / "report.json"
        assert cli.run(kind, str(path), out_path=str(out)) == 2
        captured = capsys.readouterr()
        assert not out.exists() and captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line)["error"]["type"] == "validation"

    return check


def _mixed(n):
    return qc.DensityMatrix(np.eye(n) / n)


def _kernel(n):
    return qc.PricingKernel(0.9, _mixed(n))


def _two_by_two_portfolio():
    leg = qc.HermitianOperator(np.diag([1.0, 2.0]))
    return qc.portfolio_observable(leg, leg, (1.0, 1.0))


def _negative_quote_price(document):
    document["payload"]["quotes"][0]["price"] = -0.1


def _payload_array(document):
    document["payload"] = []


B2, LOG = qc.standard_basis(2), qc.UtilityFunction.log()
# Each rule is raised by the one function that owns it: basis_marginals (basis
# against state), nparty_expected_payout (joint dimension), FinancialClaim (a
# payout schedule), calibrate (quote prices) and require_keys (a JSON object).
MOVED_RULES = {
    "price": _library_rejects(lambda: qc.price(_kernel(3), qc.discount_bond(2))),
    "expected_payout": _library_rejects(lambda: qc.expected_payout(_mixed(3), qc.discount_bond(2))),
    "portfolio_price": _library_rejects(
        lambda: qc.portfolio_price(_kernel(3), _two_by_two_portfolio())
    ),
    "optimal_payouts-state": _library_rejects(
        lambda: qc.optimal_payouts(_mixed(3), _kernel(2), B2, 1.0, LOG)
    ),
    "optimal_payouts-kernel": _library_rejects(
        lambda: qc.optimal_payouts(_mixed(2), _kernel(3), B2, 1.0, LOG)
    ),
    "rate_of_return-state": _library_rejects(
        lambda: qc.rate_of_return(_mixed(3), _kernel(2), B2, [1.0, 1.0])
    ),
    "rate_of_return-kernel": _library_rejects(
        lambda: qc.rate_of_return(_mixed(2), _kernel(3), B2, [1.0, 1.0])
    ),
    "rate_of_return-payouts": _library_rejects(
        lambda: qc.rate_of_return(_mixed(2), _kernel(2), B2, [1.0, 1.0, 1.0])
    ),
    "cli-negative-quote-price": _cli_rejects("calibrate", _negative_quote_price),
    "cli-payload-not-an-object": _cli_rejects("price", _payload_array),
}


@pytest.mark.parametrize("case", MOVED_RULES)
def test_each_moved_rule_still_rejects(case, tmp_path, capsys):
    MOVED_RULES[case](tmp_path, capsys)


_PURE = qc.DensityMatrix(np.diag([1.0, 0.0]))
# Gates that no other test reaches, each as (a call that trips it, the exact class it
# raises, the exact message).
GATE_MESSAGES = {
    "kl_divergence-empty": (
        lambda: qc.kl_divergence([], []),
        qc.ValidationError,
        "physical marginals must be a nonempty vector",
    ),
    "kl_divergence-negative": (
        lambda: qc.kl_divergence([1.5, -0.5], [0.5, 0.5]),
        qc.ValidationError,
        "physical marginals must be finite and nonnegative",
    ),
    "kl_divergence-lengths": (
        lambda: qc.kl_divergence([1.0], [0.5, 0.5]),
        qc.DimensionMismatchError,
        "marginal vectors differ in length",
    ),
    "solve_multiplier-discount": (
        lambda: qc.solve_multiplier([(1.0, 1.0)], 1.0, 1.5, LOG),
        qc.ValidationError,
        "discount factor must lie in (0, 1], got 1.5",
    ),
    "rate_of_return-horizon": (
        lambda: qc.rate_of_return(_mixed(2), _kernel(2), B2, [1.0, 1.0], 0),
        qc.ValidationError,
        "horizon must be positive, got 0.0",
    ),
    "rate_of_return-zero-price": (
        lambda: qc.rate_of_return(_mixed(2), _kernel(2), B2, [0, 0]),
        qc.ValidationError,
        "payout schedule has zero price; return undefined",
    ),
    "rate_of_return-zero-gross": (
        lambda: qc.rate_of_return(_PURE, _kernel(2), B2, [0, 1]),
        qc.ValidationError,
        "gross return must be positive for rate decomposition",
    ),
    "check_axioms-state": (
        lambda: qc.check_axioms(_kernel(2), _mixed(3), []),
        qc.DimensionMismatchError,
        "dimension-3 state against a dimension-2 kernel",
    ),
    "check_axioms-claim": (
        lambda: qc.check_axioms(_kernel(2), _mixed(2), [qc.discount_bond(3)]),
        qc.DimensionMismatchError,
        "sample claim 0 has dimension 3, expected 2",
    ),
    "calibrate-bond-price": (
        lambda: qc.calibrate(2, 1.5, []),
        qc.ValidationError,
        "bond price must lie in (0, 1], got 1.5",
    ),
    "calibrate-quote": (
        lambda: qc.calibrate(2, 1.0, [(qc.discount_bond(3), 1.0)]),
        qc.DimensionMismatchError,
        "quote 0: claim dimension 3, expected 2",
    ),
    "from_spectrum": (
        lambda: qc.from_spectrum([1.0, 2.0, 3.0], B2),
        qc.DimensionMismatchError,
        "3 eigenvalues for a dimension-2 basis",
    ),
    "basis_marginals": (
        lambda: qc.basis_marginals(_mixed(2), qc.standard_basis(3)),
        qc.DimensionMismatchError,
        "dimension-3 basis against a dimension-2 state",
    ),
    "absolutely_continuous": (
        lambda: qc.absolutely_continuous(_mixed(2), _mixed(4)),
        qc.DimensionMismatchError,
        "states of dimension 2 and 4",
    ),
    "separable_mixture": (
        lambda: qc.separable_mixture([(0.5, _mixed(2), _mixed(2)), (0.5, _mixed(3), _mixed(2))]),
        qc.DimensionMismatchError,
        "component 1: factor dimensions (3, 2) differ from (2, 2)",
    ),
    "payout_covariance": (
        lambda: qc.payout_covariance(
            qc.TwoPartyState((2, 2), _mixed(4)),
            qc.HermitianOperator(np.eye(3)),
            qc.HermitianOperator(np.eye(2)),
        ),
        qc.DimensionMismatchError,
        "observable dimensions (3, 2) differ from state dimensions (2, 2)",
    ),
    "nparty_portfolio_operator": (
        lambda: qc.nparty_portfolio_operator([qc.HermitianOperator(np.eye(2))], [1.0, 2.0]),
        qc.ValidationError,
        "need one weight per operator, at least one of each",
    ),
    "KSSystem-empty": (
        lambda: qc.KSSystem([], []),
        qc.ValidationError,
        "a system needs at least one ray and one tetrad",
    ),
    "KSSystem-ray": (
        lambda: qc.KSSystem([(1, 0, 0, 0)], [qc.KSBasis((0, 1, 2, 3))]),
        qc.ValidationError,
        "expected KSRay, got tuple",
    ),
    "KSSystem-tetrad": (
        lambda: qc.KSSystem([qc.KSRay(0, (1, 0, 0, 0))], [(0, 1, 2, 3)]),
        qc.ValidationError,
        "expected KSBasis, got tuple",
    ),
    "ContractMenu-kernel": (
        lambda: qc.ContractMenu(qc.cabello_system(), [[1, 2, 3, 4]] * 9, _mixed(4), _kernel(2)),
        qc.DimensionMismatchError,
        "menu kernel must have dimension 4, got 2",
    ),
}


@pytest.mark.parametrize("gate", GATE_MESSAGES)
def test_each_gate_raises_its_class_and_message(gate):
    call, error, message = GATE_MESSAGES[gate]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


def test_an_unwritable_report_path_exits_2(tmp_path, capsys):
    out = tmp_path / "reports"
    out.mkdir()
    assert cli.run("price", str(GOLDEN / "price.scenario.json"), out_path=str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "validation" and error["message"].startswith("cannot write report: ")
    assert str(out) in error["message"]


def _calibrated(price):
    # q = diag(price, 1 - price): the Arrow-Debreu quote on outcome 0 carries the scalar, and
    # the quotes on two rotated bases pin the off-diagonal entry to zero.
    plus = qc.MeasurementBasis(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    right = qc.MeasurementBasis(np.array([[1, 1j], [1, -1j]]) / np.sqrt(2))
    quotes = [(qc.arrow_debreu(B2, 0), price)]
    quotes += [(qc.arrow_debreu(basis, 0), 0.5) for basis in (plus, right)]
    return qc.calibrate(2, 1.0, quotes).q.entries


LEG = qc.HermitianOperator(np.diag([1.0, 2.0]))
# Each real scalar argument the library checks, as a call that passes ``x`` in that place.
SCALAR_GATES = {
    "PricingKernel-discount": lambda x: qc.PricingKernel(x, _mixed(2)).discount,
    "calibrate-bond_price": lambda x: qc.calibrate(1, x, []).discount,
    "calibrate-quote_price": _calibrated,
    "UtilityFunction-exponent": lambda x: qc.UtilityFunction("power", x),
    "UtilityFunction.power": lambda x: qc.UtilityFunction.power(x),
    "OptimalInvestment-multiplier": lambda x: qc.OptimalInvestment(B2, [1.0, 1.0], x, 1.0, 1.0).multiplier,
    "OptimalInvestment-budget": lambda x: qc.OptimalInvestment(B2, [1.0, 1.0], 1.0, x, 1.0).budget,
    "OptimalInvestment-realized_price": (
        lambda x: qc.OptimalInvestment(B2, [1.0, 1.0], 1.0, 1.0, x).realized_price
    ),
    "solve_multiplier-budget": lambda x: qc.solve_multiplier([(1.0, 1.0)], x, 1.0, LOG),
    "solve_multiplier-discount": lambda x: qc.solve_multiplier([(1.0, 1.0)], 1.0, x, LOG),
    "optimal_payouts-budget": lambda x: qc.optimal_payouts(_mixed(2), _kernel(2), B2, x, LOG).payouts,
    "rate_of_return-horizon": lambda x: qc.rate_of_return(_mixed(2), _kernel(2), B2, [1.0, 2.0], x),
    "PortfolioObservable-weights": lambda x: qc.portfolio_observable(LEG, LEG, (x, 1.0)).weights,
    "separable_mixture-weight": (
        lambda x: qc.separable_mixture([(x, _mixed(2), _mixed(2)), (0.5, _mixed(2), _mixed(2))]).rho.entries
    ),
    "nparty_portfolio_operator-weights": lambda x: qc.nparty_portfolio_operator([LEG], [x]).entries,
    "nparty_expected_payout-weights": lambda x: qc.nparty_expected_payout(_mixed(2), [LEG], [x]),
}
NOT_REALS = {
    "bool": True,
    "numpy-bool": np.True_,
    "str": "0.5",
    "Decimal": Decimal("0.5"),
    "complex": 0.5 + 0j,
    "0-d-array": np.array(0.5),
    "beyond-float-range": 10**400,
    "nan": math.nan,
    "inf": math.inf,
}
REALS = {"float32": np.float32(0.5), "int64": np.int64(1), "Fraction": Fraction(1, 2)}


def _outcome(gate, value):
    # What a call returns, or the error it raises, in a form that tells a float from any other type.
    try:
        return repr(gate(value))
    except qc.QClaimError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", NOT_REALS)
@pytest.mark.parametrize("gate", SCALAR_GATES)
def test_scalar_gates_reject_what_is_not_a_finite_real(gate, kind):
    with pytest.raises(qc.ValidationError, match=r"must be (a number|finite), got"):
        SCALAR_GATES[gate](NOT_REALS[kind])


@pytest.mark.parametrize("kind", REALS)
@pytest.mark.parametrize("gate", SCALAR_GATES)
def test_scalar_gates_take_any_real_as_its_float(gate, kind):
    value = REALS[kind]
    assert _outcome(SCALAR_GATES[gate], value) == _outcome(SCALAR_GATES[gate], float(value))


def test_the_wire_applies_the_library_rule():
    assert qc.serialization.real_from_json is qc.errors.finite_real


# Each integer argument the library checks, called with ``True`` in that place.
INTEGER_GATES = {
    "standard_basis": lambda x: qc.standard_basis(x),
    "subsystem_marginal": lambda x: qc.subsystem_marginal(bell_state(), (x, 4), 0),
    "subsystem_marginal-index": lambda x: qc.subsystem_marginal(bell_state(), (2, 2), x),
    "calibrate-n": lambda x: qc.calibrate(x, 1.0, []),
    "arrow_debreu": lambda x: qc.arrow_debreu(B2, x),
    "verify_optimality-trials": lambda x: qc.verify_optimality(
        qc.optimal_payouts(_mixed(2), _kernel(2), B2, 1.0, LOG),
        _mixed(2),
        _kernel(2),
        LOG,
        trials=x,
        rng=np.random.default_rng(0),
    ),
    "TwoPartyState": lambda x: qc.TwoPartyState((x, 4), bell_state()),
    "KSRay-ray_id": lambda x: qc.KSRay(x, (1, 0, 0, 0)),
    "KSRay-components": lambda x: qc.KSRay(0, (x, 0, 0, 0)),
    "KSBasis-ray_ids": lambda x: qc.KSBasis((x, 0, 2, 3)),
}


@pytest.mark.parametrize("gate", INTEGER_GATES)
@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_integer_gates_reject_bools(gate, flag):
    with pytest.raises(qc.ValidationError):
        INTEGER_GATES[gate](flag)
    INTEGER_GATES[gate](np.int64(1))


@pytest.mark.parametrize("size", [2**63, 10**400], ids=["beyond-intp", "beyond-float-range"])
@pytest.mark.parametrize("gate", ["standard_basis", "calibrate-n", "verify_optimality-trials"])
def test_size_gates_reject_what_numpy_cannot_address(gate, size):
    with pytest.raises(qc.ValidationError, match=r"must lie in \[1, \d+\], got \d+$"):
        INTEGER_GATES[gate](size)


# Each numeric array the library takes in, as (a call that passes ``x`` in that place, a valid
# ``x`` as nested lists of ints).
REAL_SITES = {
    "FinancialClaim": (lambda x: qc.FinancialClaim(B2, x).payouts, [1, 2]),
    "OptimalInvestment": (lambda x: qc.OptimalInvestment(B2, x, 1.0, 1.0, 1.0).payouts, [1, 2]),
    "expected_utility": (lambda x: qc.expected_utility(_mixed(2), B2, x, LOG), [1, 2]),
    "rate_of_return": (lambda x: qc.rate_of_return(_mixed(2), _kernel(2), B2, x).gross_return, [1, 2]),
    "kl_divergence-p": (lambda x: qc.kl_divergence(x, [0.5, 0.5]).p_marginals, [1, 0]),
    "kl_divergence-q": (lambda x: qc.kl_divergence([1.0, 0.0], x).q_marginals, [1, 0]),
    "solve_multiplier-weights": (lambda x: qc.solve_multiplier(zip(x, [1.0, 1.0]), 1.0, 1.0, LOG), [1, 2]),
    "solve_multiplier-ratios": (lambda x: qc.solve_multiplier(zip([1.0, 1.0], x), 1.0, 1.0, LOG), [1, 2]),
    "ContractMenu": (
        lambda x: qc.ContractMenu(qc.cabello_system(), x, _mixed(4)).payout_tables, [[1, 2, 3, 4]] * 9
    ),
    "from_spectrum": (lambda x: qc.from_spectrum(x, B2).entries, [1, 2]),
}
COMPLEX_SITES = {
    "HermitianOperator": (lambda x: qc.HermitianOperator(x).entries, [[1, 0], [0, 2]]),
    "DensityMatrix": (lambda x: qc.DensityMatrix(x).entries, [[1, 0], [0, 0]]),
    "MeasurementBasis": (lambda x: qc.MeasurementBasis(x).vectors, [[0, 1], [1, 0]]),
}
WIRE_BASIS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
# The JSON decoders, which see only what a document can carry.
WIRE_SITES = {
    "cli-menu-payouts": (lambda x: cli._payout_rows_from_json(x, "payload.payouts"), [[1, 2, 3, 4]] * 2),
    "claim_from_json-payouts": (
        lambda x: qc.serialization.claim_from_json({"basis": WIRE_BASIS, "payouts": x}, "claim").payouts,
        [1, 2],
    ),
    "matrix_from_json": (lambda x: qc.serialization.matrix_from_json(x, "m"), WIRE_BASIS),
}
ARRAY_SITES = {**REAL_SITES, **COMPLEX_SITES, **WIRE_SITES}


def _replaced(good, *values):
    """``good`` with its first leaves, in row-major order, replaced by ``values``."""
    leaves = iter(values)

    def walk(node):
        return [walk(x) for x in node] if isinstance(node, list) else next(leaves, node)

    return walk(good)


def _leaves_as(convert, good):
    return [_leaves_as(convert, x) for x in good] if isinstance(good, list) else convert(good)


# Each kind of array that is not all numbers, made from a valid one.
NOT_NUMERIC = {
    "str-and-bool": lambda good: _replaced(good, "0.5", True),
    "bool-array": lambda good: np.array(good, dtype=bool),
    "None": lambda good: _replaced(good, None),
    "nested-list": lambda good: _replaced(good, [1, 2]),
    "object-array": lambda good: np.array(_replaced(good, Decimal("0.5")), dtype=object),
    "complex": lambda good: _replaced(good, 1 + 0j),
    "nan": lambda good: _replaced(good, math.nan),
    "inf": lambda good: np.array(_replaced(good, -math.inf)),
}
NUMERIC = {
    "float-list": lambda good: _leaves_as(float, good),
    "int-list": lambda good: good,
    "float32-array": lambda good: np.array(good, dtype=np.float32),
    "int64-array": lambda good: np.array(good, dtype=np.int64),
    "Fraction-list": lambda good: _leaves_as(Fraction, good),
}
# A complex target takes complex entries, and leaves a non-finite one to its gate.
REAL_TARGET_ONLY = {"complex", "nan", "inf"}
NOT_JSON = {"bool-array", "object-array", "complex", "inf", "float32-array", "int64-array", "Fraction-list"}


def _cases(kinds):
    return [
        (site, kind)
        for site in ARRAY_SITES
        for kind in kinds
        if not (site in COMPLEX_SITES and kind in REAL_TARGET_ONLY)
        and not (site in WIRE_SITES and kind in NOT_JSON)
    ]


@pytest.mark.parametrize("site, kind", _cases(NOT_NUMERIC))
def test_array_sites_name_the_first_entry_that_is_not_a_number(site, kind):
    call, good = ARRAY_SITES[site]
    with pytest.raises(qc.ValidationError, match=r"\[0\](\[0\])* must be (a number|finite), got"):
        call(NOT_NUMERIC[kind](good))


@pytest.mark.parametrize("site, kind", _cases(NUMERIC))
def test_array_sites_take_any_numbers_as_their_floats(site, kind):
    call, good = ARRAY_SITES[site]
    got, want = call(NUMERIC[kind](good)), call(_leaves_as(float, good))
    assert type(got) is type(want) and np.array_equal(got, want)


# Arrays one dimension off, made from a valid one: every entry doubled into a pair, which
# converts at array speed, and a matrix's first row alone as Fractions, which is walked.
OTHER_DEPTH = {
    "nested-pair": lambda good: _leaves_as(lambda v: [v, v], good),
    "first-row-Fractions": lambda good: _leaves_as(Fraction, good[0]),
}


@pytest.mark.parametrize(
    "site, kind",
    [
        (site, kind)
        for site, (_, good) in ARRAY_SITES.items()
        for kind in OTHER_DEPTH
        if kind == "nested-pair" or (site not in WIRE_SITES and isinstance(good[0], list))
    ],
)
def test_array_sites_reject_any_other_number_of_dimensions(site, kind):
    call, good = ARRAY_SITES[site]
    if site == "matrix_from_json":  # an entry must be an [re, im] pair, and the walk names it
        error, message = qc.ValidationError, r"^m\[0\]\[0\]\[0\] must be a number, got \[1, 1\]$"
    else:
        error, message = qc.DimensionMismatchError, r" must be a (one|two)-dimensional array, got shape \([\d, ]*\)$"
    with pytest.raises(error, match=message):
        call(OTHER_DEPTH[kind](good))


def test_a_nan_weight_is_named_without_a_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(qc.ValidationError, match=r"^pricing weights\[0\] must be finite, got nan$"):
            qc.solve_multiplier([(math.nan, 1.0)], 1.0, 1.0, LOG)
    assert caught == []


def test_no_function_takes_a_tol_parameter():
    # Every gate reads DEFAULT_TOLERANCES; a per-call tolerance would be an option with one value in use.
    taking = []
    for path in sorted(Path(qc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            if "tol" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                taking.append(f"{path.name}:{node.lineno}")
    assert taking == []


def test_every_tolerance_field_is_read():
    # A field that no module but its own reads as an attribute is a threshold nothing applies.
    read = set()
    for path in sorted(Path(qc.__file__).parent.glob("*.py")):
        if path.name != "tolerances.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    assert [f.name for f in dataclasses.fields(qc.Tolerances) if f.name not in read] == []


def _applies_the_scalar_rule(call: ast.Call, params: set) -> bool:
    # ``float(p)`` or ``math.isfinite(p)`` on a parameter ``p``.
    func = call.func
    named = (isinstance(func, ast.Name) and func.id in ("float", "isfinite")) or (
        isinstance(func, ast.Attribute)
        and func.attr == "isfinite"
        and isinstance(func.value, ast.Name)
        and func.value.id == "math"
    )
    return named and len(call.args) == 1 and isinstance(call.args[0], ast.Name) and call.args[0].id in params


def _applies_the_array_rule(call: ast.Call, params: set) -> bool:
    # ``np.array(p, dtype=...)`` or ``np.asarray(p, dtype=...)`` on a parameter ``p``.
    func = call.func
    named = (
        isinstance(func, ast.Attribute)
        and func.attr in ("array", "asarray")
        and isinstance(func.value, ast.Name)
        and func.value.id == "np"
    )
    typed = len(call.args) > 1 or any(k.arg == "dtype" for k in call.keywords)
    return named and typed and isinstance(call.args[0], ast.Name) and call.args[0].id in params


def _copies_of_a_rule(applies, owners: set) -> list:
    # Each function outside ``owners`` that applies a rule to one of its own arguments.
    copies = []
    for path in sorted(Path(qc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if f"{path.name} {node.name}" in owners:
                continue
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            calls = (n for statement in node.body for n in ast.walk(statement) if isinstance(n, ast.Call))
            if any(applies(call, params) for call in calls):
                copies.append(f"{path.name}:{node.lineno} {node.name}")
    return copies


# The report renderer converts and checks the values it writes out: an output rule, with its
# own message, not a copy of the rule for arguments.
SCALAR_RULE_OWNERS = {"errors.py finite_real", "serialization.py _render"}
ARRAY_RULE_OWNERS = {"errors.py numeric_array"}


def test_the_scalar_rule_has_one_owner():
    # A function that converts or checks one of its own arguments as a real number copies
    # ``finite_real``; it should call it.
    assert _copies_of_a_rule(_applies_the_scalar_rule, SCALAR_RULE_OWNERS) == []


def test_the_array_rule_has_one_owner():
    # A function that converts one of its own arguments to a typed array copies
    # ``numeric_array``, and takes strings and bools with it; it should call the rule.
    assert _copies_of_a_rule(_applies_the_array_rule, ARRAY_RULE_OWNERS) == []
