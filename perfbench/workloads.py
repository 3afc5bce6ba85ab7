"""The benchmark's three corpora and the checks on their outputs.

Each builder turns a seed into a fixed list of operations.  The list has
the same make-up for every seed (kinds, sizes, shares of rejected and
known-faulty inputs); only the numbers drawn differ.  An operation is a
zero-argument callable plus a check that returns a problem description, or
None when the output is right.  Expected values come from the generator's
own arrays through ``reference``, never from stored program output.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

Check = Callable[[Any], "str | None"]


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Check
    # The input triggers a fault the program is known to have; a crash on it
    # counts as a failed operation instead of a wrong result.
    known_fault: bool = False


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _cjson(mat) -> list:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def _floats(values) -> list[float]:
    return [float(x) for x in values]


# ------------------------------------------------------------ CLI documents


class CliCall:
    """One in-process ``qclaim.cli.run`` on a scenario file, output captured.

    ``cli.run`` is looked up on every call so that tracing wrappers apply.
    """

    def __init__(self, cli, command: str, path: Path):
        self.cli = cli
        self.command = command
        self.path = str(path)

    def __call__(self) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.run(self.command, self.path)
        return code, out.getvalue(), err.getvalue()


def _report_check(kind: str, raw: bytes, check_results: Callable[[dict], "str | None"]) -> Check:
    digest = hashlib.sha256(raw).hexdigest()

    def check(outcome) -> str | None:
        code, out, err = outcome
        if code != 0:
            return f"exit {code} where a report was expected: {err.strip()[:200]}"
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}"
        if report.get("kind") != kind:
            return f"report kind {report.get('kind')!r}"
        if report.get("inputs_digest") != digest:
            return "inputs_digest differs from the SHA-256 of the scenario bytes"
        return check_results(report["results"])

    return check


def _error_check(code: int, category: str, fragment: str) -> Check:
    def check(outcome) -> str | None:
        got, out, err = outcome
        if got != code:
            return f"exit {got}, expected {code} ({fragment})"
        if out:
            return "a rejected scenario wrote a report"
        lines = err.splitlines()
        try:
            record = json.loads(lines[0])["error"] if len(lines) == 1 else None
        except (json.JSONDecodeError, KeyError, TypeError):
            record = None
        if record is None:
            return f"stderr is not one error record: {err[:200]!r}"
        if record.get("exit_code") != code or record.get("type") != category:
            return f"error record {record!r}, expected exit {code} type {category}"
        if fragment not in record.get("message", ""):
            return f"error message {record.get('message')!r} lacks {fragment!r}"
        return None

    return check


def _mismatch(name: str, actual, expected, rel: float = 1e-8, abs_: float = 1e-10) -> str | None:
    if ref.close(actual, expected, rel, abs_):
        return None
    return f"{name}: got {actual!r}, expected {expected!r}"


def _first(*problems) -> str | None:
    return next((p for p in problems if p), None)


def _utility_doc(exponent):
    return {"kind": "log"} if exponent is None else {"kind": "power", "p": exponent}


class _Scenarios:
    """Writes scenario documents and pairs each with its check."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.ops: list[Op] = []

    def add(self, kind, payload, results=None, *, error=None, label=None, known_fault=False, seed=None):
        """Write one document; ``error`` is (exit code, type, message fragment) for a rejection."""
        document = {"kind": kind, "payload": payload}
        if seed is not None:
            document["seed"] = seed
        raw = json.dumps(document).encode("utf-8")
        path = self.workdir / f"{len(self.ops):03d}-{kind}.json"
        path.write_bytes(raw)
        check = _error_check(*error) if error else _report_check(kind, raw, results)
        self.ops.append(Op(label or kind, CliCall(self.cli, kind, path), check, known_fault))


def _price_doc(rng, n):
    p, q = ref.random_density(rng, n), ref.random_density(rng, n)
    basis = ref.random_unitary_rows(rng, n)
    payouts = rng.uniform(0.1, 2.0, size=n)
    discount = float(rng.uniform(0.85, 0.99))
    payload = {
        "p": _cjson(p),
        "kernel": {"discount": discount, "q": _cjson(q)},
        "claim": {"basis": _cjson(basis), "payouts": _floats(payouts)},
    }
    expected_price = discount * float(payouts @ ref.marginals(q, basis))
    expected_payout = float(payouts @ ref.marginals(p, basis))

    def results(r):
        return _first(
            _mismatch("price", r["price"], expected_price),
            _mismatch("expected_payout", r["expected_payout"], expected_payout),
        )

    return payload, results


def _allocation_doc(rng, n, exponent, degenerate=False):
    basis = ref.random_unitary_rows(rng, n)
    if degenerate:
        # Physical state orthogonal to the first outcome: its marginal is 0.
        p = ref.density_on(basis[1:], rng.uniform(0.2, 1.0, size=n - 1))
    else:
        p = ref.random_density(rng, n)
    q = ref.random_density(rng, n)
    discount = float(rng.uniform(0.85, 0.99))
    budget = float(rng.uniform(0.5, 2.0))
    payload = {
        "p": _cjson(p),
        "kernel": {"discount": discount, "q": _cjson(q)},
        "basis": _cjson(basis),
        "budget": budget,
        "utility": _utility_doc(exponent),
    }
    p_m, q_m = ref.marginals(p, basis), ref.marginals(q, basis)
    return payload, p_m, q_m, discount, budget


def _optimize_results(p_m, q_m, discount, budget, exponent, trials):
    x = ref.optimal_payouts(p_m, q_m, budget, discount, exponent)

    def results(r):
        return _first(
            _mismatch("payouts", r["payouts"], x),
            _mismatch("realized_price", r["realized_price"], budget),
            _mismatch("expected_utility", r["expected_utility"], float(ref.utility(x, exponent) @ p_m)),
            None if r["budget"] == budget else "budget not echoed",
            None if r["multiplier"] > 0 else "multiplier not positive",
            None if r["verify_trials"] == trials else "verify_trials not echoed",
            None if r["verified_optimal"] is True else "closed-form optimum reported as beaten",
        )

    return results


def _returns_results(p_m, q_m, discount, budget, horizon):
    x = ref.optimal_payouts(p_m, q_m, budget, discount, None)
    growth = float(np.sum(p_m**2 / q_m))
    kl = float(np.sum(p_m * np.log(p_m / q_m)))

    def results(r):
        gross = r["gross_return"]
        return _first(
            _mismatch("payouts", r["payouts"], x),
            _mismatch("P * gross_return", discount * gross, growth),
            _mismatch("growth_factor", r["growth_factor"], growth),
            _mismatch("kl_divergence", r["kl_divergence"], kl, abs_=1e-9),
            _mismatch("p_marginals", r["p_marginals"], p_m, abs_=1e-12),
            _mismatch("q_marginals", r["q_marginals"], q_m, abs_=1e-12),
            _mismatch("total_rate", r["total_rate"], np.log(gross) / horizon),
            _mismatch("interest_rate", r["interest_rate"], -np.log(discount) / horizon),
            None if r["horizon"] == horizon else "horizon not echoed",
            None if r["excess_bound_slack"] >= 0 else "excess_bound_slack is negative",
            _mismatch("excess_bound_slack", r["excess_bound_slack"], growth - 1.0 - kl, abs_=1e-9),
        )

    return results


def _calibrate_doc(rng, n, inconsistent=False, bad_basis=False):
    q = ref.random_density(rng, n)
    discount = float(rng.uniform(0.85, 0.99))
    quotes = []
    for k in range(n * n):
        basis = ref.random_unitary_rows(rng, n)
        payouts = rng.uniform(0.1, 2.0, size=n)
        value = discount * float(payouts @ ref.marginals(q, basis))
        quotes.append({"id": f"q{k}", "claim": {"basis": _cjson(basis), "payouts": _floats(payouts)}, "price": value})
    if inconsistent:
        # The same claim quoted twice at prices 1% apart: no state fits both.
        twin = dict(quotes[0], id="twin", price=quotes[0]["price"] * 1.01)
        quotes.append(twin)
    if bad_basis:
        last = np.array(quotes[-1]["claim"]["basis"])
        last[0] *= 1.001
        quotes[-1]["claim"]["basis"] = last.tolist()
    payload = {"n": n, "bond_price": discount, "quotes": quotes}

    def results(r):
        kernel = r["kernel"]
        recovered = np.array(kernel["q"])
        return _first(
            _mismatch("calibrated q", recovered[..., 0] + 1j * recovered[..., 1], q, rel=0.0, abs_=1e-7),
            None if kernel["discount"] == discount else "discount not echoed",
            None if r["quote_count"] == n * n else "quote_count",
            None if r["degrees_of_freedom"] == n * n else "degrees_of_freedom",
            None if r["max_repricing_error"] <= 1e-8 else "repricing error above 1e-8",
        )

    return payload, results


def _relabelled(rng, rays, tetrads):
    """Shuffle ray order, flip signs at random, shuffle tetrads and their members."""
    order = rng.permutation(len(rays))
    position = {int(old): new for new, old in enumerate(order)}
    signs = rng.choice((-1, 1), size=len(rays))
    new_rays = [[int(signs[new] * c) for c in rays[int(old)]] for new, old in enumerate(order)]
    new_tetrads = [[position[r] for r in rng.permutation(list(t))] for t in tetrads]
    new_tetrads = [new_tetrads[k] for k in rng.permutation(len(new_tetrads))]
    return new_rays, new_tetrads


def _ray_probabilities(state, rays, tetrads):
    rows = []
    for tetrad in tetrads:
        vecs = np.array([rays[r] for r in tetrad], dtype=float)
        rows.append(ref.marginals(state, vecs) / (vecs**2).sum(axis=1))
    return np.array(rows)


def _menu_doc(rng, peres, peres_tetrads, exponent, with_kernel):
    rays, tetrads = _relabelled(rng, peres, peres_tetrads)
    state = ref.random_density(rng, 4)
    table = rng.uniform(0.1, 2.0, size=(len(tetrads), 4))
    payload = {"system": {"rays": rays, "bases": tetrads}, "state": _cjson(state), "payouts": table.tolist()}
    probs = _ray_probabilities(state, rays, tetrads)
    if exponent is None:
        scores = (table * probs).sum(axis=1)
    else:
        payload["utility"] = _utility_doc(exponent)
        scores = (ref.utility(table, exponent) * probs).sum(axis=1)
    prices = None
    if with_kernel:
        q = ref.random_density(rng, 4)
        discount = float(rng.uniform(0.85, 0.99))
        payload["kernel"] = {"discount": discount, "q": _cjson(q)}
        prices = discount * (table * _ray_probabilities(q, rays, tetrads)).sum(axis=1)

    def results(r):
        got = np.array(r["probabilities"])
        chosen = r["chosen_contract"]
        return _first(
            _mismatch("probabilities", got, probs, abs_=1e-12),
            _mismatch("probability row sums", got.sum(axis=1), np.ones(len(tetrads)), abs_=1e-12),
            _mismatch("scores", r["scores"], scores),
            None if scores[chosen] >= scores.max() - 1e-9 else f"contract {chosen} is not a best choice",
            None if prices is None else _mismatch("prices", r["prices"], prices),
            None if ("prices" in r) == with_kernel else "prices present without a kernel or missing with one",
        )

    return payload, results


# Fixed, seed-independent inputs for the known ragged-menu fault: the
# default 18-ray system and a payout table whose rows differ in length.
_RAGGED_MENUS = (
    [[1.0, 2.0, 3.0, 4.0]] * 4 + [[1.0, 2.0, 3.0]] + [[1.0, 2.0, 3.0, 4.0]] * 4,
    [[1.0, 2.0, 3.0, 4.0]] * 8 + [[1.0, 2.0, 3.0, 4.0, 5.0]],
)


def _portfolio_doc(rng, entangled, with_kernel):
    dims = (4, 4)
    if entangled:
        phi = np.eye(4).reshape(16) / 2.0
        rho = ref.hermitize(0.7 * np.outer(phi, phi) + 0.3 * ref.random_density(rng, 16))
    else:
        rho = np.zeros((16, 16), dtype=complex)
        weights = rng.uniform(0.2, 1.0, size=3)
        for w in weights / weights.sum():
            rho += w * np.kron(ref.random_density(rng, 4), ref.random_density(rng, 4))
        rho = ref.hermitize(rho)
    min_eig = ref.partial_transpose_min_eig(rho, dims)
    u, v = ref.random_hermitian(rng, 4), ref.random_hermitian(rng, 4)
    theta = _floats(rng.uniform(-1.0, 2.0, size=2))
    payload = {"dims": list(dims), "rho": _cjson(rho), "U": _cjson(u), "V": _cjson(v), "theta": theta}
    legs = _two_leg_figures(rho, dims, u, v, theta)
    pricing = None
    if with_kernel:
        q = ref.random_density(rng, 16)
        discount = float(rng.uniform(0.85, 0.99))
        payload["kernel"] = {"discount": discount, "q": _cjson(q)}
        pricing = discount, _two_leg_figures(q, dims, u, v, theta)

    def results(r):
        problems = [
            _mismatch("expected_payout", r["expected_payout"], legs["expected"]),
            _mismatch("leg_means", r["leg_means"], legs["means"]),
            _mismatch("covariance", r["covariance"], legs["covariance"]),
            None if r["ppt"] == (min_eig >= -1e-9) else f"ppt {r['ppt']} against smallest eigenvalue {min_eig:.3e}",
            None if ("price" in r) == with_kernel else "price present without a kernel or missing with one",
        ]
        if pricing is not None:
            discount, figures = pricing
            problems += [
                _mismatch("price", r["price"], discount * figures["expected"]),
                _mismatch("pricing_leg_means", r["pricing_leg_means"], figures["means"]),
                _mismatch("pricing_covariance", r["pricing_covariance"], figures["covariance"]),
            ]
        return _first(*problems)

    return payload, results


def _two_leg_figures(rho, dims, u, v, theta) -> dict:
    """Expected payout split across marginals, leg means and covariance, by reshape."""
    first, second = ref.partial_traces(rho, dims)
    means = [float(np.trace(first @ u).real), float(np.trace(second @ v).real)]
    centered = np.kron(u - means[0] * np.eye(dims[0]), v - means[1] * np.eye(dims[1]))
    return {
        "expected": theta[0] * means[0] + theta[1] * means[1],
        "means": means,
        "covariance": float(np.trace(rho @ centered).real),
    }


def build_cli_scenarios(seed: int, workdir: Path, qc) -> list[Op]:
    """Scenario files for every report-producing subcommand except ``ks``.

    Sizes put each kind at a few milliseconds.  Per round of 48 documents,
    5 are malformed (exit 2), 3 numerically infeasible (exit 3) and 2 are
    the fixed ragged-menu inputs of the known fault.
    """
    rng = _rng(seed, 1)
    docs = _Scenarios(qc.cli, workdir)
    n = 16
    peres = ref.peres_rays()
    peres_tetrads = ref.orthogonal_tetrads(peres)

    for k in range(8):
        payload, results = _price_doc(rng, n)
        if k == 6:
            q = np.array(payload["kernel"]["q"])
            q[0, 1, 0] += 1e-3
            payload["kernel"]["q"] = q.tolist()
            docs.add("price", payload, error=(2, "validation", "not Hermitian"), label="price/non-hermitian")
        elif k == 7:
            payload["claim"]["payouts"][-1] = -0.5
            docs.add("price", payload, error=(2, "validation", "negative payout"), label="price/negative-payout")
        else:
            docs.add("price", payload, results)

    for k in range(8):
        inconsistent, bad_basis = k == 6, k == 7
        payload, results = _calibrate_doc(rng, 4, inconsistent, bad_basis)
        if inconsistent:
            docs.add("calibrate", payload, error=(3, "numerical", "mutually inconsistent"), label="calibrate/inconsistent")
        elif bad_basis:
            docs.add("calibrate", payload, error=(2, "validation", "not orthonormal"), label="calibrate/bad-basis")
        else:
            docs.add("calibrate", payload, results)

    for k in range(8):
        exponent = (None, 0.5, -1.0)[k % 3]
        degenerate = k >= 6
        payload, p_m, q_m, discount, budget = _allocation_doc(rng, n, exponent, degenerate)
        trials = 128
        payload["verify_trials"] = trials
        if degenerate:
            error = (3, "numerical", "below the marginal floor")
            docs.add("optimize", payload, error=error, label="optimize/degenerate", seed=k)
        else:
            results = _optimize_results(p_m, q_m, discount, budget, exponent, trials)
            docs.add("optimize", payload, results, seed=k)

    for k in range(8):
        payload, p_m, q_m, discount, budget = _allocation_doc(rng, n, None)
        horizon = float(rng.uniform(0.5, 2.0))
        if k == 7:
            payload["horizon"] = -horizon
            docs.add("returns", payload, error=(2, "validation", "horizon must be positive"), label="returns/negative-horizon")
        else:
            payload["horizon"] = horizon
            results = _returns_results(p_m, q_m, discount, budget, horizon)
            docs.add("returns", payload, results)

    for k in range(6):
        exponent = None if k % 2 else 0.5
        payload, results = _menu_doc(rng, peres, peres_tetrads, exponent, with_kernel=k < 3)
        docs.add("menu", payload, results)
    for table in _RAGGED_MENUS:
        payload = {"state": _cjson(np.eye(4) / 4.0), "payouts": table}
        docs.add("menu", payload, error=(2, "validation", "payouts"), label="menu/ragged", known_fault=True)

    for k in range(8):
        payload, results = _portfolio_doc(rng, entangled=k % 2 == 1, with_kernel=k < 4)
        if k == 7:
            frame = ref.random_unitary_rows(rng, 16)
            weights = rng.uniform(0.2, 1.0, size=16)
            weights *= 1.05 / weights[1:].sum()
            weights[0] = -0.05
            payload["rho"] = _cjson(ref.hermitize((frame.T * weights) @ frame.conj()))
            error = (2, "validation", "not positive semidefinite")
            docs.add("portfolio", payload, error=error, label="portfolio/not-psd")
        else:
            docs.add("portfolio", payload, results)

    return docs.ops


# ------------------------------------------------------------ market audit


@dataclass
class Market:
    """Arrays for one audit; the op builds every library object from them."""

    n: int
    discount: float
    p: np.ndarray
    q: np.ndarray
    quotes: list  # (basis rows, payouts, price)
    samples: list  # (basis rows, payouts) for check_axioms
    basis: np.ndarray
    budget: float
    exponent: float | None
    horizon: float
    u: np.ndarray
    v: np.ndarray
    theta: tuple[float, float]
    inconsistent: bool


def _support_pair(rng, n, rank, pricing_only):
    """Physical and pricing states; the pricing one lives on a rank-``rank`` subspace.

    With ``pricing_only`` the physical state keeps full rank, so the two
    null spaces differ; otherwise both share the subspace.
    """
    frame = ref.random_unitary_rows(rng, n)[:rank]
    q = ref.density_on(frame, rng.uniform(0.2, 1.0, size=rank))
    if pricing_only:
        return ref.random_density(rng, n), q
    return ref.density_on(frame, rng.uniform(0.2, 1.0, size=rank)), q


# Market dimension and its two-party factoring.
MARKET_DIMS = (3, 4)


def _market(rng, variant: str, exponent) -> Market:
    n = MARKET_DIMS[0] * MARKET_DIMS[1]
    if variant == "pricing-null":
        p, q = _support_pair(rng, n, n - 2, pricing_only=True)
    elif variant == "shared-null":
        p, q = _support_pair(rng, n, n - 2, pricing_only=False)
    else:
        p, q = ref.random_density(rng, n), ref.random_density(rng, n)
    discount = float(rng.uniform(0.85, 0.99))
    quotes = []
    for _ in range(n * n):
        basis = ref.random_unitary_rows(rng, n)
        payouts = rng.uniform(0.1, 2.0, size=n)
        quotes.append((basis, payouts, discount * float(payouts @ ref.marginals(q, basis))))
    inconsistent = variant == "inconsistent"
    if inconsistent:
        basis, payouts, value = quotes[0]
        quotes.append((basis, payouts, value * 1.01))
    # Commuting families (claims sharing a basis) of four, three and two, and one lone claim.
    samples = []
    for size in (4, 3, 2, 1):
        basis = ref.random_unitary_rows(rng, n)
        samples += [(basis, rng.uniform(0.1, 2.0, size=n)) for _ in range(size)]
    return Market(
        n=n,
        discount=discount,
        p=p,
        q=q,
        quotes=quotes,
        samples=samples,
        basis=ref.random_unitary_rows(rng, n),
        budget=float(rng.uniform(0.5, 2.0)),
        exponent=exponent,
        horizon=float(rng.uniform(0.5, 2.0)),
        u=ref.random_hermitian(rng, MARKET_DIMS[0]),
        v=ref.random_hermitian(rng, MARKET_DIMS[1]),
        theta=tuple(_floats(rng.uniform(-1.0, 2.0, size=2))),
        inconsistent=inconsistent,
    )


class AuditCall:
    """Calibrate, audit the axioms, invest and price a portfolio: library calls only.

    Library names are looked up on the package at every call so that
    tracing wrappers apply.
    """

    def __init__(self, qc, market: Market):
        self.qc = qc
        self.m = market

    def __call__(self) -> dict:
        qc, m = self.qc, self.m
        quotes = [(qc.FinancialClaim(qc.MeasurementBasis(b), x), value) for b, x, value in m.quotes]
        try:
            kernel = qc.calibrate(m.n, m.discount, quotes)
        except qc.CalibrationError as exc:
            return {"rejected": str(exc)}
        state = qc.DensityMatrix(m.p)
        samples = [qc.FinancialClaim(qc.MeasurementBasis(b), x) for b, x in m.samples]
        axioms = qc.check_axioms(kernel, state, samples)
        basis = qc.MeasurementBasis(m.basis)
        log = m.exponent is None
        utility = qc.UtilityFunction.log() if log else qc.UtilityFunction.power(m.exponent)
        investment = qc.optimal_payouts(state, kernel, basis, m.budget, utility)
        verified = qc.verify_optimality(investment, state, kernel, utility, 128, np.random.default_rng(0))
        returns = qc.rate_of_return(state, kernel, basis, investment.payouts, m.horizon, verify_log_optimal=log)
        divergence = qc.kl_divergence(qc.basis_marginals(state, basis), qc.basis_marginals(kernel.q, basis))
        joint = qc.TwoPartyState(MARKET_DIMS, state)
        first, second = qc.HermitianOperator(m.u), qc.HermitianOperator(m.v)
        observable = qc.portfolio_observable(first, second, m.theta)
        covariance = qc.payout_covariance(joint, first, second, "physical")
        return {
            "q": kernel.q.entries,
            "discount": kernel.discount,
            "axioms": (axioms.axiom1_holds, axioms.axiom2_holds, axioms.axiom3_holds),
            "violations": [label for label, _ in axioms.violations],
            "payouts": investment.payouts,
            "realized_price": investment.realized_price,
            "verified": verified,
            "gross_return": returns.gross_return,
            "kl": divergence.kl,
            "expected_payout": qc.portfolio_expected_payout(joint, observable),
            "leg_means": covariance.marginal_means,
            "covariance": covariance.covariance,
            "ppt": qc.is_ppt(joint),
        }


def _audit_check(m: Market) -> Check:
    if m.inconsistent:

        def rejected(r) -> str | None:
            if "mutually inconsistent" in r.get("rejected", ""):
                return None
            return "inconsistent quotes were not rejected with CalibrationError"

        return rejected

    axiom1 = ref.same_null_space(m.p, m.q)
    p_m, q_m = ref.marginals(m.p, m.basis), ref.marginals(m.q, m.basis)
    x = ref.optimal_payouts(p_m, q_m, m.budget, m.discount, m.exponent)
    gross = float(x @ p_m) / (m.discount * float(x @ q_m))
    legs = _two_leg_figures(m.p, MARKET_DIMS, m.u, m.v, m.theta)
    min_eig = ref.partial_transpose_min_eig(m.p, MARKET_DIMS)

    def check(r) -> str | None:
        if "rejected" in r:
            return f"consistent quotes rejected: {r['rejected']}"
        axioms, violations = r["axioms"], r["violations"]
        return _first(
            _mismatch("calibrated q", r["q"], m.q, rel=0.0, abs_=1e-7),
            None if r["discount"] == m.discount else "discount not echoed",
            None if axioms == (axiom1, True, True) else f"axiom verdicts {axioms}, expected ({axiom1}, True, True)",
            None if bool(violations) != axiom1 else f"violations {violations[:2]} against axiom 1 {axiom1}",
            None if all(v.startswith("axiom 1") for v in violations) else "a violation outside axiom 1",
            _mismatch("payouts", r["payouts"], x, rel=1e-7),
            _mismatch("realized_price", r["realized_price"], m.budget),
            None if r["verified"] is True else "closed-form optimum reported as beaten",
            _mismatch("gross_return", r["gross_return"], gross, rel=1e-7),
            _mismatch("kl", r["kl"], float(np.sum(p_m * np.log(p_m / q_m))), rel=1e-7, abs_=1e-9),
            _mismatch("portfolio expected_payout", r["expected_payout"], legs["expected"]),
            _mismatch("leg_means", r["leg_means"], legs["means"]),
            _mismatch("covariance", r["covariance"], legs["covariance"]),
            None if r["ppt"] == (min_eig >= -1e-9) else f"ppt {r['ppt']} against smallest eigenvalue {min_eig:.3e}",
        )

    return check


_MARKETS = ("full-rank",) * 3 + ("pricing-null",) * 2 + ("shared-null",) * 2 + ("inconsistent",)


def build_market_audit(seed: int, workdir: Path, qc) -> list[Op]:
    """Sixteen dimension-12 (3x4) markets per round.  Of every eight, three
    have equivalent full-rank states, two a pricing state alone with a null
    space (axiom 1 must fail), two states sharing one (it must hold) and one
    an inconsistent quote set that calibration must reject."""
    rng = _rng(seed, 2)
    ops = []
    for k, variant in enumerate(_MARKETS * 2):
        market = _market(rng, variant, exponent=None if k % 2 == 0 else -1.0)
        ops.append(Op(f"audit/{variant}", AuditCall(qc, market), _audit_check(market)))
    return ops


# --------------------------------------------------------------- ks search


def _ks_systems(rng, count: int, ray_count: int, tetrad_count: int):
    """Subsets of Peres's rays with a fixed ray and tetrad count.

    Even positions hold the paper's 18 rays and their nine tetrads plus
    extra rays (no colouring); odd positions avoid them and admit some.
    """
    peres = ref.peres_rays()
    tetrads = ref.orthogonal_tetrads(peres)
    omitted = {peres.index(r) for r in ref.CEG_OMITTED}
    systems = []
    while len(systems) < count:
        colourable = len(systems) % 2 == 1
        if colourable:
            keep = sorted(int(r) for r in rng.choice(24, size=ray_count, replace=False))
        else:
            extra = rng.choice(sorted(omitted), size=ray_count - 18, replace=False)
            keep = sorted(set(range(24)) - omitted | {int(r) for r in extra})
        inside = [t for t in tetrads if set(t) <= set(keep)]
        if len(inside) != tetrad_count:
            continue
        rays = [peres[r] for r in keep]
        local = [tuple(keep.index(r) for r in t) for t in inside]
        colourings = ref.count_colourings(ray_count, local)
        if colourable != (colourings > 0):
            continue
        systems.append((*_relabelled(rng, rays, local), colourings))
    return systems


def _ks_check(raw: bytes, rays, tetrads, colourings) -> Check:
    incidence = {r: sorted(b for b, t in enumerate(tetrads) if r in t) for r in range(len(rays))}
    two_each = all(len(hits) == 2 for hits in incidence.values())
    parity_applies = two_each and len(tetrads) % 2 == 1

    def results(r):
        witness, parity = r["witness"], r["parity_certificate"]
        rows = r["incidence"]
        return _first(
            None if r["valid_colourings"] == colourings else f"{r['valid_colourings']} colourings, exact cover counts {colourings}",
            None if (witness is None) == (colourings == 0) else "witness presence disagrees with the count",
            None
            if witness is None or all(sum(witness[i] for i in t) == 1 for t in tetrads)
            else "witness does not mark exactly one ray per tetrad",
            None if parity is not True or (parity_applies and colourings == 0) else "parity certificate claimed where it cannot hold",
            None if r["ray_count"] == len(rays) and r["basis_count"] == len(tetrads) else "ray or tetrad count",
            None
            if [(row["ray"], row["components"], row["bases"]) for row in rows]
            == [(i, list(rays[i]), incidence[i]) for i in range(len(rays))]
            else "incidence table",
        )

    return _report_check("ks", raw, results)


def build_ks_search(seed: int, workdir: Path, qc) -> list[Op]:
    """Eight 19-ray, 10-tetrad systems per round, half uncolourable."""
    rng = _rng(seed, 3)
    ops = []
    for k, (rays, tetrads, colourings) in enumerate(_ks_systems(rng, 8, 19, 10)):
        raw = json.dumps({"kind": "ks", "payload": {"system": {"rays": rays, "bases": tetrads}}}).encode()
        path = workdir / f"{k:03d}-ks.json"
        path.write_bytes(raw)
        label = "ks/colourable" if colourings else "ks/uncolourable"
        ops.append(Op(label, CliCall(qc.cli, "ks", path), _ks_check(raw, rays, tetrads, colourings)))
    return ops


WORKLOADS = {
    "cli-scenarios": build_cli_scenarios,
    "market-audit": build_market_audit,
    "ks-search": build_ks_search,
}
