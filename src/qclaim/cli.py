"""Scenario-driven command line emitting deterministic JSON reports.

Each subcommand reads one JSON scenario file, validates it, computes, and
writes a report whose bytes depend only on the scenario content and the
seed.  Validation problems exit with code 2, numerical failures with
code 3; both leave a machine-readable error record on stderr and never a
partial report.

Importing this module, and running ``ks``, loads no numpy: the integer
Kochen-Specker path is imported here, and each numeric subcommand imports
its library modules when it runs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings
from pathlib import Path

from .errors import NumericalError, ValidationError
from .kochen_specker import (
    cabello_system,
    parity_certificate,
    search_colourings,
    structure_diagnostics,
)
from .serialization import (
    basis_from_json,
    claim_from_json,
    density_from_json,
    hermitian_from_json,
    int_from_json,
    kernel_from_json,
    kernel_to_json,
    ks_system_from_json,
    quotes_from_json,
    real_from_json,
    render_json,
    require_keys,
    utility_from_json,
)
from .tolerances import Tolerances, tolerances_from_env

__all__ = ["main", "run", "SUBCOMMANDS", "EXIT_OK", "EXIT_VALIDATION", "EXIT_NUMERICAL"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

SUBCOMMANDS = ("price", "calibrate", "optimize", "returns", "ks", "menu", "portfolio")

_MAX_SEED = 2**64 - 1
_MAX_DIMENSION = 64
_MAX_VERIFY_TRIALS = 10_000
_DEFAULT_VERIFY_TRIALS = 256


def _floats(values) -> list[float]:
    return [float(x) for x in values]


def _handle_price(payload: dict, seed: int, tol: Tolerances):
    from .pricing import expected_payout, price

    require_keys(payload, "payload", required=("p", "kernel", "claim"))
    state = density_from_json(payload["p"], "payload.p", tol=tol)
    kernel = kernel_from_json(payload["kernel"], "payload.kernel", tol=tol)
    claim = claim_from_json(payload["claim"], "payload.claim", tol=tol)
    results = {
        "price": price(kernel, claim, tol=tol),
        "expected_payout": expected_payout(state, claim, tol=tol),
    }
    return results, []


def _handle_calibrate(payload: dict, seed: int, tol: Tolerances):
    from .pricing import calibrate, price

    require_keys(payload, "payload", required=("n", "bond_price", "quotes"))
    n = int_from_json(payload["n"], "payload.n")
    if not 1 <= n <= _MAX_DIMENSION:
        raise ValidationError(f"payload.n must lie in [1, {_MAX_DIMENSION}], got {n}")
    bond_price = real_from_json(payload["bond_price"], "payload.bond_price")
    quotes = quotes_from_json(payload["quotes"], "payload.quotes", tol=tol)
    kernel = calibrate(n, bond_price, quotes, tol=tol)
    repricing_error = 0.0
    for claim, observed in quotes:
        repricing_error = max(repricing_error, abs(price(kernel, claim, tol=tol) - observed))
    results = {
        "kernel": kernel_to_json(kernel),
        "quote_count": len(quotes),
        "degrees_of_freedom": n * n,
        "max_repricing_error": repricing_error,
    }
    return results, []


def _parse_allocation(payload: dict, tol: Tolerances):
    state = density_from_json(payload["p"], "payload.p", tol=tol)
    kernel = kernel_from_json(payload["kernel"], "payload.kernel", tol=tol)
    basis = basis_from_json(payload["basis"], "payload.basis", tol=tol)
    budget = real_from_json(payload["budget"], "payload.budget")
    utility = utility_from_json(payload["utility"], "payload.utility")
    return state, kernel, basis, budget, utility


def _handle_optimize(payload: dict, seed: int, tol: Tolerances):
    import numpy as np

    from .investment import expected_utility, optimal_payouts, verify_optimality

    require_keys(
        payload,
        "payload",
        required=("p", "kernel", "basis", "budget", "utility"),
        optional=("verify_trials",),
    )
    state, kernel, basis, budget, utility = _parse_allocation(payload, tol)
    trials = _DEFAULT_VERIFY_TRIALS
    if "verify_trials" in payload:
        trials = int_from_json(payload["verify_trials"], "payload.verify_trials")
        if not 1 <= trials <= _MAX_VERIFY_TRIALS:
            raise ValidationError(
                f"payload.verify_trials must lie in [1, {_MAX_VERIFY_TRIALS}], got {trials}"
            )
    investment = optimal_payouts(state, kernel, basis, budget, utility, tol=tol)
    verified = verify_optimality(
        investment, state, kernel, utility, trials, np.random.default_rng(seed), tol=tol
    )
    results = {
        "budget": investment.budget,
        "payouts": _floats(investment.payouts),
        "multiplier": investment.multiplier,
        "realized_price": investment.realized_price,
        "expected_utility": expected_utility(state, basis, investment.payouts, utility, tol=tol),
        "verify_trials": trials,
        "verified_optimal": verified,
    }
    return results, []


def _handle_returns(payload: dict, seed: int, tol: Tolerances):
    from .investment import excess_return_factor, kl_divergence, optimal_payouts, rate_of_return
    from .quantum import basis_marginals

    require_keys(
        payload,
        "payload",
        required=("p", "kernel", "basis", "budget", "utility"),
        optional=("horizon",),
    )
    state, kernel, basis, budget, utility = _parse_allocation(payload, tol)
    horizon = 1.0
    if "horizon" in payload:
        horizon = real_from_json(payload["horizon"], "payload.horizon")
    investment = optimal_payouts(state, kernel, basis, budget, utility, tol=tol)
    log_utility = utility.kind == "log"
    report = rate_of_return(
        state,
        kernel,
        basis,
        investment.payouts,
        horizon,
        verify_log_optimal=log_utility,
        tol=tol,
    )
    p_m = basis_marginals(state, basis, tol=tol)
    q_m = basis_marginals(kernel.q, basis, tol=tol)
    divergence = kl_divergence(p_m, q_m, tol=tol)
    results = {
        "payouts": _floats(investment.payouts),
        "gross_return": report.gross_return,
        "total_rate": report.total_rate,
        "interest_rate": report.interest_rate,
        "excess_rate": report.excess_rate,
        "horizon": report.horizon,
        "kl_divergence": divergence.kl,
        "p_marginals": _floats(divergence.p_marginals),
        "q_marginals": _floats(divergence.q_marginals),
    }
    if log_utility:
        factor = excess_return_factor(p_m, q_m, tol=tol)
        results["growth_factor"] = factor
        results["excess_bound_slack"] = factor - 1.0 - divergence.kl
    return results, []


def _handle_ks(payload: dict, seed: int, tol: Tolerances):
    require_keys(payload, "payload", optional=("system",))
    if "system" in payload:
        system = ks_system_from_json(payload["system"], "payload.system")
    else:
        system = cabello_system()
    structure = structure_diagnostics(system, tol=tol)
    diagnostics = list(structure)
    colourings, witness = search_colourings(system)
    try:
        parity = parity_certificate(system)
    except ValidationError as exc:
        parity = None
        diagnostics.append(f"parity certificate unavailable: {exc}")
    if parity is True and colourings != 0:
        raise NumericalError(
            f"parity obstruction applies yet the search found {colourings} colourings"
        )
    incidence = system.incidence()
    rows = [
        {
            "ray": ray.ray_id,
            "components": list(ray.components),
            "bases": list(incidence[ray.ray_id]),
        }
        for ray in system.rays
    ]
    results = {
        "ray_count": len(system.rays),
        "basis_count": len(system.bases),
        "structure_ok": not structure,
        "valid_colourings": colourings,
        "witness": witness,
        "parity_certificate": parity,
        "incidence": rows,
    }
    return results, diagnostics


def _handle_menu(payload: dict, seed: int, tol: Tolerances):
    from .kochen_specker import ContractMenu, choose_contract, menu_prices, menu_probabilities

    require_keys(
        payload,
        "payload",
        required=("state", "payouts"),
        optional=("utility", "kernel", "system"),
    )
    if "system" in payload:
        system = ks_system_from_json(payload["system"], "payload.system")
    else:
        system = cabello_system()
    state = density_from_json(payload["state"], "payload.state", tol=tol)
    raw_table = payload["payouts"]
    if not isinstance(raw_table, list):
        raise ValidationError("payload.payouts must be an array of per-contract rows")
    table = []
    for r, row in enumerate(raw_table):
        if not isinstance(row, list) or len(row) != 4:
            raise ValidationError(f"payload.payouts[{r}] must be an array of 4 payouts")
        table.append([real_from_json(x, f"payload.payouts[{r}][{j}]") for j, x in enumerate(row)])
    utility = None
    if "utility" in payload:
        utility = utility_from_json(payload["utility"], "payload.utility")
    kernel = None
    if "kernel" in payload:
        kernel = kernel_from_json(payload["kernel"], "payload.kernel", tol=tol)
    menu = ContractMenu(system, table, state, kernel)
    chosen, scores = choose_contract(menu, utility, tol=tol)
    results = {
        "probabilities": [_floats(row) for row in menu_probabilities(menu, tol=tol)],
        "scores": _floats(scores),
        "chosen_contract": chosen,
        "scoring": "expected_payout" if utility is None else "expected_utility",
    }
    if kernel is not None:
        results["prices"] = _floats(menu_prices(menu, tol=tol))
    return results, []


def _handle_portfolio(payload: dict, seed: int, tol: Tolerances):
    from .portfolio import (
        TwoPartyState,
        is_ppt,
        payout_covariance,
        portfolio_expected_payout,
        portfolio_observable,
        portfolio_price,
    )

    require_keys(
        payload,
        "payload",
        required=("dims", "rho", "U", "V", "theta"),
        optional=("kernel",),
    )
    raw_dims = payload["dims"]
    if not isinstance(raw_dims, list) or len(raw_dims) != 2:
        raise ValidationError("payload.dims must be a two-element array")
    dims = (int_from_json(raw_dims[0], "payload.dims[0]"), int_from_json(raw_dims[1], "payload.dims[1]"))
    state = TwoPartyState(dims, density_from_json(payload["rho"], "payload.rho", tol=tol))
    first = hermitian_from_json(payload["U"], "payload.U", tol=tol)
    second = hermitian_from_json(payload["V"], "payload.V", tol=tol)
    raw_theta = payload["theta"]
    if not isinstance(raw_theta, list) or len(raw_theta) != 2:
        raise ValidationError("payload.theta must be a two-element array")
    weights = (
        real_from_json(raw_theta[0], "payload.theta[0]"),
        real_from_json(raw_theta[1], "payload.theta[1]"),
    )
    observable = portfolio_observable(first, second, weights)
    expected = portfolio_expected_payout(state, observable, tol=tol)
    physical = payout_covariance(state, first, second, "physical")
    results = {
        "expected_payout": expected,
        "leg_means": list(physical.marginal_means),
        "covariance": physical.covariance,
        "ppt": is_ppt(state, tol=tol),
    }
    if "kernel" in payload:
        kernel = kernel_from_json(payload["kernel"], "payload.kernel", tol=tol)
        results["price"] = portfolio_price(kernel, observable, tol=tol)
        pricing_state = TwoPartyState(dims, kernel.q)
        pricing = payout_covariance(pricing_state, first, second, "pricing")
        results["pricing_leg_means"] = list(pricing.marginal_means)
        results["pricing_covariance"] = pricing.covariance
    return results, []


_HANDLERS = {
    "price": _handle_price,
    "calibrate": _handle_calibrate,
    "optimize": _handle_optimize,
    "returns": _handle_returns,
    "ks": _handle_ks,
    "menu": _handle_menu,
    "portfolio": _handle_portfolio,
}


def _summary(kind: str, results: dict) -> str:
    if kind == "price":
        return f"price {results['price']:.12g}, expected payout {results['expected_payout']:.12g}"
    if kind == "calibrate":
        return (
            f"recovered pricing state from {results['quote_count']} quotes; "
            f"max repricing error {results['max_repricing_error']:.3e}"
        )
    if kind == "optimize":
        return (
            f"optimal payouts at realized price {results['realized_price']:.12g} "
            f"(budget {results['budget']:.12g})"
        )
    if kind == "returns":
        return (
            f"gross return {results['gross_return']:.12g}, "
            f"excess rate {results['excess_rate']:.12g}"
        )
    if kind == "ks":
        lines = ["ray  components        tetrads"]
        for row in results["incidence"]:
            comps = ", ".join(f"{c:2d}" for c in row["components"])
            bases = ", ".join(str(b) for b in row["bases"])
            lines.append(f"{row['ray']:3d}  ({comps})   {bases}")
        lines.append(f"structure sound: {'yes' if results['structure_ok'] else 'NO'}")
        lines.append(
            "assignments marking exactly one ray per tetrad: "
            f"{results['valid_colourings']}"
        )
        parity = results["parity_certificate"]
        lines.append(
            "parity obstruction applies: "
            + ("yes" if parity else "not applicable" if parity is None else "no")
        )
        verdict = (
            "no classical one-per-tetrad assignment exists"
            if results["valid_colourings"] == 0
            else "classical assignments exist"
        )
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)
    if kind == "menu":
        chosen = results["chosen_contract"]
        return f"chosen contract {chosen} with score {results['scores'][chosen]:.12g}"
    if kind == "portfolio":
        return (
            f"expected payout {results['expected_payout']:.12g}, "
            f"covariance {results['covariance']:.12g}"
        )
    return ""


def _fail(code: int, category: str, message: str) -> int:
    record = {"error": {"exit_code": code, "type": category, "message": message}}
    sys.stderr.write(render_json(record) + "\n")
    return code


def run(
    command: str,
    scenario_path: str,
    out_path: str | None = None,
    seed: int | None = None,
    pretty: bool = False,
) -> int:
    """Execute one subcommand against a scenario file; returns the exit code."""
    if command not in _HANDLERS:
        return _fail(EXIT_VALIDATION, "validation", f"unknown subcommand {command!r}")
    try:
        raw = Path(scenario_path).read_bytes()
    except OSError as exc:
        return _fail(EXIT_VALIDATION, "validation", f"cannot read scenario: {exc}")
    digest = hashlib.sha256(raw).hexdigest()
    try:
        document = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError, JSONDecodeError and overlong integers
        return _fail(EXIT_VALIDATION, "validation", f"scenario is not valid JSON: {exc}")
    try:
        tol = tolerances_from_env()
        scenario = require_keys(document, "scenario", required=("kind", "payload"), optional=("seed",))
        kind = scenario["kind"]
        if kind != command:
            raise ValidationError(f"scenario kind {kind!r} does not match subcommand {command!r}")
        effective_seed = 0
        if "seed" in scenario:
            effective_seed = int_from_json(scenario["seed"], "scenario.seed")
        if seed is not None:
            effective_seed = seed
        if not 0 <= effective_seed <= _MAX_SEED:
            raise ValidationError(f"seed must fit in an unsigned 64-bit integer, got {effective_seed}")
        payload = scenario["payload"]
        if not isinstance(payload, dict):
            raise ValidationError("scenario payload must be a JSON object")
        # numpy's overflow and invalid-value warnings would reach stderr ahead
        # of the error record; the gates still see the inf or nan and fail the run.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results, diagnostics = _HANDLERS[kind](payload, effective_seed, tol)
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, "validation", str(exc))
    except NumericalError as exc:
        return _fail(EXIT_NUMERICAL, "numerical", str(exc))
    report = {
        "kind": kind,
        "inputs_digest": digest,
        "seed": effective_seed,
        "results": results,
        "diagnostics": diagnostics,
    }
    text = render_json(report, pretty=pretty) + "\n"
    if out_path is not None:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            return _fail(EXIT_VALIDATION, "validation", f"cannot write report: {exc}")
    else:
        sys.stdout.write(text)
    summary = _summary(kind, results)
    if summary:
        sys.stderr.write(summary + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="qclaim",
        description="Deterministic reports for measurement-contingent claim scenarios.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    help_lines = {
        "price": "price a claim and report its expected payout",
        "calibrate": "recover a pricing state from quoted prices",
        "optimize": "solve for the utility-optimal payout schedule",
        "returns": "return decomposition and divergence of the optimal schedule",
        "ks": "exact-cover count of one-per-tetrad markings, 18-ray system by default",
        "menu": "score and choose among the tetrad contracts",
        "portfolio": "two-leg portfolio payout, price and covariance",
    }
    for name in SUBCOMMANDS:
        sub = subparsers.add_parser(name, help=help_lines[name])
        sub.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        sub.add_argument("--out", help="write the report here instead of stdout")
        sub.add_argument("--seed", type=int, help="seed for randomized verification")
        sub.add_argument("--pretty", action="store_true", help="indent the report")
    args = parser.parse_args(argv)
    return run(args.command, args.scenario, out_path=args.out, seed=args.seed, pretty=args.pretty)


if __name__ == "__main__":
    sys.exit(main())
