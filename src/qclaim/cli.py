"""Scenario-driven command line emitting deterministic JSON reports.

Each subcommand reads one JSON scenario file, decodes and validates its
whole payload, then computes and writes a report whose bytes depend only
on the scenario's bytes, whose ``seed`` key is the one seed.  Validation
problems exit with code 2, numerical failures with code 3; both leave a
machine-readable error record on stderr and never a partial report.

Importing this module, and running ``ks``, loads no numpy: the integer
Kochen-Specker path is imported here, and each numeric subcommand imports
its library modules when it runs.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import warnings
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import NumericalError, ValidationError, bounded_int, numeric_array
from .kochen_specker import (
    cabello_system,
    parity_certificate,
    search_colourings,
    structure_diagnostics,
)
from .serialization import (
    _checked,
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

__all__ = ["main", "run", "SUBCOMMANDS", "EXIT_OK", "EXIT_VALIDATION", "EXIT_NUMERICAL"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_MAX_SEED = 2**64 - 1
_MAX_DIMENSION = 64
_MAX_VERIFY_TRIALS = 10_000


# -- payload decoders beyond the shared codecs


def _pair(obj, what: str, decode) -> tuple:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValidationError(f"{what} must be a two-element array")
    return decode(obj[0], f"{what}[0]"), decode(obj[1], f"{what}[1]")


_dimension_from_json = partial(bounded_int, high=_MAX_DIMENSION)
_trials_from_json = partial(bounded_int, high=_MAX_VERIFY_TRIALS)
_int_pair_from_json = partial(_pair, decode=int_from_json)
_real_pair_from_json = partial(_pair, decode=real_from_json)


def _payout_rows_from_json(obj, what: str):
    if not isinstance(obj, list):
        raise ValidationError(f"{what} must be an array of per-contract rows")
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != 4:
            raise ValidationError(f"{what}[{r}] must be an array of 4 payouts")
    return numeric_array(obj, what, ndim=2)


# Payload key -> name of its decoder, the same in every subcommand.  The name is
# looked up here when the key is decoded, so a rebound decoder is the one called.
_DECODERS = {
    "p": "density_from_json",
    "state": "density_from_json",
    "rho": "density_from_json",
    "kernel": "kernel_from_json",
    "claim": "claim_from_json",
    "quotes": "quotes_from_json",
    "basis": "basis_from_json",
    "U": "hermitian_from_json",
    "V": "hermitian_from_json",
    "utility": "utility_from_json",
    "system": "ks_system_from_json",
    "bond_price": "real_from_json",
    "budget": "real_from_json",
    "horizon": "real_from_json",
    "n": "_dimension_from_json",
    "verify_trials": "_trials_from_json",
    "dims": "_int_pair_from_json",
    "theta": "_real_pair_from_json",
    "payouts": "_payout_rows_from_json",
}


def _decode(key: str, obj):
    return globals()[_DECODERS[key]](obj, f"payload.{key}")


class _Command(NamedTuple):
    compute: Callable
    keys: tuple[str, ...]  # payload keys in decoding order
    optional: tuple[str, ...]
    seeded: bool  # whether it takes the run's seed
    help: str


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, help: str):
    """Enter the decorated computation in ``_COMMANDS`` as subcommand ``name``.

    A parameter named ``seed``, if it has one, receives the run's seed; the
    others are the payload keys, in decoding order, and a key whose parameter
    has a default is optional.
    """

    def register(compute):
        params = inspect.signature(compute).parameters
        keys = tuple(key for key in params if key != "seed")
        optional = tuple(p.name for p in params.values() if p.default is not p.empty)
        _COMMANDS[name] = _Command(compute, keys, optional, "seed" in params, help)
        return compute

    return register


# -- computations: each takes the decoded payload keys, and the seed if it names
# it, and returns (results, diagnostics, stderr summary); every gate applies
# the library's one set of tolerances, DEFAULT_TOLERANCES


@_command("price", "price a claim and report its expected payout")
def _price(*, p, kernel, claim):
    from .pricing import expected_payout, price

    results = {
        "price": price(kernel, claim),
        "expected_payout": _checked(expected_payout, "payload.p", p, claim),
    }
    summary = f"price {results['price']:.12g}, expected payout {results['expected_payout']:.12g}"
    return results, [], summary


@_command("calibrate", "recover a pricing state from quoted prices")
def _calibrate(*, n, bond_price, quotes):
    import numpy as np

    from .pricing import _row_dots, calibrate
    from .quantum import _probabilities, _quadratic_forms

    kernel = calibrate(n, bond_price, quotes)
    # Every quote repriced in one marginal pass under the recovered state.
    bases = np.array([claim.basis.vectors for claim, _ in quotes]).reshape(-1, n, n)
    payouts = np.array([claim.payouts for claim, _ in quotes]).reshape(-1, n)
    marginals = _probabilities(_quadratic_forms(kernel.q.entries, bases))
    prices = kernel.discount * _row_dots(payouts, marginals)
    observed = np.array([value for _, value in quotes])
    repricing_error = float(np.abs(prices - observed).max(initial=0.0))
    results = {
        "kernel": kernel_to_json(kernel),
        "quote_count": len(quotes),
        "degrees_of_freedom": n * n,
        "max_repricing_error": repricing_error,
    }
    summary = (
        f"recovered pricing state from {len(quotes)} quotes; "
        f"max repricing error {repricing_error:.3e}"
    )
    return results, [], summary


@_command("optimize", "solve for the utility-optimal payout schedule")
def _optimize(*, p, kernel, basis, budget, utility, verify_trials=256, seed: int):
    import numpy as np

    from .investment import expected_utility, optimal_payouts, verify_optimality
    from .quantum import basis_marginals

    # The one check that sets p against basis, run first so its rejection names the basis.
    _checked(basis_marginals, "payload.basis", p, basis)
    investment = optimal_payouts(p, kernel, basis, budget, utility)
    verified = verify_optimality(
        investment, p, kernel, utility, verify_trials, np.random.default_rng(seed)
    )
    results = {
        "budget": investment.budget,
        "payouts": investment.payouts.tolist(),
        "multiplier": investment.multiplier,
        "realized_price": investment.realized_price,
        "expected_utility": expected_utility(p, basis, investment.payouts, utility),
        "verify_trials": verify_trials,
        "verified_optimal": verified,
    }
    summary = (
        f"optimal payouts at realized price {investment.realized_price:.12g} "
        f"(budget {investment.budget:.12g})"
    )
    return results, [], summary


@_command("returns", "return decomposition and divergence of the optimal schedule")
def _returns(*, p, kernel, basis, budget, utility, horizon=1.0):
    from .investment import excess_return_factor, kl_divergence, optimal_payouts, rate_of_return
    from .quantum import basis_marginals

    p_m = _checked(basis_marginals, "payload.basis", p, basis)
    q_m = basis_marginals(kernel.q, basis)
    investment = optimal_payouts(p, kernel, basis, budget, utility)
    log_utility = utility.kind == "log"
    report = rate_of_return(
        p, kernel, basis, investment.payouts, horizon, verify_log_optimal=log_utility
    )
    divergence = kl_divergence(p_m, q_m)
    results = {
        "payouts": investment.payouts.tolist(),
        "gross_return": report.gross_return,
        "total_rate": report.total_rate,
        "interest_rate": report.interest_rate,
        "excess_rate": report.excess_rate,
        "horizon": report.horizon,
        "kl_divergence": divergence.kl,
        "p_marginals": divergence.p_marginals.tolist(),
        "q_marginals": divergence.q_marginals.tolist(),
    }
    if log_utility:
        factor = excess_return_factor(p_m, q_m)
        results["growth_factor"] = factor
        results["excess_bound_slack"] = factor - 1.0 - divergence.kl
    summary = f"gross return {report.gross_return:.12g}, excess rate {report.excess_rate:.12g}"
    return results, [], summary


@_command("ks", "exact-cover count of one-per-tetrad markings, 18-ray system by default")
def _ks(*, system=None):
    if system is None:
        system = cabello_system()
    structure = structure_diagnostics(system)
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
    rows, lines = [], ["ray  components        tetrads"]
    for ray in system.rays:
        bases = list(incidence[ray.ray_id])
        c = ray.components
        rows.append({"ray": ray.ray_id, "components": list(c), "bases": bases})
        lines.append(
            f"{ray.ray_id:3d}  ({c[0]:2d}, {c[1]:2d}, {c[2]:2d}, {c[3]:2d})   {', '.join(map(str, bases))}"
        )
    results = {
        "ray_count": len(system.rays),
        "basis_count": len(system.bases),
        "structure_ok": not structure,
        "valid_colourings": colourings,
        "witness": witness,
        "parity_certificate": parity,
        "incidence": rows,
    }
    lines.append(f"structure sound: {'NO' if structure else 'yes'}")
    lines.append(f"assignments marking exactly one ray per tetrad: {colourings}")
    lines.append(f"parity obstruction applies: {'yes' if parity else 'not applicable'}")
    verdict = (
        "no classical one-per-tetrad assignment exists"
        if colourings == 0
        else "classical assignments exist"
    )
    lines.append(f"verdict: {verdict}")
    return results, diagnostics, "\n".join(lines)


@_command("menu", "score and choose among the tetrad contracts")
def _menu(*, system=None, state, payouts, utility=None, kernel=None):
    from .kochen_specker import (
        ContractMenu,
        _four_dimensional,
        _payout_table,
        choose_contract,
        menu_prices,
        menu_probabilities,
    )

    system = cabello_system() if system is None else system
    # ContractMenu's own checks, in its order, each led by the key it rejects;
    # once they pass, only the system's soundness is left to fail.
    _checked(_payout_table, "payload.payouts", system, payouts)
    _checked(_four_dimensional, "payload.state", state, "state")
    if kernel is not None:
        _checked(_four_dimensional, "payload.kernel.q", kernel, "kernel")
    menu = _checked(ContractMenu, "payload.system", system, payouts, state, kernel)
    chosen, scores = _checked(choose_contract, "payload.payouts", menu, utility)
    results = {
        "probabilities": menu_probabilities(menu).tolist(),
        "scores": scores.tolist(),
        "chosen_contract": chosen,
        "scoring": "expected_payout" if utility is None else "expected_utility",
    }
    if kernel is not None:
        results["prices"] = menu_prices(menu).tolist()
    return results, [], f"chosen contract {chosen} with score {scores[chosen]:.12g}"


@_command("portfolio", "two-leg portfolio payout, price and covariance")
def _portfolio(*, dims, rho, U, V, theta, kernel=None):
    from .portfolio import (
        TwoPartyState,
        is_ppt,
        payout_covariance,
        portfolio_expected_payout,
        portfolio_observable,
        portfolio_price,
    )

    state = _checked(TwoPartyState, "payload.dims", dims, rho)
    observable = portfolio_observable(U, V, theta)
    leg = "payload.U" if U.dim != state.dims[0] else "payload.V"  # the leg off the state's dims
    expected = _checked(portfolio_expected_payout, leg, state, observable)
    physical = payout_covariance(state, U, V, "physical")
    results = {
        "expected_payout": expected,
        "leg_means": list(physical.marginal_means),
        "covariance": physical.covariance,
        "ppt": is_ppt(state),
    }
    if kernel is not None:
        results["price"] = _checked(portfolio_price, "payload.kernel.q", kernel, observable)
        pricing = payout_covariance(TwoPartyState(dims, kernel.q), U, V, "pricing")
        results["pricing_leg_means"] = list(pricing.marginal_means)
        results["pricing_covariance"] = pricing.covariance
    summary = f"expected payout {expected:.12g}, covariance {physical.covariance:.12g}"
    return results, [], summary


SUBCOMMANDS = tuple(_COMMANDS)


def _fail(code: int, category: str, message: str) -> int:
    record = {"error": {"exit_code": code, "type": category, "message": message}}
    sys.stderr.write(render_json(record) + "\n")
    return code


def run(command: str, scenario_path: str, out_path: str | None = None) -> int:
    """Execute one subcommand against a scenario file; returns the exit code."""
    if command not in _COMMANDS:
        return _fail(EXIT_VALIDATION, "validation", f"unknown subcommand {command!r}")
    try:
        raw = Path(scenario_path).read_bytes()
    except OSError as exc:
        return _fail(EXIT_VALIDATION, "validation", f"cannot read scenario: {exc}")
    digest = hashlib.sha256(raw).hexdigest()
    # ValueError covers UnicodeDecodeError, JSONDecodeError and overlong integers;
    # the parser raises RecursionError on nesting deeper than the interpreter's stack.
    try:
        document = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return _fail(EXIT_VALIDATION, "validation", f"scenario is not valid JSON: {exc}")
    try:
        scenario = require_keys(document, "scenario", required=("kind", "payload"), optional=("seed",))
        kind = scenario["kind"]
        if kind != command:
            raise ValidationError(f"scenario kind {kind!r} does not match subcommand {command!r}")
        seed = int_from_json(scenario.get("seed", 0), "scenario.seed")
        if not 0 <= seed <= _MAX_SEED:
            raise ValidationError(f"scenario.seed must fit in an unsigned 64-bit integer, got {seed}")
        payload = scenario["payload"]
        spec = _COMMANDS[kind]
        required = [key for key in spec.keys if key not in spec.optional]
        require_keys(payload, "payload", required=required, optional=spec.optional)
        # numpy's overflow and invalid-value warnings would reach stderr ahead
        # of the error record; the gates still see the inf or nan and fail the run.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            values = {key: _decode(key, payload[key]) for key in spec.keys if key in payload}
            if spec.seeded:
                values["seed"] = seed
            results, diagnostics, summary = spec.compute(**values)
        report = {
            "kind": kind,
            "inputs_digest": digest,
            "seed": seed,
            "results": results,
            "diagnostics": diagnostics,
        }
        text = render_json(report) + "\n"
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, "validation", str(exc))
    except NumericalError as exc:
        return _fail(EXIT_NUMERICAL, "numerical", str(exc))
    if out_path is not None:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            return _fail(EXIT_VALIDATION, "validation", f"cannot write report: {exc}")
    else:
        sys.stdout.write(text)
    sys.stderr.write(summary + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="qclaim",
        description="Deterministic reports for measurement-contingent claim scenarios.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=spec.help)
        sub.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        sub.add_argument("--out", help="write the report here instead of stdout")
    args = parser.parse_args(argv)
    return run(args.command, args.scenario, out_path=args.out)


if __name__ == "__main__":
    sys.exit(main())
