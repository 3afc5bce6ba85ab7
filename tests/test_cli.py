import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qclaim as qc
import qclaim.cli as cli
import qclaim.investment
import qclaim.pricing
import qclaim.serialization
from helpers import random_basis, random_density
from qclaim.quantum import _trusted

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"


def write_scenario(tmp_path, document, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def price_scenario(**overrides):
    document = {
        "kind": "price",
        "payload": {
            "p": [[[0.8, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]]],
            "kernel": {
                "discount": 0.95,
                "q": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
            },
            "claim": {
                "basis": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "payouts": [1.6, 0.4],
            },
        },
    }
    document.update(overrides)
    return document


@pytest.mark.parametrize("kind", cli.SUBCOMMANDS)
def test_golden_reports_are_byte_identical(kind, tmp_path, capsys):
    scenario = GOLDEN / f"{kind}.scenario.json"
    out = tmp_path / "report.json"
    assert cli.run(kind, str(scenario), out_path=str(out)) == 0
    assert out.read_bytes() == (GOLDEN / f"{kind}.report.json").read_bytes()
    captured = capsys.readouterr()
    assert captured.out == ""  # report went to the file, summary to stderr
    assert captured.err.strip()


@pytest.mark.parametrize("kind", cli.SUBCOMMANDS)
def test_golden_matrices_take_the_array_decoder(kind, tmp_path, capsys, monkeypatch):
    # Every golden matrix decodes without the per-entry walk, which only names a bad entry.
    def walk(obj, what):
        raise AssertionError(f"{what} fell back to the per-entry walk")

    monkeypatch.setattr(qclaim.serialization, "_complex_rows_walk", walk)
    out = tmp_path / "report.json"
    assert cli.run(kind, str(GOLDEN / f"{kind}.scenario.json"), out_path=str(out)) == 0
    assert out.read_bytes() == (GOLDEN / f"{kind}.report.json").read_bytes()


GOLDEN_SUMMARIES = {
    "price": "price 0.95, expected payout 1.36",
    "calibrate": "recovered pricing state from 4 quotes; max repricing error 3.886e-16",
    "optimize": "optimal payouts at realized price 1 (budget 1)",
    "returns": "gross return 1.43157894737, excess rate 0.153742349874",
    "menu": "chosen contract 5 with score 0",
    "portfolio": "expected payout 0, covariance 1",
}
KS_SUMMARY_TAIL = [
    "structure sound: yes",
    "assignments marking exactly one ray per tetrad: 0",
    "parity obstruction applies: yes",
    "verdict: no classical one-per-tetrad assignment exists",
]


@pytest.mark.parametrize("kind", cli.SUBCOMMANDS)
def test_golden_summaries(kind, tmp_path, capsys):
    scenario = GOLDEN / f"{kind}.scenario.json"
    assert cli.run(kind, str(scenario), out_path=str(tmp_path / "report.json")) == 0
    err = capsys.readouterr().err
    if kind == "ks":
        lines = err.splitlines()
        assert lines[0] == "ray  components        tetrads"
        assert lines[1] == "  0  ( 0,  0,  0,  1)   0, 8"
        assert lines[-4:] == KS_SUMMARY_TAIL
        assert len(lines) == 1 + 18 + 4
    else:
        assert err == GOLDEN_SUMMARIES[kind] + "\n"


def test_stdout_report_matches_golden(capsys):
    scenario = GOLDEN / "price.scenario.json"
    assert cli.run("price", str(scenario)) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / "price.report.json").read_bytes()


def test_reports_are_deterministic(capsys):
    scenario = GOLDEN / "optimize.scenario.json"
    assert cli.run("optimize", str(scenario)) == 0
    first = capsys.readouterr().out
    assert cli.run("optimize", str(scenario)) == 0
    assert capsys.readouterr().out == first


def test_digest_tracks_scenario_bytes(tmp_path, capsys):
    import hashlib

    path = write_scenario(tmp_path, price_scenario())
    assert cli.run("price", path) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs_digest"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert report["seed"] == 0
    assert report["kind"] == "price"


@pytest.mark.parametrize("seed", [11, 2**64 - 1])
def test_scenario_seed_reaches_the_report(seed, tmp_path, capsys):
    assert cli.run("price", write_scenario(tmp_path, price_scenario(seed=seed))) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == seed


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_bounds(seed, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.run("price", write_scenario(tmp_path, price_scenario(seed=seed)), str(out)) == 2
    assert not out.exists()
    assert single_error_record(capsys)["message"] == (
        f"scenario.seed must fit in an unsigned 64-bit integer, got {seed}"
    )


@pytest.mark.parametrize("seed", [1.5, "7", True], ids=["float", "str", "bool"])
def test_scenario_seed_must_be_an_integer(seed, tmp_path, capsys):
    document = json.loads((GOLDEN / "optimize.scenario.json").read_text())
    document["seed"] = seed
    out = tmp_path / "report.json"
    assert cli.run("optimize", write_scenario(tmp_path, document), out_path=str(out)) == 2
    assert not out.exists()
    record = single_error_record(capsys)
    assert record["exit_code"] == 2 and record["type"] == "validation"
    assert record["message"] == f"scenario.seed must be an integer, got {seed!r}"


def error_record(capsys):
    err_lines = capsys.readouterr().err.strip().splitlines()
    return json.loads(err_lines[-1])["error"]


def test_missing_scenario_file(capsys):
    assert cli.run("price", "/nonexistent/scenario.json") == 2
    record = error_record(capsys)
    assert record["exit_code"] == 2 and record["type"] == "validation"


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.run("price", str(path)) == 2
    assert "JSON" in error_record(capsys)["message"]


def test_kind_mismatch(tmp_path, capsys):
    path = write_scenario(tmp_path, price_scenario(kind="optimize"))
    assert cli.run("price", path) == 2
    assert "does not match" in error_record(capsys)["message"]


def test_unknown_keys_rejected(tmp_path, capsys):
    document = price_scenario()
    document["payload"]["surprise"] = 1
    assert cli.run("price", write_scenario(tmp_path, document)) == 2
    assert "surprise" in error_record(capsys)["message"]


def test_invalid_state_rejected(tmp_path, capsys):
    document = price_scenario()
    document["payload"]["p"] = [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    assert cli.run("price", write_scenario(tmp_path, document)) == 2
    assert error_record(capsys)["type"] == "validation"


def test_unknown_subcommand(capsys):
    assert cli.run("liquidate", "whatever.json") == 2
    assert "unknown subcommand" in error_record(capsys)["message"]


def test_numerical_failure_exits_3(tmp_path, capsys):
    document = {
        "kind": "calibrate",
        "payload": {
            "n": 2,
            "bond_price": 0.9,
            "quotes": [
                {
                    "claim": {
                        "basis": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                        "payouts": [1.0, 0.0],
                    },
                    "price": 0.225,
                }
            ],
        },
    }
    assert cli.run("calibrate", write_scenario(tmp_path, document)) == 3
    record = error_record(capsys)
    assert record["exit_code"] == 3 and record["type"] == "numerical"
    assert "rank" in record["message"]


@pytest.mark.parametrize("noise", [0.0, 1e-10], ids=["consistent", "perturbed"])
@pytest.mark.parametrize("n", range(1, 9))
def test_calibrate_reprices_every_quote_in_one_pass(n, noise):
    # The largest gap between a quote and its price under the recovered state, as one
    # ``price`` call per quote gives it, to the last bits of a price (at n = 1 the stacked
    # pass can round differently); perturbed quotes leave a least-squares residual.
    rng = np.random.default_rng(900 + n)
    kernel = qc.PricingKernel(rng.uniform(0.5, 1.0), random_density(rng, n))
    quotes = []
    for _ in range(n * n + 2):
        claim = qc.FinancialClaim(random_basis(rng, n), rng.uniform(0.0, 2.0, size=n))
        quotes.append((claim, qc.price(kernel, claim) + noise * rng.uniform(-1.0, 1.0)))
    results, _, _ = cli._calibrate(n=n, bond_price=kernel.discount, quotes=quotes)
    recovered = qc.calibrate(n, kernel.discount, quotes)
    gaps = [abs(qc.price(recovered, claim) - value) for claim, value in quotes]
    assert abs(results["max_repricing_error"] - max(gaps)) <= 2 * np.finfo(float).eps
    assert results["quote_count"] == n * n + 2


def test_calibrate_repricing_names_the_first_quote_out_of_born_range(monkeypatch):
    # A recovered state with a negative eigenvalue (the state gate bypassed) puts the Born
    # weights of quotes 1 and 2 below 0; the error is the one ``price`` raises on quote 1.
    q = _trusted(qc.DensityMatrix, np.diag([1.25, -0.25]).astype(complex))
    kernel = qc.PricingKernel(0.9, q)
    monkeypatch.setattr(qclaim.pricing, "calibrate", lambda n, bond_price, quotes: kernel)
    c, s = math.cos(0.3), math.sin(0.3)
    bases = (np.array([[1, 1], [1, -1]]) / math.sqrt(2), [[c, s], [-s, c]], np.eye(2))
    quotes = [(qc.FinancialClaim(qc.MeasurementBasis(b), [1.0, 1.0]), 0.9) for b in bases]
    with pytest.raises(qc.NumericalError) as first:
        qc.price(kernel, quotes[1][0])
    with pytest.raises(qc.NumericalError) as caught:
        cli._calibrate(n=2, bond_price=0.9, quotes=quotes)
    assert str(caught.value) == str(first.value)
    assert str(first.value).startswith("Born probability -0.1")


def test_a_non_finite_result_exits_3(tmp_path, capsys):
    # Finite inputs whose expected payout rounds past the largest float.
    c, s = math.cos(0.1), math.sin(0.1)
    document = price_scenario()
    document["payload"]["claim"] = {
        "basis": [[[c, 0.0], [s, 0.0]], [[-s, 0.0], [c, 0.0]]],
        "payouts": [1.7976931348623157e308, 1.7976931348623157e308],
    }
    assert cli.run("price", write_scenario(tmp_path, document)) == 3
    record = single_error_record(capsys)
    assert record["exit_code"] == 3 and record["type"] == "numerical"
    assert record["message"] == "reports may not contain non-finite numbers, got inf"


def test_degenerate_marginal_exits_3(tmp_path, capsys):
    document = json.loads((GOLDEN / "optimize.scenario.json").read_text())
    document["payload"]["p"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    assert cli.run("optimize", write_scenario(tmp_path, document)) == 3
    assert "marginal floor" in error_record(capsys)["message"]


def test_ks_summary_lists_incidence(capsys):
    assert cli.run("ks", str(GOLDEN / "ks.scenario.json")) == 0
    err = capsys.readouterr().err
    assert "ray  components        tetrads" in err
    assert "structure sound: yes" in err
    assert "verdict: no classical one-per-tetrad assignment exists" in err
    assert err.count("\n") >= 22  # 18 incidence rows plus the verdict block


def test_ks_rejects_system_beating_parity(tmp_path, capsys):
    # two copies of one tetrad: parity preconditions hold only with an odd
    # count, so the certificate is unavailable and the search rules
    document = {
        "kind": "ks",
        "payload": {
            "system": {
                "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                "bases": [[0, 1, 2, 3]],
            }
        },
    }
    assert cli.run("ks", write_scenario(tmp_path, document)) == 0
    report_line = capsys.readouterr().out
    results = json.loads(report_line)["results"]
    assert results["valid_colourings"] == 4
    assert results["parity_certificate"] is None
    assert results["structure_ok"] is True  # orthogonal; only the parity precondition fails


def ks_table(rays, bases):
    """The ``ks`` incidence table, row by row, in the format the CLI has always written."""
    lines = ["ray  components        tetrads"]
    for rid, comps in enumerate(rays):
        hits = [b for b, ids in enumerate(bases) if rid in ids]
        lines.append(
            f"{rid:3d}  ({', '.join(f'{c:2d}' for c in comps)})   {', '.join(str(b) for b in hits)}"
        )
    return lines


def relabelled_cabello(seed):
    """The embedded system with rays shuffled and sign-flipped, its tetrads listed twice."""
    rng = random.Random(seed)
    system = qclaim.cabello_system()
    order = list(range(len(system.rays)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    signs = [rng.choice((-1, 1)) for _ in order]
    rays = [[sign * c for c in system.rays[old].components] for sign, old in zip(signs, order)]
    bases = [[position[rid] for rid in basis.ray_ids] for basis in system.bases] * 2
    rng.shuffle(bases)
    return rays, bases


def test_ks_table_rows_match_the_written_format(tmp_path, capsys):
    golden = qclaim.cabello_system()
    golden_rays = [list(ray.components) for ray in golden.rays]
    golden_bases = [list(basis.ray_ids) for basis in golden.bases]
    assert cli.run("ks", str(GOLDEN / "ks.scenario.json"), out_path=str(tmp_path / "golden.json")) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[:-4] == ks_table(golden_rays, golden_bases)
    assert lines[-4:] == KS_SUMMARY_TAIL

    rays, bases = relabelled_cabello(7)
    # Negative components, and tetrad ids up to 17 in every row.
    assert any(c < 0 for comps in rays for c in comps) and len(bases) == 18
    path = write_scenario(tmp_path, ks_scenario(rays, bases))
    assert cli.run("ks", path, out_path=str(tmp_path / "relabelled.json")) == 0
    lines = capsys.readouterr().err.splitlines()
    table = ks_table(rays, bases)
    assert lines[: len(table)] == table and len(lines) == len(table) + 4


def test_the_tolerance_scale_variable_changes_nothing(tmp_path, capsys, monkeypatch):
    # The CLI applies the library's default tolerances whatever the environment holds.
    off_trace = price_scenario()
    off_trace["payload"]["p"][0][0][0] = 0.8005  # trace off by 5e-4
    negative = price_scenario()
    negative["payload"]["p"] = [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
    monkeypatch.setenv("QCLAIM_TOL_SCALE", "1e9")
    assert cli.run("price", write_scenario(tmp_path, off_trace)) == 2
    assert single_error_record(capsys)["message"] == "payload.p: state trace must be 1, got 1.0005"
    assert cli.run("price", write_scenario(tmp_path, negative)) == 2
    assert single_error_record(capsys)["message"] == (
        "payload.p: state is not positive semidefinite: smallest eigenvalue -5.000e-01"
    )
    monkeypatch.setenv("QCLAIM_TOL_SCALE", "banana")
    assert cli.run("price", str(GOLDEN / "price.scenario.json")) == 0


def test_console_entry_point(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "qclaim.cli",
            "price",
            "--scenario",
            str(GOLDEN / "price.scenario.json"),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert proc.returncode == 0
    assert out.read_bytes() == (GOLDEN / "price.report.json").read_bytes()
    report = json.loads(out.read_text())
    assert report["seed"] == 0
    assert report["results"]["price"] == 0.95
    assert proc.stdout == ""
    assert "price" in proc.stderr


@pytest.mark.parametrize("kind", cli.SUBCOMMANDS)
def test_main_writes_the_golden_report(kind, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main([kind, "--scenario", str(GOLDEN / f"{kind}.scenario.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{kind}.report.json").read_bytes()


@pytest.mark.parametrize("option", [["--pretty"], ["--seed", "5"]], ids=["pretty", "seed"])
def test_retired_options_are_unrecognized(option, tmp_path, capsys):
    # A report depends only on its scenario's bytes: no option reformats it or reseeds it.
    out = tmp_path / "report.json"
    argv = ["optimize", "--scenario", str(GOLDEN / "optimize.scenario.json"), "--out", str(out)]
    with pytest.raises(SystemExit) as stop:
        cli.main(argv + option)
    assert stop.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", cli.SUBCOMMANDS)
def test_subcommand_help_lists_only_scenario_and_out(kind, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main([kind, "--help"])
    assert stop.value.code == 0
    options = re.findall(r"^ +(-[-\w]+)", capsys.readouterr().out, re.M)
    assert options == ["-h", "--scenario", "--out"]


def test_help_lists_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapped help lines
    with pytest.raises(SystemExit) as stop:
        cli.main(["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(cli.SUBCOMMANDS) + "}" in out
    for name in cli.SUBCOMMANDS:
        help_line = cli._COMMANDS[name].help
        assert re.search(rf"^ +{name} +{re.escape(help_line)}$", out, re.M), name


def test_every_payload_key_has_one_decoder():
    keys = {key for command in cli._COMMANDS.values() for key in command.keys}
    assert keys == set(cli._DECODERS)
    assert all(callable(getattr(cli, name)) for name in cli._DECODERS.values())


def test_readme_lists_the_subcommands_in_order():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    assert tuple(re.findall(r"^\| `([a-z]+)` +\|", section, re.M)) == cli.SUBCOMMANDS


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_ragged_menu_payouts_exit_2(tmp_path, capsys):
    document = json.loads((GOLDEN / "menu.scenario.json").read_text())
    document["payload"]["payouts"][4] = [1.0, 2.0, 3.0]
    assert cli.run("menu", write_scenario(tmp_path, document)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])["error"]
    assert record["exit_code"] == 2 and record["type"] == "validation"
    assert "payload.payouts[4]" in record["message"]


@pytest.mark.parametrize("n", [0, 65, 3000])
def test_calibrate_dimension_bounds(n, tmp_path, capsys):
    document = {"kind": "calibrate", "payload": {"n": n, "bond_price": 0.9, "quotes": []}}
    out = tmp_path / "report.json"
    assert cli.run("calibrate", write_scenario(tmp_path, document), out_path=str(out)) == 2
    assert not out.exists()
    assert "payload.n" in error_record(capsys)["message"]


@pytest.mark.parametrize("trials", [0, 10_001, 10**9])
def test_optimize_verify_trials_bounds(trials, tmp_path, capsys, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("verify_optimality ran on a rejected trial count")

    monkeypatch.setattr(qclaim.investment, "verify_optimality", no_draws)
    document = json.loads((GOLDEN / "optimize.scenario.json").read_text())
    document["payload"]["verify_trials"] = trials
    out = tmp_path / "report.json"
    assert cli.run("optimize", write_scenario(tmp_path, document), out_path=str(out)) == 2
    assert not out.exists()
    assert "payload.verify_trials" in error_record(capsys)["message"]


@pytest.mark.parametrize(
    "kind, key, value", [("optimize", "horizon", 2.0), ("returns", "verify_trials", 64)]
)
def test_ignored_keys_rejected(kind, key, value, tmp_path, capsys):
    document = json.loads((GOLDEN / f"{kind}.scenario.json").read_text())
    document["payload"][key] = value
    assert cli.run(kind, write_scenario(tmp_path, document)) == 2
    assert key in error_record(capsys)["message"]


def single_error_record(capsys):
    """The one stderr line of a rejected run, with nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


def menu_scenario(rays, bases):
    return {
        "kind": "menu",
        "payload": {
            "system": {"rays": rays, "bases": bases},
            "state": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
            "payouts": [[1.0, 2.0, 3.0, 4.0]] * len(bases),
        },
    }


def ks_scenario(rays, bases):
    return {"kind": "ks", "payload": {"system": {"rays": rays, "bases": bases}}}


UNIT_RAYS = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def rejected_system_message(kind, rays, bases, tmp_path, capsys):
    """The message of a ``ks`` or ``menu`` run that exits 2 on its ray system and writes no report."""
    build = ks_scenario if kind == "ks" else menu_scenario
    out = tmp_path / "report.json"
    assert cli.run(kind, write_scenario(tmp_path, build(rays, bases)), out_path=str(out)) == 2
    assert not out.exists()
    record = single_error_record(capsys)
    assert record["exit_code"] == 2 and record["type"] == "validation"
    return record["message"]


@pytest.mark.parametrize(
    "kind, component",
    [("ks", 10**400), ("menu", 10**400), ("menu", 3037000500), ("ks", 2**20 + 1)],
    ids=["ks-10**400", "menu-10**400", "menu-3037000500", "ks-2**20+1"],
)
def test_oversized_ray_components_exit_2(kind, component, tmp_path, capsys):
    rays = [[component, 0, 0, 0]] + UNIT_RAYS[1:]
    message = rejected_system_message(kind, rays, [[0, 1, 2, 3]], tmp_path, capsys)
    assert message == "payload.system.rays[0]: ray 0 has a component beyond the bound |c| <= 2**20"


@pytest.mark.parametrize("kind", ["ks", "menu"])
def test_parallel_rays_exit_2(kind, tmp_path, capsys):
    message = rejected_system_message(kind, UNIT_RAYS + [[0, 0, -2, 0]], [[0, 1, 2, 3]], tmp_path, capsys)
    assert message == "payload.system: rays 2 and 4 are parallel"


# Ray-system faults the library finds after decoding: (rays, tetrads, message with its path).
REJECTED_SYSTEMS = {
    "zero-ray": (
        UNIT_RAYS + [[0, 0, 0, 0]],
        [[0, 1, 2, 3]],
        "payload.system.rays[4]: ray 4 is the zero vector",
    ),
    "sign-duplicate": (
        UNIT_RAYS + [[0, 0, -1, 0]],
        [[0, 1, 2, 3]],
        "payload.system: rays 2 and 4 coincide up to sign",
    ),
    "repeated-id": (
        UNIT_RAYS,
        [[0, 0, 1, 2]],
        "payload.system.bases[0]: tetrad ray ids must be distinct, got (0, 0, 1, 2)",
    ),
    "unknown-id": (
        UNIT_RAYS,
        [[0, 1, 2, 3], [0, 1, 2, 999]],
        "payload.system: tetrad 1 references unknown ray id 999",
    ),
}


@pytest.mark.parametrize("kind", ["ks", "menu"])
@pytest.mark.parametrize("case", REJECTED_SYSTEMS)
def test_ray_system_rejections_name_their_path(case, kind, tmp_path, capsys):
    rays, bases, message = REJECTED_SYSTEMS[case]
    assert rejected_system_message(kind, rays, bases, tmp_path, capsys) == message


@pytest.mark.parametrize("kind", ["ks", "menu"])
@pytest.mark.parametrize("field", ["rays", "bases"])
def test_oversized_systems_exit_2(kind, field, tmp_path, capsys):
    rays = [[1, k, 0, 0] for k in range(4000 if field == "rays" else 4)]
    bases = [[0, 1, 2, 3]] * (4000 if field == "bases" else 1)
    build = ks_scenario if kind == "ks" else menu_scenario
    out = tmp_path / "report.json"
    assert cli.run(kind, write_scenario(tmp_path, build(rays, bases)), out_path=str(out)) == 2
    assert not out.exists()
    message = single_error_record(capsys)["message"]
    assert message.startswith(f"payload.system.{field} holds 4000 ")


def test_menu_rejects_non_orthogonal_tetrads(tmp_path, capsys):
    rays = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
    out = tmp_path / "report.json"
    path = write_scenario(tmp_path, menu_scenario(rays, [[0, 1, 2, 3]]))
    assert cli.run("menu", path, out_path=str(out)) == 2
    assert not out.exists()
    record = single_error_record(capsys)
    assert record["type"] == "validation"
    assert record["message"] == "payload.system: tetrad 0: rays 0 and 1 have dot product 1"


SKEWED_Q = [[[1.0 - 1e-11, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-11, 0.0]]]


@pytest.mark.parametrize(
    "budget, q, utility, message",
    [
        (1e305, None, None, "budget multiplier"),
        (1.7e308, None, None, "budget multiplier"),
        (1e299, SKEWED_Q, None, "beyond floating-point range"),
        (5e297, SKEWED_Q, None, "alternative payout overflowed"),
        # x_2 = (m * 2.5)^(-1000) underflows to 0: a numerical failure, not bad input.
        (1.0, None, {"kind": "power", "p": 0.999}, "beyond floating-point range"),
    ],
    ids=["1e305", "1.7e308", "1e299-skewed", "5e297-skewed", "1-power-0.999"],
)
def test_extreme_budgets_exit_3(budget, q, utility, message, tmp_path, capsys):
    document = json.loads((GOLDEN / "optimize.scenario.json").read_text())
    document["payload"]["budget"] = budget
    if q is not None:
        document["payload"]["kernel"]["q"] = q
    if utility is not None:
        document["payload"]["utility"] = utility
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run("optimize", write_scenario(tmp_path, document), out_path=str(out))
    assert code == 3
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    record = single_error_record(capsys)
    assert record["type"] == "numerical"
    assert message in record["message"]


@pytest.mark.parametrize("theta", [[1e308, 1e308], [1e308, -1e308]], ids=["same-sign", "opposite"])
def test_overflowing_portfolio_payout_exits_3(theta, tmp_path, capsys):
    # The joint payout is nan; it once passed the additivity gate and the
    # report renderer raised outside the error handling, exiting 1.
    document = json.loads((GOLDEN / "portfolio.scenario.json").read_text())
    document["payload"]["theta"] = theta
    out = tmp_path / "report.json"
    assert cli.run("portfolio", write_scenario(tmp_path, document), out_path=str(out)) == 3
    assert not out.exists()
    record = single_error_record(capsys)
    assert record["type"] == "numerical"
    assert record["message"].startswith("additivity violated numerically")


def test_overflowing_basis_exits_2_without_numpy_warnings(tmp_path, capsys):
    # The Gram product of a basis holding 1e308 overflows to inf and nan; the
    # orthonormality gate rejects it, and no RuntimeWarning precedes the record.
    document = price_scenario()
    document["payload"]["claim"]["basis"][0][0] = [1e308, 0.0]
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run("price", write_scenario(tmp_path, document), out_path=str(out))
    assert code == 2
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    record = single_error_record(capsys)
    assert record["type"] == "validation"
    assert record["message"].startswith("payload.claim.basis: basis vectors are not orthonormal")


def test_overlong_integer_literal_exits_2(tmp_path, capsys):
    # json.loads refuses integer literals beyond Python's 4300-digit
    # conversion limit with a plain ValueError, not a JSONDecodeError.
    literal = "1" + "0" * 4999
    path = tmp_path / "scenario.json"
    path.write_text(
        '{"kind": "ks", "payload": {"system": {"rays": [[' + literal + ', 0, 0, 0], '
        '[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "bases": [[0, 1, 2, 3]]}}}',
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    assert cli.run("ks", str(path), out_path=str(out)) == 2
    assert not out.exists()
    record = single_error_record(capsys)
    assert record["type"] == "validation"
    assert record["message"].startswith("scenario is not valid JSON")


def test_integer_beyond_float_range_exits_2(tmp_path, capsys):
    # A 401-digit literal parses as a Python int, but float() of it raises
    # OverflowError; it once escaped run and exited 1.
    document = price_scenario()
    document["payload"]["kernel"]["discount"] = 10**400
    out = tmp_path / "report.json"
    assert cli.run("price", write_scenario(tmp_path, document), out_path=str(out)) == 2
    assert not out.exists()
    record = single_error_record(capsys)
    assert record["type"] == "validation"
    assert record["message"] == (
        "payload.kernel.discount must be finite, got an integer beyond floating-point range"
    )


def _set(path, value):
    """An edit of a golden scenario that sets the value at ``path`` under its payload."""

    def edit(document):
        node = document["payload"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


NOT_HERMITIAN = "HermitianOperator is not Hermitian: max |A - A^dagger| = 5.000e-01"
# 2 x 2 and 3 x 3 diagonal states, as scenario matrices of [re, im] pairs.
STATE_2 = [[[0.5 if i == j else 0.0, 0.0] for j in range(2)] for i in range(2)]
STATE_3 = [[[w if i == j else 0.0, 0.0] for j in range(3)] for i, w in enumerate((0.25, 0.5, 0.25))]
IDENTITY_3 = [[[1.0 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]


def _eight_payout_rows(document):
    del document["payload"]["payouts"][8]


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("portfolio", _set(["dims"], [2]), "payload.dims must be a two-element array"),
        ("menu", _set(["payouts"], 5), "payload.payouts must be an array of per-contract rows"),
        ("price", _set(["p"], []), "payload.p must be a nonempty array of rows"),
        ("price", _set(["p"], [[]]), "payload.p[0] must be a nonempty array"),
        ("price", _set(["claim", "payouts"], 5), "payload.claim.payouts must be an array"),
        (
            "ks",
            _set(["system"], {"rays": [], "bases": [[0, 1, 2, 3]]}),
            "payload.system.rays must be a nonempty array",
        ),
        (
            "ks",
            _set(["system"], {"rays": [[1, 0, 0, 0]], "bases": []}),
            "payload.system.bases must be a nonempty array",
        ),
        # A constructor's rejection, led by the payload path of the input it checked; two
        # inputs checked by the same constructor give two messages.
        ("price", _set(["p", 0, 0], [0.7, 0.0]), "payload.p: state trace must be 1, got 0.9"),
        (
            "price",
            _set(["kernel", "q", 0, 0], [0.4, 0.0]),
            "payload.kernel.q: state trace must be 1, got 0.9",
        ),
        ("portfolio", _set(["U", 0, 1], [0.5, 0.0]), f"payload.U: {NOT_HERMITIAN}"),
        ("portfolio", _set(["V", 0, 1], [0.5, 0.0]), f"payload.V: {NOT_HERMITIAN}"),
        (
            "optimize",
            _set(["utility"], {"kind": "exp"}),
            """payload.utility: utility kind must be "log" or "power", got 'exp'""",
        ),
        (
            "optimize",
            _set(["utility"], {"kind": "power"}),
            "payload.utility: power utility exponent must be a number, got None",
        ),
        # Checks the computation makes after decoding, pairing two inputs, name the one the
        # message is about.
        (
            "portfolio",
            _set(["dims"], [2, 3]),
            "payload.dims: subsystem dimensions 2x3 do not compose to state dimension 4",
        ),
        (
            "portfolio",
            _set(["dims"], [0, 4]),
            f"payload.dims: subsystem dimension must lie in [1, {qclaim.errors.MAX_SIZE}], got 0",
        ),
        (
            "portfolio",
            _set(["kernel", "q"], STATE_3),
            "payload.kernel.q: state dimension 3 does not match joint dimension 4",
        ),
        (
            "portfolio",
            _set(["U"], IDENTITY_3),
            "payload.U: state dimensions (2, 2) differ from observable dimensions (3, 2)",
        ),
        (
            "portfolio",
            _set(["V"], IDENTITY_3),
            "payload.V: state dimensions (2, 2) differ from observable dimensions (2, 3)",
        ),
        ("price", _set(["p"], STATE_3), "payload.p: dimension-2 basis against a dimension-3 state"),
        (
            "optimize",
            _set(["basis"], IDENTITY_3),
            "payload.basis: dimension-3 basis against a dimension-2 state",
        ),
        (
            "returns",
            _set(["basis"], IDENTITY_3),
            "payload.basis: dimension-3 basis against a dimension-2 state",
        ),
        ("menu", _set(["state"], STATE_2), "payload.state: menu state must have dimension 4, got 2"),
        (
            "menu",
            _set(["payouts", 0, 0], -1.0),
            "payload.payouts: contract payouts must be finite and nonnegative",
        ),
        (
            "menu",
            _eight_payout_rows,
            "payload.payouts: payout table shape (8, 4) does not match (9, 4) contracts-by-outcomes",
        ),
        (
            "menu",
            _set(["kernel", "q"], STATE_3),
            "payload.kernel.q: menu kernel must have dimension 4, got 3",
        ),
        (
            "menu",
            _set(["payouts", 0, 0], 0.0),
            "payload.payouts: utility scoring requires strictly positive payouts",
        ),
    ],
    ids=[
        "dims-one-element",
        "menu-payouts-scalar",
        "p-empty",
        "p-empty-row",
        "claim-payouts-scalar",
        "ks-no-rays",
        "ks-no-bases",
        "p-trace",
        "q-trace",
        "U-not-hermitian",
        "V-not-hermitian",
        "utility-kind",
        "power-no-p",
        "dims-do-not-compose",
        "dims-zero",
        "kernel-q-dimension",
        "U-dimension",
        "V-dimension",
        "p-dimension",
        "optimize-basis-dimension",
        "returns-basis-dimension",
        "menu-state-dimension",
        "menu-negative-payout",
        "menu-payout-rows",
        "menu-kernel-dimension",
        "menu-zero-payout-under-utility",
    ],
)
def test_decoder_shape_rejections(kind, edit, message, tmp_path, capsys):
    document = json.loads((GOLDEN / f"{kind}.scenario.json").read_text())
    edit(document)
    out = tmp_path / "report.json"
    assert cli.run(kind, write_scenario(tmp_path, document), out_path=str(out)) == 2
    assert not out.exists()
    record = single_error_record(capsys)
    assert record["exit_code"] == 2 and record["type"] == "validation"
    assert record["message"] == message


# The first library call of each subcommand's computation.
ENTRY_POINTS = {
    "price": ("qclaim.pricing", "price"),
    "calibrate": ("qclaim.pricing", "calibrate"),
    "optimize": ("qclaim.quantum", "basis_marginals"),
    "returns": ("qclaim.quantum", "basis_marginals"),
    "ks": ("qclaim.cli", "structure_diagnostics"),
    "menu": ("qclaim.kochen_specker", "_payout_table"),
    "portfolio": ("qclaim.portfolio", "TwoPartyState"),
}


@pytest.mark.parametrize("kind", cli.SUBCOMMANDS)
def test_whole_payload_is_decoded_before_computing(kind, tmp_path, capsys, monkeypatch):
    # A fault in the last key decoded must stop the run before any computation.
    def computed(*args, **kwargs):
        raise AssertionError(f"{kind} computed before its payload was decoded")

    module, name = ENTRY_POINTS[kind]
    monkeypatch.setattr(importlib.import_module(module), name, computed)
    key = cli._COMMANDS[kind].keys[-1]
    document = json.loads((GOLDEN / f"{kind}.scenario.json").read_text())
    document["payload"][key] = "spoiled"
    out = tmp_path / "report.json"
    assert cli.run(kind, write_scenario(tmp_path, document), out_path=str(out)) == 2
    assert not out.exists()
    record = single_error_record(capsys)
    assert record["type"] == "validation"
    assert f"payload.{key}" in record["message"]


@pytest.mark.parametrize("where", ["document", "payload"])
def test_deeply_nested_json_exits_2(where, tmp_path, capsys):
    # The parser raises RecursionError, not ValueError, on nesting deeper than
    # the interpreter's stack; it once escaped run and exited 1.
    nest = "[" * 100_000 + "]" * 100_000
    text = nest if where == "document" else '{"kind": "price", "payload": {"p": ' + nest + "}}"
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.run("price", str(path), out_path=str(out)) == 2
    assert not out.exists()
    record = single_error_record(capsys)
    assert record["type"] == "validation"
    assert record["message"].startswith("scenario is not valid JSON")


# -- the CLI contract under document fuzzing: every run exits 0, 2 or 3, a
# failed run writes no report and one error record, and a re-run repeats it.

EXTREMES = [
    1e308, -1e308, 5e-324, -5e-324, 2**63, 10**30, 10**400, -(10**400), True, None, "x", [], {}
]
MUTANTS_PER_GOLDEN = 60


def _paths(node, path=()):
    """(path, node) for every value in a JSON document, outermost first."""
    yield path, node
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(document, path):
    for key in path:
        document = document[key]
    return document


def _mutants(kind: str, rng: random.Random):
    """(label, scenario text) pairs: extreme leaves, dropped and unknown keys, deep nesting."""
    golden = (GOLDEN / f"{kind}.scenario.json").read_text(encoding="utf-8")
    nodes = list(_paths(json.loads(golden)))
    leaves = [path for path, node in nodes if path and not (isinstance(node, (dict, list)) and node)]
    objects = [path for path, node in nodes if isinstance(node, dict)]
    for _ in range(MUTANTS_PER_GOLDEN):
        document = json.loads(golden)
        style = rng.choice(["extreme", "extreme", "drop", "unknown", "deep"])
        if style == "extreme":
            picked = rng.sample(leaves, rng.randint(1, min(3, len(leaves))))
            changes = [(path, rng.choice(EXTREMES)) for path in picked]
            for path, value in changes:
                _at(document, path[:-1])[path[-1]] = value
            label = f"extreme {changes}"
        elif style == "drop":
            path = rng.choice([path for path in objects if _at(document, path)])
            key = rng.choice(sorted(_at(document, path)))
            del _at(document, path)[key]
            label = f"drop {path + (key,)}"
        elif style == "unknown":
            path = rng.choice(objects)
            _at(document, path)["unexpected"] = 1
            label = f"unknown key in {path}"
        else:
            path, depth = rng.choice(leaves), rng.choice([50, 500, 100_000])
            _at(document, path[:-1])[path[-1]] = "NEST"
            label = f"nesting {depth} deep at {path}"
        text = json.dumps(document)
        if style == "deep":
            text = text.replace('"NEST"', "[" * depth + "]" * depth)
        yield label, text
    if kind == "portfolio":
        for theta in ([1e308, 1e308], [1e308, -1e308], [-1e308, 1e308], [-1e308, -1e308]):
            document = json.loads(golden)
            document["payload"]["theta"] = theta
            yield f"theta {theta}", json.dumps(document)


def _outcome(kind, text, tmp_path, capsys):
    """Exit code, report bytes (None if absent), stdout, stderr and any warning of one run."""
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run(kind, str(path), out_path=str(out))
    captured = capsys.readouterr()
    report = out.read_bytes() if out.exists() else None
    return code, report, captured.out, captured.err, [str(w.message) for w in caught]


@pytest.mark.parametrize("kind", cli.SUBCOMMANDS)
def test_cli_contract_under_fuzz(kind, tmp_path, capsys):
    rng = random.Random(f"fuzz-{kind}")
    for label, text in _mutants(kind, rng):
        outcome = _outcome(kind, text, tmp_path, capsys)
        code, report, out, err, caught = outcome
        assert code in (0, 2, 3), label
        assert out == "" and caught == [], label
        if code == 0:
            assert report is not None, label
        else:
            assert report is None, label
            lines = err.splitlines()
            assert len(lines) == 1, label
            assert json.loads(lines[0])["error"]["exit_code"] == code, label
        assert _outcome(kind, text, tmp_path, capsys) == outcome, label
