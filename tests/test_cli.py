import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qclaim.cli as cli

GOLDEN = Path(__file__).parent / "golden"


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


def test_pretty_output_parses_to_same_report(tmp_path, capsys):
    path = write_scenario(tmp_path, price_scenario())
    assert cli.run("price", path) == 0
    compact = json.loads(capsys.readouterr().out)
    assert cli.run("price", path, pretty=True) == 0
    pretty_text = capsys.readouterr().out
    assert "\n  " in pretty_text
    assert json.loads(pretty_text) == compact


def test_seed_precedence(tmp_path, capsys):
    path = write_scenario(tmp_path, price_scenario(seed=11))
    assert cli.run("price", path) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 11
    assert cli.run("price", path, seed=42) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 42


def test_seed_bounds(tmp_path, capsys):
    path = write_scenario(tmp_path, price_scenario())
    assert cli.run("price", path, seed=-1) == 2
    assert cli.run("price", path, seed=2**64) == 2
    assert cli.run("price", path, seed=2**64 - 1) == 0


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
    assert results["structure_ok"] is False  # incidence is 1, not 2


def test_tolerance_scale_env(tmp_path, capsys, monkeypatch):
    document = price_scenario()
    document["payload"]["p"][0][0][0] = 0.8005  # trace off by 5e-4
    path = write_scenario(tmp_path, document)
    assert cli.run("price", path) == 2
    capsys.readouterr()
    monkeypatch.setenv("QCLAIM_TOL_SCALE", "1e6")
    assert cli.run("price", path) == 0
    monkeypatch.setenv("QCLAIM_TOL_SCALE", "banana")
    assert cli.run("price", path) == 2


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
            "--seed",
            "5",
            "--pretty",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 5
    assert report["results"]["price"] == 0.95
    assert proc.stdout == ""
    assert "price" in proc.stderr


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

    monkeypatch.setattr(cli, "verify_optimality", no_draws)
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


@pytest.mark.parametrize(
    "kind, component",
    [("ks", 10**400), ("menu", 10**400), ("menu", 3037000500), ("ks", 2**20 + 1)],
    ids=["ks-10**400", "menu-10**400", "menu-3037000500", "ks-2**20+1"],
)
def test_oversized_ray_components_exit_2(kind, component, tmp_path, capsys):
    rays = [[component, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    build = ks_scenario if kind == "ks" else menu_scenario
    out = tmp_path / "report.json"
    assert cli.run(kind, write_scenario(tmp_path, build(rays, [[0, 1, 2, 3]])), out_path=str(out)) == 2
    assert not out.exists()
    record = single_error_record(capsys)
    assert record["exit_code"] == 2 and record["type"] == "validation"
    assert record["message"] == "ray 0 has a component beyond the bound |c| <= 2**20"


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
    assert record["message"] == "tetrad 0: rays 0 and 1 have dot product 1"
