import json
import math
from pathlib import Path

import numpy as np
import pytest

import qclaim as qc
from qclaim.serialization import (
    basis_from_json,
    basis_to_json,
    claim_from_json,
    claim_to_json,
    density_from_json,
    hermitian_from_json,
    int_from_json,
    kernel_from_json,
    kernel_to_json,
    ks_system_from_json,
    ks_system_to_json,
    matrix_from_json,
    matrix_to_json,
    quotes_from_json,
    real_from_json,
    render_json,
    require_keys,
    utility_from_json,
)


def test_require_keys_is_strict():
    record = require_keys({"a": 1, "b": 2}, "thing", required=("a",), optional=("b",))
    assert record == {"a": 1, "b": 2}
    with pytest.raises(qc.ValidationError, match="missing"):
        require_keys({"b": 2}, "thing", required=("a",))
    with pytest.raises(qc.ValidationError, match="unknown"):
        require_keys({"a": 1, "extra": 2}, "thing", required=("a",))
    with pytest.raises(qc.ValidationError):
        require_keys([1, 2], "thing")


def test_scalar_decoding_rejects_disguises():
    assert real_from_json(2, "x") == 2.0
    assert int_from_json(-3, "k") == -3
    with pytest.raises(qc.ValidationError):
        real_from_json(True, "x")
    with pytest.raises(qc.ValidationError):
        real_from_json("1.5", "x")
    with pytest.raises(qc.ValidationError):
        int_from_json(1.0, "k")
    with pytest.raises(qc.ValidationError):
        real_from_json(float("nan"), "x")


def test_matrix_round_trip():
    mat = np.array([[0.5, 0.25 - 0.1j], [0.25 + 0.1j, 0.5]])
    again = matrix_from_json(matrix_to_json(mat), "m")
    assert np.array_equal(again, mat)
    with pytest.raises(qc.ValidationError, match="square"):
        matrix_from_json([[[1.0, 0.0], [0.0, 0.0]]], "m")
    with pytest.raises(qc.ValidationError):
        matrix_from_json([[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "m")
    with pytest.raises(qc.ValidationError):
        matrix_from_json([[[1.0], [0.0]]], "m")


def test_state_and_operator_decoding():
    entries = [[[0.5, 0.0], [0.0, -0.75]], [[0.0, 0.75], [0.5, 0.0]]]
    op = hermitian_from_json(entries, "op")
    assert op.entries[0, 1] == -0.75j
    with pytest.raises(qc.ValidationError):
        density_from_json(entries, "state")


def test_basis_and_claim_round_trip():
    s = 2.0**-0.5
    basis = qc.MeasurementBasis([[s, 1j * s], [s, -1j * s]])
    claim = qc.FinancialClaim(basis, [2.0, 0.5])
    again = claim_from_json(claim_to_json(claim), "claim")
    assert np.allclose(again.basis.vectors, basis.vectors)
    assert np.array_equal(again.payouts, claim.payouts)
    assert np.allclose(basis_from_json(basis_to_json(basis), "b").vectors, basis.vectors)
    with pytest.raises(qc.ValidationError):
        claim_from_json({"basis": basis_to_json(basis)}, "claim")
    with pytest.raises(qc.ValidationError):
        claim_from_json({"basis": basis_to_json(basis), "payouts": [1.0, 1.0], "x": 0}, "claim")


def test_kernel_round_trip():
    kernel = qc.PricingKernel(0.9, qc.DensityMatrix(np.eye(2) / 2.0))
    again = kernel_from_json(kernel_to_json(kernel), "kernel")
    assert again.discount == 0.9
    assert np.array_equal(again.q.entries, kernel.q.entries)


def test_quotes_decoding():
    basis = qc.standard_basis(2)
    claim_obj = claim_to_json(qc.arrow_debreu(basis, 0))
    quotes = quotes_from_json(
        [{"claim": claim_obj, "price": 0.4}, {"claim": claim_obj, "price": 0.5, "id": "a"}],
        "quotes",
    )
    assert len(quotes) == 2 and quotes[1][1] == 0.5
    with pytest.raises(qc.ValidationError):
        quotes_from_json([{"price": 0.4}], "quotes")
    with pytest.raises(qc.ValidationError):
        quotes_from_json({"claim": claim_obj, "price": 0.4}, "quotes")


def test_utility_decoding():
    assert utility_from_json({"kind": "log"}, "u").kind == "log"
    power = utility_from_json({"kind": "power", "p": 0.5}, "u")
    assert power.exponent == 0.5
    with pytest.raises(qc.ValidationError):
        utility_from_json({"kind": "log", "p": 2.0}, "u")
    with pytest.raises(qc.ValidationError):
        utility_from_json({"kind": "power"}, "u")
    with pytest.raises(qc.ValidationError):
        utility_from_json({"kind": "sqrt"}, "u")


def test_ks_system_round_trip():
    system = qc.cabello_system()
    blob = ks_system_to_json(system)
    assert blob["rays"][9] == [1, 1, 0, 0]
    again = ks_system_from_json(blob, "system")
    assert [r.components for r in again.rays] == [r.components for r in system.rays]
    assert [b.ray_ids for b in again.bases] == [b.ray_ids for b in system.bases]
    with pytest.raises(qc.ValidationError):
        ks_system_from_json({"rays": blob["rays"]}, "system")
    with pytest.raises(qc.ValidationError):
        ks_system_from_json({"rays": [[1, 0, 0, 0]], "bases": [[0, 0, 0, 0]]}, "system")


def test_render_json_is_deterministic():
    left = render_json({"b": 1, "a": [True, None, 0.95]})
    right = render_json({"a": [True, None, 0.95], "b": 1})
    assert left == right
    assert left == '{"a":[true,null,0.94999999999999996],"b":1}'


def test_render_json_17_digit_floats():
    assert render_json(0.1) == "0.10000000000000001"
    assert render_json(1.0) == "1"
    assert render_json(-2.5e-11) == "-2.5000000000000001e-11"
    with pytest.raises(qc.ValidationError):
        render_json(float("inf"))


def test_render_json_accepts_numpy_values():
    text = render_json({"v": np.array([1.0, 0.5]), "n": np.int64(3), "f": np.True_})
    assert text == '{"f":true,"n":3,"v":[1,0.5]}'


def test_render_json_pretty_parses_back():
    value = {"results": {"x": [1.5, 2.5]}, "ok": True}
    compact = render_json(value)
    pretty = render_json(value, pretty=True)
    assert json.loads(compact) == json.loads(pretty)
    assert "\n" in pretty and pretty.startswith("{\n")


def test_render_json_rejects_non_string_keys():
    with pytest.raises(qc.ValidationError):
        render_json({1: "x"})


# ------------------------------------------------ references for the walkers

GOLDEN = Path(__file__).parent / "golden"


def reference_render_json(value, pretty=False):
    """Report rendering by one isinstance test per value."""
    pieces = []

    def walk(value, indent):
        pad = "  " * indent
        child_pad = "  " * (indent + 1)
        if isinstance(value, (bool, np.bool_)):
            pieces.append("true" if value else "false")
        elif isinstance(value, (int, np.integer)):
            pieces.append(str(int(value)))
        elif isinstance(value, (float, np.floating)):
            value = float(value)
            if not math.isfinite(value):
                raise qc.ValidationError(f"reports may not contain non-finite numbers, got {value!r}")
            pieces.append(format(value, ".17g"))
        elif isinstance(value, str):
            pieces.append(json.dumps(value))
        elif value is None:
            pieces.append("null")
        elif isinstance(value, dict):
            items = sorted(value.items())
            for key, _ in items:
                if not isinstance(key, str):
                    raise qc.ValidationError(f"report keys must be strings, got {key!r}")
            if not items:
                pieces.append("{}")
                return
            pieces.append("{")
            for i, (key, item) in enumerate(items):
                if pretty:
                    pieces.append("\n" + child_pad)
                pieces.append(json.dumps(key) + (": " if pretty else ":"))
                walk(item, indent + 1)
                if i + 1 < len(items):
                    pieces.append(",")
            if pretty:
                pieces.append("\n" + pad)
            pieces.append("}")
        elif isinstance(value, (list, tuple, np.ndarray)):
            items = list(value)
            if not items:
                pieces.append("[]")
                return
            pieces.append("[")
            for i, item in enumerate(items):
                if pretty:
                    pieces.append("\n" + child_pad)
                walk(item, indent + 1)
                if i + 1 < len(items):
                    pieces.append(",")
            if pretty:
                pieces.append("\n" + pad)
            pieces.append("]")
        else:
            raise qc.ValidationError(f"cannot serialize {type(value).__name__} into a report")

    walk(value, 0)
    return "".join(pieces)


def random_report_value(rng, depth=0):
    """Nested report values mixing builtins, numpy scalars and arrays, tuples and empties."""
    leaves = (
        lambda: float(rng.normal() * 10.0 ** int(rng.integers(-20, 20))),
        lambda: int(rng.integers(-(10**6), 10**6)),
        lambda: bool(rng.random() < 0.5),
        lambda: None,
        lambda: "sé\"\\\n" * int(rng.integers(0, 3)),
        lambda: np.float64(rng.normal()),
        lambda: np.float32(rng.normal()),
        lambda: np.int64(rng.integers(-50, 50)),
        lambda: np.bool_(rng.random() < 0.5),
        lambda: rng.normal(size=int(rng.integers(0, 4))),
        lambda: rng.integers(0, 9, size=(2, int(rng.integers(0, 3)))),
    )
    pick = int(rng.integers(0, len(leaves) + (4 if depth < 4 else 0)))
    if pick < len(leaves):
        return leaves[pick]()
    size = int(rng.integers(0, 5))
    items = [random_report_value(rng, depth + 1) for _ in range(size)]
    if pick == len(leaves):
        return {f"k{int(rng.integers(0, 50))}": item for item in items}
    if pick == len(leaves) + 1:
        return tuple(items)
    return items


@pytest.mark.parametrize("pretty", [False, True])
def test_render_matches_the_isinstance_reference(pretty):
    for path in sorted(GOLDEN.glob("*.report.json")):
        report = json.loads(path.read_text())
        assert render_json(report, pretty=pretty) == reference_render_json(report, pretty=pretty)
        if not pretty:
            assert render_json(report) + "\n" == path.read_text()
    rng = np.random.default_rng(7)
    for _ in range(400):
        value = random_report_value(rng)
        assert render_json(value, pretty=pretty) == reference_render_json(value, pretty=pretty)
    assert render_json([True, 1, np.True_, np.int8(1), 1.0]) == "[true,1,true,1,1]"


@pytest.mark.parametrize(
    "value",
    [
        {"a": [1.0, float("nan")]},
        (np.float64("inf"),),
        {"a": {2: "x"}},
        [np.float32("-inf")],
        {"a": {1, 2}},
        np.array(1.5),
    ],
)
def test_render_rejections_match_the_reference(value):
    with pytest.raises((qc.ValidationError, TypeError)) as expected:
        reference_render_json(value)
    with pytest.raises(expected.type) as caught:
        render_json(value)
    assert str(caught.value) == str(expected.value)


def reference_ks_system_from_json(obj, what):
    """The system decoder that builds a path string for every entry."""
    record = require_keys(obj, what, required=("rays", "bases"))
    raw_rays = record["rays"]
    if not isinstance(raw_rays, list) or not raw_rays:
        raise qc.ValidationError(f"{what}.rays must be a nonempty array")
    rays = []
    for i, comps in enumerate(raw_rays):
        if not isinstance(comps, list) or len(comps) != 4:
            raise qc.ValidationError(f"{what}.rays[{i}] must be an array of 4 integers")
        rays.append(
            qc.KSRay(i, tuple(int_from_json(c, f"{what}.rays[{i}][{k}]") for k, c in enumerate(comps)))
        )
    raw_bases = record["bases"]
    if not isinstance(raw_bases, list) or not raw_bases:
        raise qc.ValidationError(f"{what}.bases must be a nonempty array")
    bases = []
    for b, ids in enumerate(raw_bases):
        if not isinstance(ids, list) or len(ids) != 4:
            raise qc.ValidationError(f"{what}.bases[{b}] must be an array of 4 ray ids")
        bases.append(
            qc.KSBasis(tuple(int_from_json(i, f"{what}.bases[{b}][{k}]") for k, i in enumerate(ids)))
        )
    return qc.KSSystem(rays, bases)


def test_ks_decoding_matches_the_per_entry_reference():
    rng = np.random.default_rng(13)
    spoilers = [True, 1.0, "1", None, [1], -3, 2**21, 0]
    outcomes = set()
    for _ in range(1000):
        rays = [[int(c) for c in rng.integers(-2, 3, size=4)] for _ in range(int(rng.integers(1, 8)))]
        bases = [[int(i) for i in rng.permutation(len(rays) + 2)[:4]] for _ in range(int(rng.integers(1, 4)))]
        for _ in range(int(rng.integers(0, 3))):
            rows = rays if rng.random() < 0.5 else bases
            row = rows[int(rng.integers(len(rows)))]
            if rng.random() < 0.15:
                row.pop()
            elif row:
                row[int(rng.integers(len(row)))] = spoilers[int(rng.integers(len(spoilers)))]
        document = {"rays": rays, "bases": bases}
        try:
            expected = reference_ks_system_from_json(document, "payload.system")
        except qc.ValidationError as exc:
            with pytest.raises(qc.ValidationError) as caught:
                ks_system_from_json(document, "payload.system")
            assert str(caught.value) == str(exc)
            outcomes.add(str(exc).split(" ")[0].split("[")[0])
            continue
        system = ks_system_from_json(document, "payload.system")
        assert [(r.ray_id, r.components) for r in system.rays] == [
            (r.ray_id, r.components) for r in expected.rays
        ]
        assert [b.ray_ids for b in system.bases] == [b.ray_ids for b in expected.bases]
        outcomes.add("decoded")
    assert {"decoded", "payload.system.rays", "payload.system.bases", "ray", "tetrad", "rays"} <= outcomes


@pytest.mark.parametrize("field", ["rays", "bases"])
def test_ks_system_counts_are_bounded(field):
    document = {
        "rays": [[1, k, 0, 0] for k in range(1024)],
        "bases": [[0, 1, 2, 3]] * 1024,
    }
    assert len(ks_system_from_json(document, "system").rays) == 1024
    document[field] = document[field] + document[field][:1]
    with pytest.raises(qc.ValidationError, match=f"^system.{field} holds 1025 "):
        ks_system_from_json(document, "system")
