import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

import qclaim as qc
from qclaim.serialization import (
    basis_from_json,
    claim_from_json,
    density_from_json,
    hermitian_from_json,
    int_from_json,
    kernel_from_json,
    kernel_to_json,
    ks_system_from_json,
    matrix_from_json,
    matrix_to_json,
    quotes_from_json,
    real_from_json,
    render_json,
    require_keys,
    utility_from_json,
)
from qclaim.cli import SUBCOMMANDS
from qclaim.serialization import _complex_rows_from_json, _complex_rows_walk
from test_cli import GOLDEN, _at, _mutants, _paths


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
    basis_obj = [[[s, 0.0], [0.0, s]], [[s, 0.0], [0.0, -s]]]
    claim = claim_from_json({"basis": basis_obj, "payouts": [2.0, 0.5]}, "claim")
    assert np.array_equal(claim.basis.vectors, qc.MeasurementBasis([[s, 1j * s], [s, -1j * s]]).vectors)
    assert np.array_equal(claim.payouts, [2.0, 0.5])
    assert np.array_equal(basis_from_json(basis_obj, "b").vectors, claim.basis.vectors)
    with pytest.raises(qc.ValidationError):
        claim_from_json({"basis": basis_obj}, "claim")
    with pytest.raises(qc.ValidationError):
        claim_from_json({"basis": basis_obj, "payouts": [1.0, 1.0], "x": 0}, "claim")


def test_kernel_round_trip():
    kernel = qc.PricingKernel(0.9, qc.DensityMatrix(np.eye(2) / 2.0))
    again = kernel_from_json(kernel_to_json(kernel), "kernel")
    assert again.discount == 0.9
    assert np.array_equal(again.q.entries, kernel.q.entries)


def test_quotes_decoding():
    claim_obj = {"basis": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "payouts": [1.0, 0.0]}
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
    # ``UtilityFunction`` owns the kind and exponent rules; the decoder names the input.
    rejected = {
        "u: log utility takes no exponent": {"kind": "log", "p": 2.0},
        "u: power utility exponent must be a number, got None": {"kind": "power"},
        """u: utility kind must be "log" or "power", got 'sqrt'""": {"kind": "sqrt"},
        "u.p must be a number, got 'x'": {"kind": "power", "p": "x"},
    }
    for message, obj in rejected.items():
        with pytest.raises(qc.ValidationError) as caught:
            utility_from_json(obj, "u")
        assert str(caught.value) == message


# Cabello's 18 rays and 9 tetrads, as ``cabello_system`` builds them.
CABELLO_JSON = {
    "rays": [
        [0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 1, 0], [1, 0, -1, 0], [0, 0, 1, 0], [1, 0, 0, 1],
        [1, 0, 0, -1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1],
        [0, 1, 0, -1], [0, 1, -1, 0], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 0, 0], [-1, 1, 1, 1],
    ],
    "bases": [
        [0, 1, 2, 3], [4, 1, 5, 6], [7, 8, 9, 10], [7, 11, 3, 12], [8, 11, 6, 13],
        [14, 15, 16, 10], [14, 17, 2, 12], [15, 17, 5, 13], [0, 4, 9, 16],
    ],
}


def test_ks_system_round_trip():
    system = qc.cabello_system()
    decoded = ks_system_from_json(CABELLO_JSON, "system")
    assert decoded.rays[9].components == (1, 1, 0, 0)
    assert [r.components for r in decoded.rays] == [r.components for r in system.rays]
    assert [b.ray_ids for b in decoded.bases] == [b.ray_ids for b in system.bases]
    with pytest.raises(qc.ValidationError):
        ks_system_from_json({"rays": CABELLO_JSON["rays"]}, "system")
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
    with pytest.raises(qc.NumericalError):
        render_json(float("inf"))


def test_render_json_accepts_numpy_values():
    text = render_json({"v": np.array([1.0, 0.5]), "n": np.int64(3), "f": np.True_})
    assert text == '{"f":true,"n":3,"v":[1,0.5]}'


def test_render_json_rejects_non_string_keys():
    with pytest.raises(qc.ValidationError):
        render_json({1: "x"})


# ------------------------------------------------ references for the walkers

GOLDEN = Path(__file__).parent / "golden"


def reference_render_json(value):
    """Report rendering by one isinstance test per value."""
    pieces = []

    def walk(value):
        if isinstance(value, (bool, np.bool_)):
            pieces.append("true" if value else "false")
        elif isinstance(value, (int, np.integer)):
            pieces.append(str(int(value)))
        elif isinstance(value, (float, np.floating)):
            value = float(value)
            if not math.isfinite(value):
                raise qc.NumericalError(f"reports may not contain non-finite numbers, got {value!r}")
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
            pieces.append("{")
            for i, (key, item) in enumerate(items):
                pieces.append(json.dumps(key) + ":")
                walk(item)
                if i + 1 < len(items):
                    pieces.append(",")
            pieces.append("}")
        elif isinstance(value, (list, tuple, np.ndarray)):
            items = list(value)
            pieces.append("[")
            for i, item in enumerate(items):
                walk(item)
                if i + 1 < len(items):
                    pieces.append(",")
            pieces.append("]")
        else:
            raise qc.ValidationError(f"cannot serialize {type(value).__name__} into a report")

    walk(value)
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


def test_render_matches_the_isinstance_reference():
    for path in sorted(GOLDEN.glob("*.report.json")):
        report = json.loads(path.read_text())
        assert render_json(report) == reference_render_json(report)
        assert render_json(report) + "\n" == path.read_text()
    rng = np.random.default_rng(7)
    for _ in range(400):
        value = random_report_value(rng)
        assert render_json(value) == reference_render_json(value)
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
    with pytest.raises((qc.ValidationError, qc.NumericalError, TypeError)) as expected:
        reference_render_json(value)
    with pytest.raises(expected.type) as caught:
        render_json(value)
    assert str(caught.value) == str(expected.value)


def _led_by(what, construct, *args):
    try:
        return construct(*args)
    except qc.ValidationError as exc:
        raise qc.ValidationError(f"{what}: {exc}") from None


def reference_ks_system_from_json(obj, what):
    """The system decoder that builds a path string for every entry.

    A ray, tetrad or system the library rejects is named by its path.
    """
    record = require_keys(obj, what, required=("rays", "bases"))
    raw_rays = record["rays"]
    if not isinstance(raw_rays, list) or not raw_rays:
        raise qc.ValidationError(f"{what}.rays must be a nonempty array")
    rays = []
    for i, comps in enumerate(raw_rays):
        if not isinstance(comps, list) or len(comps) != 4:
            raise qc.ValidationError(f"{what}.rays[{i}] must be an array of 4 integers")
        components = tuple(int_from_json(c, f"{what}.rays[{i}][{k}]") for k, c in enumerate(comps))
        rays.append(_led_by(f"{what}.rays[{i}]", qc.KSRay, i, components))
    raw_bases = record["bases"]
    if not isinstance(raw_bases, list) or not raw_bases:
        raise qc.ValidationError(f"{what}.bases must be a nonempty array")
    bases = []
    for b, ids in enumerate(raw_bases):
        if not isinstance(ids, list) or len(ids) != 4:
            raise qc.ValidationError(f"{what}.bases[{b}] must be an array of 4 ray ids")
        ray_ids = tuple(int_from_json(i, f"{what}.bases[{b}][{k}]") for k, i in enumerate(ids))
        bases.append(_led_by(f"{what}.bases[{b}]", qc.KSBasis, ray_ids))
    return _led_by(what, qc.KSSystem, rays, bases)


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
            # The path without indices, then the first word of a rule's own message.
            path, _, rule = str(exc).partition(": ")
            outcomes.add(" ".join([path.split(" ")[0].split("[")[0], *rule.split()[:1]]))
            continue
        system = ks_system_from_json(document, "payload.system")
        assert [(r.ray_id, r.components) for r in system.rays] == [
            (r.ray_id, r.components) for r in expected.rays
        ]
        assert [b.ray_ids for b in system.bases] == [b.ray_ids for b in expected.bases]
        outcomes.add("decoded")
    assert {
        "decoded",
        "payload.system.rays",  # a row or entry the decoder rejects itself
        "payload.system.bases",
        "payload.system.rays ray",  # a ray, a tetrad and the system the library rejects
        "payload.system.bases tetrad",
        "payload.system rays",
        "payload.system tetrad",
    } <= outcomes


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


# -- the array-speed matrix decoder against the per-entry walk it falls back to.


def assert_decodes_like_the_walk(obj) -> str:
    """Both matrix decoders give the same bytes, or the same ValidationError message."""
    try:
        expected = _complex_rows_walk(obj, "m")
    except qc.ValidationError as exc:
        with pytest.raises(qc.ValidationError) as caught:
            _complex_rows_from_json(obj, "m")
        assert str(caught.value) == str(exc)
        return "rejected"
    decoded = _complex_rows_from_json(obj, "m")
    assert (decoded.dtype, decoded.shape) == (expected.dtype, expected.shape)
    assert decoded.tobytes() == expected.tobytes()  # the sign of every zero included
    return "decoded"


def with_component(value, part=0):
    """A 2x2 matrix whose off-diagonal entry [0][1] has ``value`` as component ``part``."""
    matrix = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    matrix[0][1][part] = value
    return matrix


def golden_matrices():
    """(kind, path, node) for every value of a golden scenario that the walk decodes as a matrix."""
    found = []
    for kind in SUBCOMMANDS:
        document = json.loads((GOLDEN / f"{kind}.scenario.json").read_text(encoding="utf-8"))
        for path, node in _paths(document):
            try:
                _complex_rows_walk(node, "m")
            except qc.ValidationError:
                continue
            found.append((kind, path, node))
    return found


GOLDEN_MATRICES = golden_matrices()


MATRIX_CASES = {
    "negative-zeros": [[[-0.0, -0.0], [0.0, -0.0]], [[-0.0, 0.0], [-0.0, -0.0]]],
    "2**53+1": with_component(2**53 + 1),
    "-(2**53)-1": with_component(-(2**53) - 1, part=1),
    "2**63": with_component(2**63),
    "2**64+1": with_component(2**64 + 1),
    "-(2**63)-1": with_component(-(2**63) - 1),
    "10**30": with_component(10**30),
    "largest-int-float": with_component(int(1.7976931348623157e308)),
    "int-rounding-to-2**1024": with_component(2**1024 - 2**970),
    "10**400": with_component(10**400),
    "-(10**400)-imag": with_component(-(10**400), part=1),
    "true": with_component(True),
    "false-imag": with_component(False, part=1),
    "null": with_component(None),
    "string": with_component("1.5"),
    "object": with_component({}),
    "NaN": with_component(json.loads("NaN")),
    "Infinity": with_component(json.loads("Infinity")),
    "-Infinity-imag": with_component(json.loads("-Infinity"), part=1),
    "ragged": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]],
    "empty-row": [[[1.0, 0.0]], []],
    "three-element-entry": [[[1.0, 0.0, 0.0]]],
    "one-element-entry": [[[1.0]]],
    "nested-4-deep": [[[[1.0, 0.0], [0.0, 0.0]]]],
    "scalar-entry": [[1.0, 0.0]],
    "row-not-array": [[[1.0, 0.0]], 2.0],
    "empty": [],
    "empty-inner": [[]],
    "empty-entry": [[[]]],
    "not-an-array": {"re": 1.0},
    "non-square": [[[1.0, 0.0], [0.0, 0.0]]],
}


@pytest.mark.parametrize("obj", MATRIX_CASES.values(), ids=MATRIX_CASES.keys())
def test_matrix_decoding_matches_the_walk(obj):
    assert_decodes_like_the_walk(obj)


def test_golden_matrices_decode_like_the_walk():
    assert len(GOLDEN_MATRICES) == 19
    for _, _, node in GOLDEN_MATRICES:
        assert assert_decodes_like_the_walk(node) == "decoded"


@pytest.mark.parametrize("kind", sorted({kind for kind, _, _ in GOLDEN_MATRICES}))
def test_fuzzed_golden_matrices_decode_like_the_walk(kind):
    # The CLI fuzz mutants of each golden scenario, compared at every golden matrix path.
    paths = [path for golden_kind, path, _ in GOLDEN_MATRICES if golden_kind == kind]
    outcomes = set()
    for _, text in _mutants(kind, random.Random(f"matrix-fuzz-{kind}")):
        try:
            document = json.loads(text)
        except RecursionError:  # nesting deeper than the parser's stack
            continue
        for path in paths:
            try:
                node = _at(document, path)
            except (KeyError, IndexError, TypeError):  # a key on the path was dropped
                continue
            outcomes.add(assert_decodes_like_the_walk(node))
    assert outcomes == {"decoded", "rejected"}
