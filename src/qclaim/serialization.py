"""JSON wire formats shared by the scenario files and the report emitter.

Complex scalars travel as two-element [re, im] arrays, matrices as arrays
of rows, bases as arrays of vectors.  Decoding is strict: wrong shapes,
unknown keys and non-finite numbers are rejected with the offending path
in the message.  Report rendering fixes every float at 17 significant
digits so identical inputs reproduce identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import ValidationError
from .investment import UtilityFunction
from .kochen_specker import KSBasis, KSRay, KSSystem
from .pricing import FinancialClaim, PricingKernel
from .quantum import DensityMatrix, HermitianOperator, MeasurementBasis
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "require_keys",
    "real_from_json",
    "int_from_json",
    "matrix_from_json",
    "matrix_to_json",
    "basis_from_json",
    "basis_to_json",
    "hermitian_from_json",
    "density_from_json",
    "claim_from_json",
    "claim_to_json",
    "kernel_from_json",
    "kernel_to_json",
    "quotes_from_json",
    "utility_from_json",
    "ks_system_from_json",
    "ks_system_to_json",
    "render_json",
]

# Bounds on a decoded Kochen-Specker system, checked before any row is read.
_MAX_KS_RAYS = 1024
_MAX_KS_TETRADS = 1024


def require_keys(obj: Any, what: str, required=(), optional=()) -> dict:
    """Assert ``obj`` is a JSON object with exactly the expected keys."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValidationError(f"{what} is missing required keys: {', '.join(missing)}")
    allowed = set(required) | set(optional)
    unknown = [k for k in obj if k not in allowed]
    if unknown:
        raise ValidationError(f"{what} has unknown keys: {', '.join(sorted(unknown))}")
    return obj


def real_from_json(obj: Any, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{what} must be a number, got {obj!r}")
    value = float(obj)
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {obj!r}")
    return value


def int_from_json(obj: Any, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError(f"{what} must be an integer, got {obj!r}")
    return obj


def _complex_from_json(obj: Any, what: str) -> complex:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValidationError(f"{what} must be a two-element [re, im] array, got {obj!r}")
    return complex(real_from_json(obj[0], f"{what}[0]"), real_from_json(obj[1], f"{what}[1]"))


def _complex_rows_from_json(obj: Any, what: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{what} must be a nonempty array of rows")
    width = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ValidationError(f"{what}[{i}] must be a nonempty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"{what}[{i}] has length {len(row)}, expected {width}")
        rows.append([_complex_from_json(entry, f"{what}[{i}][{j}]") for j, entry in enumerate(row)])
    return np.array(rows, dtype=complex)


def matrix_from_json(obj: Any, what: str) -> np.ndarray:
    arr = _complex_rows_from_json(obj, what)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {arr.shape}")
    return arr


def matrix_to_json(matrix: np.ndarray) -> list:
    arr = np.asarray(matrix, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def hermitian_from_json(obj: Any, what: str, *, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    return HermitianOperator(matrix_from_json(obj, what), tol=tol)


def density_from_json(obj: Any, what: str, *, tol: Tolerances = DEFAULT_TOLERANCES) -> DensityMatrix:
    return DensityMatrix(matrix_from_json(obj, what), tol=tol)


def basis_from_json(obj: Any, what: str, *, tol: Tolerances = DEFAULT_TOLERANCES) -> MeasurementBasis:
    return MeasurementBasis(_complex_rows_from_json(obj, what), tol=tol)


def basis_to_json(basis: MeasurementBasis) -> list:
    return matrix_to_json(basis.vectors)


def claim_from_json(obj: Any, what: str, *, tol: Tolerances = DEFAULT_TOLERANCES) -> FinancialClaim:
    record = require_keys(obj, what, required=("basis", "payouts"))
    basis = basis_from_json(record["basis"], f"{what}.basis", tol=tol)
    payouts = record["payouts"]
    if not isinstance(payouts, list):
        raise ValidationError(f"{what}.payouts must be an array")
    values = [real_from_json(x, f"{what}.payouts[{j}]") for j, x in enumerate(payouts)]
    return FinancialClaim(basis, values, tol=tol)


def claim_to_json(claim: FinancialClaim) -> dict:
    return {
        "basis": basis_to_json(claim.basis),
        "payouts": [float(x) for x in claim.payouts],
    }


def kernel_from_json(obj: Any, what: str, *, tol: Tolerances = DEFAULT_TOLERANCES) -> PricingKernel:
    record = require_keys(obj, what, required=("discount", "q"))
    discount = real_from_json(record["discount"], f"{what}.discount")
    q = density_from_json(record["q"], f"{what}.q", tol=tol)
    return PricingKernel(discount, q)


def kernel_to_json(kernel: PricingKernel) -> dict:
    return {"discount": float(kernel.discount), "q": matrix_to_json(kernel.q.entries)}


def quotes_from_json(
    obj: Any, what: str, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[tuple[FinancialClaim, float]]:
    if not isinstance(obj, list):
        raise ValidationError(f"{what} must be an array of quote records")
    quotes = []
    for i, record in enumerate(obj):
        entry = require_keys(record, f"{what}[{i}]", required=("claim", "price"), optional=("id",))
        claim = claim_from_json(entry["claim"], f"{what}[{i}].claim", tol=tol)
        value = real_from_json(entry["price"], f"{what}[{i}].price")
        if value < 0:
            raise ValidationError(f"{what}[{i}].price must be nonnegative, got {value!r}")
        quotes.append((claim, value))
    return quotes


def utility_from_json(obj: Any, what: str) -> UtilityFunction:
    record = require_keys(obj, what, required=("kind",), optional=("p",))
    kind = record["kind"]
    if kind == "log":
        if "p" in record:
            raise ValidationError(f"{what}: log utility takes no exponent")
        return UtilityFunction.log()
    if kind == "power":
        if "p" not in record:
            raise ValidationError(f"{what}: power utility requires an exponent p")
        return UtilityFunction.power(real_from_json(record["p"], f"{what}.p"))
    raise ValidationError(f'{what}.kind must be "log" or "power", got {kind!r}')


def ks_system_from_json(obj: Any, what: str) -> KSSystem:
    record = require_keys(obj, what, required=("rays", "bases"))
    raw_rays = record["rays"]
    if not isinstance(raw_rays, list) or not raw_rays:
        raise ValidationError(f"{what}.rays must be a nonempty array")
    if len(raw_rays) > _MAX_KS_RAYS:
        raise ValidationError(f"{what}.rays holds {len(raw_rays)} rays, at most {_MAX_KS_RAYS} allowed")
    rays = []
    for i, comps in enumerate(raw_rays):
        if not isinstance(comps, list) or len(comps) != 4:
            raise ValidationError(f"{what}.rays[{i}] must be an array of 4 integers")
        rays.append(KSRay(i, _int_row(comps, what, "rays", i)))
    raw_bases = record["bases"]
    if not isinstance(raw_bases, list) or not raw_bases:
        raise ValidationError(f"{what}.bases must be a nonempty array")
    if len(raw_bases) > _MAX_KS_TETRADS:
        raise ValidationError(
            f"{what}.bases holds {len(raw_bases)} tetrads, at most {_MAX_KS_TETRADS} allowed"
        )
    bases = []
    for b, ids in enumerate(raw_bases):
        if not isinstance(ids, list) or len(ids) != 4:
            raise ValidationError(f"{what}.bases[{b}] must be an array of 4 ray ids")
        bases.append(KSBasis(_int_row(ids, what, "bases", b)))
    return KSSystem(rays, bases)


def _int_row(row: list, what: str, field: str, index: int) -> tuple:
    """``row`` as a tuple of integers; per-entry paths are built only to name a bad entry."""
    if type(row[0]) is int and type(row[1]) is int and type(row[2]) is int and type(row[3]) is int:
        return tuple(row)
    return tuple(int_from_json(c, f"{what}.{field}[{index}][{k}]") for k, c in enumerate(row))


def ks_system_to_json(system: KSSystem) -> dict:
    # Rays are re-indexed by position so ids round-trip as array offsets.
    order = {ray.ray_id: i for i, ray in enumerate(system.rays)}
    return {
        "rays": [list(ray.components) for ray in system.rays],
        "bases": [[order[rid] for rid in basis.ray_ids] for basis in system.bases],
    }


# What ``json.dumps`` applies to a str under its default ``ensure_ascii``.
_quote = json.encoder.encode_basestring_ascii


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValidationError(f"reports may not contain non-finite numbers, got {value!r}")
    return format(value, ".17g")


def _render(value: Any, pieces: list[str], indent: int, pretty: bool) -> None:
    kind = type(value)
    if kind is float:
        pieces.append(_format_float(value))
    elif kind is int:
        pieces.append(str(value))
    elif kind is str:
        pieces.append(_quote(value))
    elif kind is bool:
        pieces.append("true" if value else "false")
    elif value is None:
        pieces.append("null")
    elif kind is dict or kind is list or kind is tuple:
        if kind is dict:
            items = sorted(value.items())
            for key, _ in items:
                if not isinstance(key, str):
                    raise ValidationError(f"report keys must be strings, got {key!r}")
            opening, closing = "{", "}"
        else:
            items = value
            opening, closing = "[", "]"
        if not items:
            pieces.append(opening + closing)
            return
        pieces.append(opening)
        if pretty:
            child_pad = "\n" + "  " * (indent + 1)
            colon = ": "
        else:
            colon = ":"
        for i, item in enumerate(items):
            if i:
                pieces.append(",")
            if pretty:
                pieces.append(child_pad)
            if kind is dict:
                key, item = item
                pieces.append(_quote(key) + colon)
            _render(item, pieces, indent + 1, pretty)
        if pretty:
            pieces.append("\n" + "  " * indent)
        pieces.append(closing)
    # numpy scalars and arrays, and subclasses of the builtin types, are
    # converted to the builtin they stand for and rendered as above.
    elif isinstance(value, (bool, np.bool_)):
        _render(bool(value), pieces, indent, pretty)
    elif isinstance(value, (int, np.integer)):
        _render(int(value), pieces, indent, pretty)
    elif isinstance(value, (float, np.floating)):
        _render(float(value), pieces, indent, pretty)
    elif isinstance(value, str):
        pieces.append(_quote(value))
    elif isinstance(value, dict):
        _render(dict(value), pieces, indent, pretty)
    elif isinstance(value, (list, tuple, np.ndarray)):
        _render(list(value), pieces, indent, pretty)
    else:
        raise ValidationError(f"cannot serialize {type(value).__name__} into a report")


def render_json(value: Any, pretty: bool = False) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""
    pieces: list[str] = []
    _render(value, pieces, 0, pretty)
    return "".join(pieces)
