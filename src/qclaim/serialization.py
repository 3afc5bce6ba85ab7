"""JSON wire formats shared by the scenario files and the report emitter.

Complex scalars travel as two-element [re, im] arrays, matrices as arrays
of rows, bases as arrays of vectors.  Decoding is strict: wrong shapes,
unknown keys and non-finite numbers are rejected with the offending path
in the message.  A matrix is converted once with numpy and its leaf types
are scanned exactly; it is walked entry by entry only to name the
offending path when that conversion cannot accept it.  Report rendering
fixes every float at 17 significant digits so identical inputs
reproduce identical bytes.

The integer ray-system codec and the renderer run without numpy; the
matrix, claim, kernel and utility codecs import it, and the classes they
build, when they are called.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from typing import TYPE_CHECKING, Any

from .errors import NumericalError, ValidationError, is_integer, numeric_array
from .errors import finite_real as real_from_json  # the library's own rule, not a copy
from .kochen_specker import KSBasis, KSRay, KSSystem

if TYPE_CHECKING:
    import numpy as np

    from .investment import UtilityFunction
    from .pricing import FinancialClaim, PricingKernel
    from .quantum import DensityMatrix, HermitianOperator, MeasurementBasis

__all__ = [
    "require_keys",
    "real_from_json",
    "int_from_json",
    "matrix_from_json",
    "matrix_to_json",
    "basis_from_json",
    "hermitian_from_json",
    "density_from_json",
    "claim_from_json",
    "kernel_from_json",
    "kernel_to_json",
    "quotes_from_json",
    "utility_from_json",
    "ks_system_from_json",
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


def int_from_json(obj: Any, what: str) -> int:
    if not is_integer(obj):
        raise ValidationError(f"{what} must be an integer, got {obj!r}")
    return obj


def _complex_from_json(obj: Any, what: str) -> complex:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValidationError(f"{what} must be a two-element [re, im] array, got {obj!r}")
    return complex(real_from_json(obj[0], f"{what}[0]"), real_from_json(obj[1], f"{what}[1]"))


def _complex_rows_from_json(obj: Any, what: str) -> np.ndarray:
    # Whatever the array rule rejects, or any shape but (rows, columns, 2), goes to the walk.
    with suppress(ValidationError):
        arr = numeric_array(obj, what, ndim=3)
        if arr.shape[2] == 2:  # so rows and columns are nonempty
            return arr.view(complex)[..., 0]  # keeps the sign of a zero real part
    return _complex_rows_walk(obj, what)


def _complex_rows_walk(obj: Any, what: str) -> np.ndarray:
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
    return numeric_array(rows, what, ndim=2, dtype=complex)


def matrix_from_json(obj: Any, what: str) -> np.ndarray:
    arr = _complex_rows_from_json(obj, what)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {arr.shape}")
    return arr


def matrix_to_json(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _checked(construct, what: str, *args, **kwargs):
    """Call ``construct``; a ``ValidationError`` it raises is re-raised, same class, led by ``what``."""
    try:
        return construct(*args, **kwargs)
    except ValidationError as exc:
        raise type(exc)(f"{what}: {exc}") from None


def hermitian_from_json(obj: Any, what: str) -> HermitianOperator:
    from .quantum import HermitianOperator

    return _checked(HermitianOperator, what, matrix_from_json(obj, what))


def density_from_json(obj: Any, what: str) -> DensityMatrix:
    from .quantum import DensityMatrix

    return _checked(DensityMatrix, what, matrix_from_json(obj, what))


def basis_from_json(obj: Any, what: str) -> MeasurementBasis:
    from .quantum import MeasurementBasis

    return _checked(MeasurementBasis, what, _complex_rows_from_json(obj, what))


def claim_from_json(obj: Any, what: str) -> FinancialClaim:
    from .pricing import FinancialClaim

    record = require_keys(obj, what, required=("basis", "payouts"))
    basis = basis_from_json(record["basis"], f"{what}.basis")
    payouts = record["payouts"]
    if not isinstance(payouts, list):
        raise ValidationError(f"{what}.payouts must be an array")
    return _checked(FinancialClaim, what, basis, numeric_array(payouts, f"{what}.payouts", ndim=1))


def kernel_from_json(obj: Any, what: str) -> PricingKernel:
    from .pricing import PricingKernel

    record = require_keys(obj, what, required=("discount", "q"))
    discount = real_from_json(record["discount"], f"{what}.discount")
    q = density_from_json(record["q"], f"{what}.q")
    return _checked(PricingKernel, what, discount, q)


def kernel_to_json(kernel: PricingKernel) -> dict:
    return {"discount": float(kernel.discount), "q": matrix_to_json(kernel.q.entries)}


def quotes_from_json(obj: Any, what: str) -> list[tuple[FinancialClaim, float]]:
    if not isinstance(obj, list):
        raise ValidationError(f"{what} must be an array of quote records")
    quotes = []
    for i, record in enumerate(obj):
        entry = require_keys(record, f"{what}[{i}]", required=("claim", "price"), optional=("id",))
        claim = claim_from_json(entry["claim"], f"{what}[{i}].claim")
        quotes.append((claim, real_from_json(entry["price"], f"{what}[{i}].price")))
    return quotes


def utility_from_json(obj: Any, what: str) -> UtilityFunction:
    from .investment import UtilityFunction

    record = require_keys(obj, what, required=("kind",), optional=("p",))
    exponent = real_from_json(record["p"], f"{what}.p") if "p" in record else None
    return _checked(UtilityFunction, what, record["kind"], exponent)


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
        rays.append(_checked(KSRay, f"{what}.rays[{i}]", i, _int_row(comps, what, "rays", i)))
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
        bases.append(_checked(KSBasis, f"{what}.bases[{b}]", _int_row(ids, what, "bases", b)))
    return _checked(KSSystem, what, rays, bases)


def _int_row(row: list, what: str, field: str, index: int) -> tuple:
    """``row`` as a tuple of integers; per-entry paths are built only to name a bad entry."""
    if type(row[0]) is int and type(row[1]) is int and type(row[2]) is int and type(row[3]) is int:
        return tuple(row)
    return tuple(int_from_json(c, f"{what}.{field}[{index}][{k}]") for k, c in enumerate(row))


# What ``json.dumps`` applies to a str under its default ``ensure_ascii``.
_quote = json.encoder.encode_basestring_ascii


def _render(value: Any, pieces: list[str]) -> None:
    kind = type(value)
    if kind is float:
        if not math.isfinite(value):
            raise NumericalError(f"reports may not contain non-finite numbers, got {value!r}")
        pieces.append(format(value, ".17g"))
    elif kind is int:
        pieces.append(str(value))
    elif kind is str:
        pieces.append(_quote(value))
    elif kind is bool:
        pieces.append("true" if value else "false")
    elif value is None:
        pieces.append("null")
    elif kind is dict:
        pieces.append("{")
        for i, (key, item) in enumerate(sorted(value.items())):
            if not isinstance(key, str):
                raise ValidationError(f"report keys must be strings, got {key!r}")
            if i:
                pieces.append(",")
            pieces.append(_quote(key) + ":")
            _render(item, pieces)
        pieces.append("}")
    elif kind is list or kind is tuple:
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(",")
            _render(item, pieces)
        pieces.append("]")
    # Integers of any type, subclasses of the builtin types (bool has none),
    # then numpy's other scalars and arrays, are converted to the builtin
    # they stand for and rendered as above.
    elif is_integer(value):
        _render(int(value), pieces)
    elif isinstance(value, float):
        _render(float(value), pieces)
    elif isinstance(value, str):
        pieces.append(_quote(value))
    elif isinstance(value, dict):
        _render(dict(value), pieces)
    elif isinstance(value, (list, tuple)):
        _render(list(value), pieces)
    else:
        import numpy as np

        if isinstance(value, np.bool_):
            _render(bool(value), pieces)
        elif isinstance(value, np.floating):
            _render(float(value), pieces)
        elif isinstance(value, np.ndarray):
            _render(list(value), pieces)
        else:
            raise ValidationError(f"cannot serialize {type(value).__name__} into a report")


def render_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits.

    A non-finite float raises ``NumericalError``: every decoded input is
    finite, so one in a report comes from the computation.
    """
    pieces: list[str] = []
    _render(value, pieces)
    return "".join(pieces)
