"""Dense Hermitian linear algebra on finite-dimensional complex state spaces.

Observables are Hermitian matrices, states are unit-trace positive
semidefinite ones, and measurements are complete orthonormal bases.
Everything is stored densely; the intended regime is dimension <= 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .errors import DimensionMismatchError, NumericalError, ValidationError, bounded_int, is_integer
from .errors import numeric_array
from .tolerances import DEFAULT_TOLERANCES as TOL

__all__ = _EXPORTS["quantum"]


def _complex_square(entries, what: str) -> np.ndarray:
    # Finiteness is left to the caller's gate: a non-finite entry makes its deviation
    # nan or inf, and the failure branch calls _require_finite before its own message.
    arr = numeric_array(entries, what, ndim=2, dtype=complex)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValidationError(f"{what} must have dimension at least 1")
    return arr


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite entries")


def _trusted(cls, arr: np.ndarray):
    # Takes only a freshly computed array derived from checked objects; freezes it, checks nothing.
    obj = object.__new__(cls)
    arr.setflags(write=False)
    setattr(obj, "vectors" if cls is MeasurementBasis else "entries", arr)
    return obj


class HermitianOperator:
    """Square complex matrix equal to its conjugate transpose within tolerance.

    The entry array is copied on construction and frozen; instances are
    safe to share across threads.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = _complex_square(entries, type(self).__name__)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries fail as nan or inf
            deviation = float(np.abs(arr - arr.conj().T).max())
        if not deviation <= TOL.hermiticity:
            _require_finite(arr, type(self).__name__)
            raise ValidationError(
                f"{type(self).__name__} is not Hermitian: max |A - A^dagger| = {deviation:.3e}"
            )
        arr.setflags(write=False)
        self.entries = arr

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class DensityMatrix(HermitianOperator):
    """Unit-trace, positive-semidefinite Hermitian operator: a state."""

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        trace = complex(self.entries.trace())
        if not abs(trace - 1.0) <= TOL.trace:
            raise ValidationError(f"state trace must be 1, got {trace.real:.12g}")
        smallest = float(np.linalg.eigvalsh(self.entries)[0])
        if not smallest >= -TOL.psd:
            raise ValidationError(
                f"state is not positive semidefinite: smallest eigenvalue {smallest:.3e}"
            )


class MeasurementBasis:
    """Complete orthonormal family; ``vectors[j]`` is the j-th outcome vector."""

    __slots__ = ("vectors",)

    def __init__(self, vectors):
        arr = _complex_square(vectors, "measurement basis")
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries fail as nan or inf
            gram = arr.conj() @ arr.T
            gram.reshape(-1)[:: arr.shape[0] + 1] -= 1.0
            deviation = float(np.abs(gram).max())
        if not deviation <= TOL.orthonormality:
            _require_finite(arr, "measurement basis")
            raise ValidationError(
                f"basis vectors are not orthonormal: max Gram deviation {deviation:.3e}"
            )
        arr.setflags(write=False)
        self.vectors = arr

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def __repr__(self) -> str:
        return f"MeasurementBasis(dim={self.dim})"


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition result: ascending eigenvalues paired with a basis."""

    eigenvalues: np.ndarray
    basis: MeasurementBasis


def standard_basis(n: int) -> MeasurementBasis:
    """Computational basis of dimension ``n``."""
    return _trusted(MeasurementBasis, np.eye(bounded_int(n, "dimension"), dtype=complex))


def from_spectrum(eigenvalues, basis: MeasurementBasis) -> HermitianOperator:
    """Assemble sum_j eigenvalues[j] |v_j><v_j| over the given basis."""
    vals = numeric_array(eigenvalues, "eigenvalues", ndim=1)
    if vals.shape[0] != basis.dim:
        raise DimensionMismatchError(f"{vals.size} eigenvalues for a dimension-{basis.dim} basis")
    return _assemble(vals, basis.vectors)


def _spectral_sum(vals: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # sum_j vals[..., j] |v_j><v_j| for one basis or a (Q, n, n) stack of them; not yet symmetrised.
    return (np.swapaxes(vectors, -1, -2) * vals[..., None, :]) @ vectors.conj()


def _hermitian_part(out: np.ndarray) -> np.ndarray:
    # (A + A^dagger) / 2 of one matrix or a stack, in place: kills the rounding asymmetry of a spectral sum.
    out += np.swapaxes(out.conj(), -1, -2)
    out /= 2.0
    return out


def _assemble(vals: np.ndarray, vectors: np.ndarray) -> HermitianOperator:
    return _trusted(HermitianOperator, _hermitian_part(_spectral_sum(vals, vectors)))


def _spectra(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Ascending eigenvalues, eigenbasis rows and max reconstruction error of one Hermitian
    # matrix or a (Q, n, n) stack; a batch that fails to converge raises as a whole.
    try:
        vals, vecs = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    vectors = np.swapaxes(vecs, -1, -2).copy()
    del vecs  # one stack fewer alive while the rebuild below runs
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing spectrum fails the gate as nan
        rebuilt = _hermitian_part(_spectral_sum(vals, vectors))
        rebuilt -= entries
        error = np.abs(rebuilt).max(axis=(-2, -1))
    return vals, vectors, error


def eigendecompose(operator: HermitianOperator) -> Spectrum:
    """Ascending eigenvalues and an orthonormal eigenbasis of ``operator``.

    Within a degenerate eigenspace the returned vectors are an arbitrary
    orthonormal choice; only the reconstructed operator is promised.
    """
    vals, vectors, err = _spectra(operator.entries)
    if not err <= TOL.reconstruction:
        raise NumericalError(f"eigendecomposition reconstruction error {err:.3e}")
    vals.setflags(write=False)
    return Spectrum(vals, _trusted(MeasurementBasis, vectors))


def _quadratic_forms(state: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # <v|state|v> for every row v of ``rows``; stacks of rows and states broadcast.
    products = rows.conj() @ state
    products *= rows
    return products.sum(axis=-1).real


def _probabilities(values: np.ndarray) -> np.ndarray:
    # Clipped Born weights over the trailing axis; the first row (C order) out of range raises.
    rows = values.reshape(-1, values.shape[-1])
    low, high = rows.min(axis=1), rows.max(axis=1)
    outside = ~((low >= -TOL.psd) & (high <= 1.0 + TOL.psd))  # NaN fails too
    if outside.any():
        k = int(np.argmax(outside))
        worst = low[k] if low[k] < -TOL.psd else high[k]
        raise NumericalError(f"Born probability {worst:.6g} lies outside [0, 1]")
    return np.clip(values, 0.0, 1.0)


def basis_marginals(state: DensityMatrix, basis: MeasurementBasis) -> np.ndarray:
    """All outcome probabilities of measuring ``state`` in ``basis``."""
    if basis.dim != state.dim:
        raise DimensionMismatchError(
            f"dimension-{basis.dim} basis against a dimension-{state.dim} state"
        )
    return _probabilities(_quadratic_forms(state.entries, basis.vectors))


def absolutely_continuous(reference: DensityMatrix, state: DensityMatrix) -> bool:
    """True iff ``state`` vanishes on the null space of ``reference``.

    Every event impossible under ``reference`` is then impossible under
    ``state`` as well.
    """
    if reference.dim != state.dim:
        raise DimensionMismatchError(
            f"states of dimension {reference.dim} and {state.dim}"
        )
    vals, vecs = np.linalg.eigh(reference.entries)
    null = vecs[:, vals < TOL.null_space]
    if null.shape[1] == 0:
        return True
    norms = np.linalg.norm(state.entries @ null, axis=0)
    return bool(norms.max() < TOL.null_space)


def equivalent_states(a: DensityMatrix, b: DensityMatrix) -> bool:
    """True iff the two states share a null space (agree on impossible events)."""
    return absolutely_continuous(a, b) and absolutely_continuous(b, a)


def subsystem_marginal(
    operator: HermitianOperator, dims: Sequence[int], index: int
) -> HermitianOperator:
    """Trace out all factors of a multipartite operator except ``dims[index]``."""
    if not all(is_integer(d) and d >= 1 for d in dims):
        raise ValidationError(f"factor dimensions must be positive integers, got {dims!r}")
    dims = [int(d) for d in dims]
    if math.prod(dims) != operator.dim:
        raise DimensionMismatchError(
            f"factor dimensions {dims} do not compose to operator dimension {operator.dim}"
        )
    if not is_integer(index) or not 0 <= index < len(dims):
        raise ValidationError(f"subsystem index {index} out of range for {len(dims)} factors")
    # Row index = (before, kept, after); sum the diagonals of "before" and "after".
    before = math.prod(dims[:index])
    after = math.prod(dims[index + 1 :])
    blocks = operator.entries.reshape(before, dims[index], after, before, dims[index], after)
    return _trusted(HermitianOperator, np.einsum("aibajb->ij", blocks))

