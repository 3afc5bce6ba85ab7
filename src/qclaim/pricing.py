"""Claims as observables, the linear pricing rule, its axioms, and calibration.

A claim pays ``payouts[j]`` when a measurement in its basis yields outcome
j; as an operator it is the Hermitian matrix with those eigenvalues on
that eigenbasis.  A pricing kernel is a discount factor together with a
pricing state q; the price of a claim X is discount * tr(q X).  Of the
three arbitrage axioms only the first can fail for a kernel (``check_axioms``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import CalibrationError, DimensionMismatchError, ValidationError
from .errors import bounded_int, finite_real, is_integer, numeric_array
from .quantum import (
    DensityMatrix,
    HermitianOperator,
    MeasurementBasis,
    _assemble,
    _probabilities,
    _quadratic_forms,
    _spectra,
    _spectral_sum,
    basis_marginals,
    standard_basis,
)
from .tolerances import DEFAULT_TOLERANCES as TOL

__all__ = _EXPORTS["pricing"]


def _payout_vector(payouts, basis: MeasurementBasis) -> np.ndarray:
    """A fresh finite float copy of ``payouts``, one entry per outcome of ``basis``."""
    arr = numeric_array(payouts, "payouts", ndim=1)
    if arr.shape[0] != basis.dim:
        raise DimensionMismatchError(f"{arr.size} payouts for a dimension-{basis.dim} basis")
    return arr


class FinancialClaim:
    """Nonnegative payout schedule attached to a measurement basis."""

    __slots__ = ("basis", "payouts")

    def __init__(self, basis: MeasurementBasis, payouts):
        arr = _payout_vector(payouts, basis)
        if (arr < 0).any():
            j = int(np.argmin(arr))
            raise ValidationError(
                f"negative payout {arr[j]:.6g} at outcome {j}; claims live in the nonnegative cone"
            )
        arr.setflags(write=False)
        self.basis = basis
        self.payouts = arr

    @property
    def dim(self) -> int:
        return self.basis.dim

    def as_operator(self) -> HermitianOperator:
        return _assemble(self.payouts, self.basis.vectors)

    def __repr__(self) -> str:
        return f"FinancialClaim(dim={self.dim})"


class PricingKernel:
    """Discount factor in (0, 1] paired with a pricing state."""

    __slots__ = ("discount", "q")

    def __init__(self, discount: float, q: DensityMatrix):
        self.discount = finite_real(discount, "discount factor")
        if not 0.0 < self.discount <= 1.0:
            raise ValidationError(f"discount factor must lie in (0, 1], got {self.discount!r}")
        self.q = q

    @property
    def dim(self) -> int:
        return self.q.dim

    def __repr__(self) -> str:
        return f"PricingKernel(dim={self.dim}, discount={self.discount!r})"


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the three arbitrage axiom checks against a physical state."""

    axiom1_holds: bool
    axiom2_holds: bool
    axiom3_holds: bool
    violations: tuple[tuple[str, float], ...]

    @property
    def all_hold(self) -> bool:
        return self.axiom1_holds and self.axiom2_holds and self.axiom3_holds


def price(kernel: PricingKernel, claim: FinancialClaim) -> float:
    """Present value: discount * tr(q X).  Nonnegative for every claim."""
    return kernel.discount * expected_payout(kernel.q, claim)


def expected_payout(state: DensityMatrix, claim: FinancialClaim) -> float:
    """Expectation tr(state X) of the claim's payout."""
    marginals = basis_marginals(state, claim.basis)
    return float(claim.payouts @ marginals)


def discount_bond(n: int) -> FinancialClaim:
    """Claim paying 1 in every outcome; its operator is the identity."""
    basis = standard_basis(n)
    return FinancialClaim(basis, np.ones(basis.dim))


def arrow_debreu(basis: MeasurementBasis, outcome: int) -> FinancialClaim:
    """Claim paying 1 on a single outcome (0-based) of ``basis`` and 0 elsewhere."""
    if not is_integer(outcome) or not 0 <= outcome < basis.dim:
        raise ValidationError(
            f"outcome index {outcome!r} out of range for dimension {basis.dim}"
        )
    payouts = np.zeros(basis.dim)
    payouts[int(outcome)] = 1.0
    return FinancialClaim(basis, payouts)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a[k] @ b[k] for each row k, by the same dot routine as ``payouts @ marginals`` in
    # ``expected_payout``.
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def check_axioms(kernel: PricingKernel, state: DensityMatrix, sample_claims) -> AxiomReport:
    """Test the pricing rule against the three arbitrage axioms.

    Axiom 1 (zero price iff zero expected payout) is probed on the sample
    claims plus unit claims along null-space eigenvectors of both states,
    with one ``eigh`` per state and one marginal pass under both states;
    the first probe out of Born range raises, price before expectation.

    Axioms 2 and 3 hold by construction and are reported as holding: a
    price is discount * tr(q X), linear in X, and the bond's price,
    discount * tr q, differs from the discount factor by at most
    discount * ``TOL.trace`` (1e-9), below ``TOL.price``.  Deterministic.
    """
    n = kernel.dim
    if state.dim != n:
        raise DimensionMismatchError(f"dimension-{state.dim} state against a dimension-{n} kernel")
    claims = list(sample_claims)
    for i, claim in enumerate(claims):
        if claim.dim != n:
            raise DimensionMismatchError(f"sample claim {i} has dimension {claim.dim}, expected {n}")
    labels = [f"sample claim {i}" for i in range(len(claims))]
    payouts = [c.payouts for c in claims]
    bases = [c.basis.vectors for c in claims]
    for label, probed in (("physical", state), ("pricing", kernel.q)):
        vals, rows = _spectra(probed.entries)
        for j in np.flatnonzero(vals < TOL.null_space):
            labels.append(f"unit claim on {label}-state null eigenvector {int(j)}")
            payouts.append(np.eye(n)[j])
            bases.append(rows)
    probes = len(labels)
    payouts = np.array(payouts).reshape(probes, n)
    # forms[k] holds probe k's outcome weights under q and then under the physical state, so
    # its rows are checked in the order price, expectation, probe by probe.
    bases = np.array(bases).reshape(probes, 1, n, n)
    forms = _quadratic_forms(np.stack((kernel.q.entries, state.entries)), bases)
    marginals = _probabilities(forms.reshape(-1, n))
    values = kernel.discount * _row_dots(payouts, marginals[0::2])
    expectations = _row_dots(payouts, marginals[1::2])
    mismatched = (values <= TOL.price) != (expectations <= TOL.price)
    violations: list[tuple[str, float]] = []
    for k in np.flatnonzero(mismatched):
        value, expectation = float(values[k]), float(expectations[k])
        violations.append(
            (
                f"axiom 1: {labels[k]}: price {value:.6g} vs expected payout {expectation:.6g}",
                max(value, expectation),
            )
        )
    return AxiomReport(not mismatched.any(), True, True, tuple(violations))


def _design_matrix(claims, n: int) -> np.ndarray:
    # Row k: the real coordinates of X_k in the trace pairing.  tr(qX) is linear in
    # q's diagonal and the re/im of its upper entries (row-major), with weights
    # diag(X), 2 Re X[j, i] and -2 Im X[j, i].  The last row is the unit trace.
    upper = np.triu_indices(n, 1)
    payouts = np.array([c.payouts for c in claims]).reshape(-1, n)
    products = _spectral_sum(payouts, np.array([c.basis.vectors for c in claims]).reshape(-1, n, n))
    # Only the entries the rows read, symmetrised as _assemble does.
    lower = (products[:, upper[1], upper[0]] + products[:, upper[0], upper[1]].conj()) / 2.0
    system = np.zeros((len(claims) + 1, n * n))
    system[:-1, :n] = products.diagonal(axis1=1, axis2=2).real
    system[:-1, n::2] = 2.0 * lower.real
    system[:-1, n + 1 :: 2] = -2.0 * lower.imag
    system[-1, :n] = 1.0
    return system


def _hermitian_from_parameters(params: np.ndarray, n: int) -> np.ndarray:
    upper = np.triu_indices(n, 1)
    out = np.zeros((n, n), dtype=complex)
    out[np.diag_indices(n)] = params[:n]
    out[upper] = params[n::2] + 1j * params[n + 1 :: 2]
    out[upper[::-1]] = out[upper].conj()
    return out


def calibrate(n: int, bond_price: float, quotes) -> PricingKernel:
    """Recover the pricing state from quoted claim prices by least squares.

    Each quote (claim, observed price) contributes one linear equation
    tr(q X) = price / bond_price in the n^2 real parameters of a Hermitian
    q; the unit-trace constraint supplies one more row.  The system must
    have full rank, the least-squares residual must stay below the
    calibration tolerance, and the solution must be a valid state.  A
    negative eigenvalue is reported as an arbitrage inconsistency, never
    repaired.
    """
    n = bounded_int(n, "dimension")
    d = finite_real(bond_price, "bond price")
    if not 0.0 < d <= 1.0:
        raise ValidationError(f"bond price must lie in (0, 1], got {d!r}")
    claims = []
    rhs = []
    for idx, (claim, observed) in enumerate(quotes):
        if claim.dim != n:
            raise DimensionMismatchError(
                f"quote {idx}: claim dimension {claim.dim}, expected {n}"
            )
        value = finite_real(observed, f"quote {idx}: price")
        if value < 0.0:
            raise ValidationError(f"quote {idx}: price must be finite and nonnegative, got {value!r}")
        claims.append(claim)
        rhs.append(value / d)
    system = _design_matrix(claims, n)
    target = np.array(rhs + [1.0])
    solution, _, rank, _ = np.linalg.lstsq(system, target, rcond=None)
    if rank < n * n:
        raise CalibrationError(
            f"quote system is rank-deficient: rank {rank} of {n * n} Hermitian degrees of freedom"
        )
    residual = float(np.abs(system @ solution - target).max())
    if not residual <= TOL.calibration:
        raise CalibrationError(
            f"quotes are mutually inconsistent: max residual {residual:.3e}"
        )
    recovered = _hermitian_from_parameters(solution, n)
    try:
        q = DensityMatrix(recovered)
    except ValidationError as exc:
        raise CalibrationError(
            f"calibrated state is not a valid density matrix (quotes admit arbitrage): {exc}"
        ) from exc
    return PricingKernel(d, q)
