import re

import numpy as np
import pytest

import qclaim as qc
from helpers import bell_state, random_basis, random_density, random_hermitian, shared_support_pair


def test_hermitian_accepts_and_freezes():
    op = qc.HermitianOperator([[1.0, 2.0], [2.0, 1.0]])
    assert op.dim == 2
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_hermitian_rejects_bad_input():
    with pytest.raises(qc.ValidationError):
        qc.HermitianOperator([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(qc.ValidationError):
        qc.HermitianOperator([[1.0, 2.0, 3.0]])
    with pytest.raises(qc.ValidationError):
        qc.HermitianOperator([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(qc.ValidationError):
        qc.HermitianOperator(np.zeros((0, 0)))


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "cls, entries, message",
    [
        (qc.HermitianOperator, [[INF, 0.0], [0.0, 1.0]], "HermitianOperator contains non-finite entries"),
        (qc.HermitianOperator, [[1.0, complex(0, INF)], [0.0, 1.0]], "HermitianOperator contains non-finite"),
        (qc.HermitianOperator, [[0.0, 1e308], [-1e308, 0.0]], "HermitianOperator is not Hermitian: max |A - A^dagger| = inf"),
        (qc.DensityMatrix, [[NAN, 0.0], [0.0, 1.0]], "DensityMatrix contains non-finite entries"),
        (qc.DensityMatrix, [[INF, INF], [INF, INF]], "DensityMatrix contains non-finite entries"),
        (qc.MeasurementBasis, [[INF, 0.0], [0.0, 1.0]], "measurement basis contains non-finite entries"),
        (qc.MeasurementBasis, [[1.0, 0.0], [0.0, -INF]], "measurement basis contains non-finite entries"),
        (qc.MeasurementBasis, [[NAN, 0.0], [0.0, 1.0]], "measurement basis contains non-finite entries"),
        (qc.MeasurementBasis, [[1e308, 1e308], [0.0, 1.0]], "basis vectors are not orthonormal: max Gram deviation inf"),
    ],
    ids=[
        "hermitian-inf", "hermitian-inf-imag", "hermitian-overflow", "density-nan", "density-all-inf",
        "basis-inf", "basis-minus-inf", "basis-nan", "basis-overflow",
    ],
)
def test_gates_reject_non_finite_and_overflowing_entries_without_warnings(cls, entries, message):
    # The suite turns RuntimeWarning into an error, so a gate that warns on its way to the
    # ValidationError fails here.
    with pytest.raises(qc.ValidationError, match="^" + re.escape(message)):
        cls(entries)


def test_hermitian_tolerates_roundoff_asymmetry():
    op = qc.HermitianOperator([[1.0, 0.5 + 1e-12j], [0.5 - 1e-12j, 1.0]])
    assert op.entries[0, 1] == pytest.approx(0.5 + 1e-12j)


def test_density_constraints():
    qc.DensityMatrix([[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(qc.ValidationError):
        qc.DensityMatrix([[0.6, 0.0], [0.0, 0.6]])
    with pytest.raises(qc.ValidationError):
        qc.DensityMatrix([[1.5, 0.0], [0.0, -0.5]])
    with pytest.raises(qc.ValidationError):
        qc.DensityMatrix([[0.5, 0.6], [0.6, 0.5]])


def test_basis_constraints():
    basis = qc.standard_basis(3)
    assert np.array_equal(basis.vectors, np.eye(3))
    with pytest.raises(qc.ValidationError):
        qc.MeasurementBasis([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(qc.ValidationError):
        qc.MeasurementBasis([[0.5, 0.0], [0.0, 1.0]])


def test_from_spectrum_diagonal():
    basis = qc.standard_basis(2)
    op = qc.from_spectrum([0.5, -0.5], basis)
    assert np.allclose(op.entries, np.diag([0.5, -0.5]))


def test_from_spectrum_rotated():
    # 3 on (1,1)/sqrt(2) and -1 on (1,-1)/sqrt(2) expands to [[1,2],[2,1]]
    s = 2.0**-0.5
    basis = qc.MeasurementBasis([[s, s], [s, -s]])
    op = qc.from_spectrum([3.0, -1.0], basis)
    assert np.allclose(op.entries, [[1.0, 2.0], [2.0, 1.0]], atol=1e-14)


def test_from_spectrum_circular_projector():
    s = 2.0**-0.5
    basis = qc.MeasurementBasis([[s, 1j * s], [s, -1j * s]])
    op = qc.from_spectrum([1.0, 0.0], basis)
    assert np.allclose(op.entries, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-14)


def test_eigendecompose_frozen_example():
    spec = qc.eigendecompose(qc.HermitianOperator([[1.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(spec.eigenvalues, [-1.0, 3.0])


def test_spectrum_is_read_only_and_sorted():
    spec = qc.eigendecompose(qc.HermitianOperator(np.diag([2.0, -1.0, 0.5])))
    assert list(spec.eigenvalues) == sorted(spec.eigenvalues)
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 7.0


def test_eigendecompose_rejects_an_overflowing_spectrum():
    # eigh returns eigenvalues [0, inf]; the reconstruction error is nan and must fail the gate.
    # No errstate here: the suite turns RuntimeWarning into an error, and the named one must win.
    op = qc.HermitianOperator([[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(qc.NumericalError, match="eigendecomposition reconstruction error nan"):
        qc.eigendecompose(op)


def test_eigendecompose_names_a_decomposition_that_does_not_converge(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    op = qc.HermitianOperator(np.diag([2.0, -1.0]))
    with pytest.raises(qc.NumericalError, match="^eigendecomposition did not converge: Eigenvalues"):
        qc.eigendecompose(op)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_eigendecompose_round_trip(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        op = random_hermitian(rng, n, scale=3.0)
        spec = qc.eigendecompose(op)
        rebuilt = qc.from_spectrum(spec.eigenvalues, spec.basis)
        assert np.max(np.abs(rebuilt.entries - op.entries)) < 1e-10


def test_basis_marginals_pure_cases():
    s = 2.0**-0.5
    state = qc.DensityMatrix(np.full((2, 2), 0.5))  # |+><+|
    diagonal = qc.MeasurementBasis([[s, s], [s, -s]])
    assert np.allclose(qc.basis_marginals(state, diagonal), [1.0, 0.0], atol=1e-15)
    circular = qc.MeasurementBasis([[s, 1j * s], [s, -1j * s]])
    assert np.allclose(qc.basis_marginals(state, circular), [0.5, 0.5], atol=1e-15)


def test_marginals_form_distribution():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        state = random_density(rng, n)
        basis = random_basis(rng, n)
        prob = qc.basis_marginals(state, basis)
        assert prob.min() >= 0.0
        assert prob.sum() == pytest.approx(1.0, abs=1e-12)
        single = [np.real(v.conj() @ state.entries @ v) for v in basis.vectors]
        assert np.allclose(prob, single, atol=1e-12)


def test_absolute_continuity_frozen_pair():
    point = qc.DensityMatrix(np.diag([1.0, 0.0]))
    mixed = qc.DensityMatrix(np.eye(2) / 2.0)
    assert not qc.absolutely_continuous(point, mixed)
    assert qc.absolutely_continuous(mixed, point)
    assert not qc.equivalent_states(point, mixed)


def test_equivalence_on_shared_support():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b = shared_support_pair(rng, 5, 3)
        assert qc.equivalent_states(a, b)
        assert qc.equivalent_states(b, a)
        full = random_density(rng, 5)
        assert qc.absolutely_continuous(full, a)
        assert not qc.absolutely_continuous(a, full)


def test_subsystem_marginals_of_bell_state():
    bell = bell_state()
    for index in (0, 1):
        reduced = qc.subsystem_marginal(bell, (2, 2), index)
        assert np.allclose(reduced.entries, np.eye(2) / 2.0, atol=1e-14)


def test_subsystem_marginal_splits_products():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    joint = qc.HermitianOperator(np.kron(a.entries, b.entries))
    left = qc.subsystem_marginal(joint, (2, 3), 0)
    assert np.allclose(left.entries, np.trace(b.entries).real * a.entries, atol=1e-12)
    right = qc.subsystem_marginal(joint, (2, 3), 1)
    assert np.allclose(right.entries, np.trace(a.entries).real * b.entries, atol=1e-12)
    with pytest.raises(qc.DimensionMismatchError):
        qc.subsystem_marginal(joint, (2, 2), 0)


def test_subsystem_marginal_three_factors():
    rng = np.random.default_rng(5)
    parts = [random_density(rng, 2) for _ in range(3)]
    joint = parts[0]
    for part in parts[1:]:
        joint = qc.DensityMatrix(np.kron(joint.entries, part.entries))
    for k, part in enumerate(parts):
        got = qc.subsystem_marginal(joint, (2, 2, 2), k)
        assert np.allclose(got.entries, part.entries, atol=1e-12)


@pytest.mark.parametrize(
    "dims", [(2.7, 3), (2, 3.0), (0, 6), (-2, -3), (True, 6), (2, "3"), (None, 6), (2, np.float64(3.0))]
)
def test_factor_dimensions_must_be_positive_integers(dims):
    # Truncating 2.7 to 2 would trace a dimension-6 operator as a 2x3 split.
    operator = qc.HermitianOperator(np.eye(6))
    for index in (0, 1):
        with pytest.raises(qc.ValidationError, match="positive integers"):
            qc.subsystem_marginal(operator, dims, index)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (5,)])
def test_factor_dimensions_must_compose_to_the_operator(dims):
    operator = qc.HermitianOperator(np.eye(6))
    message = f"factor dimensions {list(dims)} do not compose to operator dimension 6"
    with pytest.raises(qc.DimensionMismatchError, match="^" + re.escape(message) + "$"):
        qc.subsystem_marginal(operator, dims, 0)


@pytest.mark.parametrize("index", [-1, 2, 1.0, True])
def test_subsystem_index_must_name_a_factor(index):
    # A float or bool index is refused rather than read as the factor it rounds to.
    operator = qc.HermitianOperator(np.eye(6))
    message = f"subsystem index {index!r} out of range for 2 factors"
    with pytest.raises(qc.ValidationError, match="^" + re.escape(message) + "$"):
        qc.subsystem_marginal(operator, (2, 3), index)


def test_the_marginal_of_a_single_factor_is_the_operator():
    rng = np.random.default_rng(7)
    operator = random_hermitian(rng, 3)
    got = qc.subsystem_marginal(operator, (3,), 0)
    assert np.allclose(got.entries, operator.entries, atol=1e-15)
