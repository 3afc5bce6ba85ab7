"""Property tests of the paper's identities over random inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qclaim as qc
from helpers import random_basis, spanning_quotes


@st.composite
def full_rank_kernels(draw):
    """A pricing kernel whose state has every eigenvalue at least 2e-4, and a generator."""
    n = draw(st.integers(1, 5))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    discount = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = random_basis(rng, n).vectors
    state = (frame.T * (weights / weights.sum())) @ frame.conj()
    return qc.PricingKernel(discount, qc.DensityMatrix((state + state.conj().T) / 2.0)), rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(full_rank_kernels())
def test_calibration_round_trip(drawn):
    # n^2 spanning quotes priced by P0T tr(q X) give back q, and the recovered
    # kernel reprices every quote.
    kernel, rng = drawn
    tol = qc.DEFAULT_TOLERANCES
    quotes = spanning_quotes(rng, kernel)
    recovered = qc.calibrate(kernel.dim, kernel.discount, quotes)
    assert recovered.discount == kernel.discount
    assert np.abs(recovered.q.entries - kernel.q.entries).max() <= tol.calibration
    for claim, observed in quotes:
        assert abs(qc.price(recovered, claim) - observed) <= tol.calibration
