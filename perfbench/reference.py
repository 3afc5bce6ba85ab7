"""Independent reference math for the benchmark's generators and output checks.

Nothing here imports qclaim: every expected value the checks compare
against is computed from the generator's own arrays with plain numpy, or
by the exact-cover count below, so a fault in the library cannot hide
behind a check that reuses it.
"""

from __future__ import annotations

import itertools

import numpy as np


# ---------------------------------------------------------------- states


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Exactly Hermitian copy: entry (j, i) is the conjugate of entry (i, j)."""
    return (mat + mat.conj().T) / 2.0


def random_unitary_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-like unitary whose rows are an orthonormal basis."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return np.ascontiguousarray(q.T)


def density_on(frame: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """State sum_k weights[k] |f_k><f_k| for orthonormal rows f_k of ``frame``."""
    w = np.asarray(weights, dtype=float) / float(np.sum(weights))
    return hermitize((frame.T * w) @ frame.conj())


def random_density(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    """Random state of the given rank with eigenvalues kept well off zero."""
    rank = n if rank is None else rank
    frame = random_unitary_rows(rng, n)[:rank]
    return density_on(frame, rng.uniform(0.2, 1.0, size=rank))


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return hermitize(scale * g)


def marginals(state: np.ndarray, basis_rows: np.ndarray) -> np.ndarray:
    """Outcome probabilities <v_j|state|v_j> for the rows v_j of ``basis_rows``."""
    return ((basis_rows.conj() @ state) * basis_rows).sum(axis=1).real


def null_projector(state: np.ndarray, cutoff: float = 1e-7) -> np.ndarray:
    vals, vecs = np.linalg.eigh(state)
    null = vecs[:, vals < cutoff]
    return null @ null.conj().T


def same_null_space(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.abs(null_projector(a) - null_projector(b)).max() < 1e-6)


def partial_traces(rho: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    n, m = dims
    blocks = rho.reshape(n, m, n, m)
    return np.trace(blocks, axis1=1, axis2=3), np.trace(blocks, axis1=0, axis2=2)


def partial_transpose_min_eig(rho: np.ndarray, dims: tuple[int, int]) -> float:
    n, m = dims
    pt = rho.reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)
    return float(np.linalg.eigvalsh(pt)[0])


def optimal_payouts(p_m, q_m, budget: float, discount: float, exponent: float | None):
    """Closed-form utility-optimal payouts on one basis.

    Log utility (``exponent`` None) gives x_j = B p_j / (P q_j).  Power
    utility x**a / a gives x_j proportional to (q_j / p_j)**(1 / (a - 1)),
    scaled so that P * sum_j q_j x_j = B.
    """
    if exponent is None:
        return budget * p_m / (discount * q_m)
    shape = (q_m / p_m) ** (1.0 / (exponent - 1.0))
    return budget * shape / (discount * float(shape @ q_m))


def utility(x, exponent: float | None):
    return np.log(x) if exponent is None else x**exponent / exponent


def close(actual, expected, rel: float = 1e-8, abs_: float = 1e-10) -> bool:
    actual = np.asarray(actual, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= abs_ + rel * np.abs(expected))
    )


# ----------------------------------------------------- Kochen-Specker rays


def peres_rays() -> list[tuple[int, int, int, int]]:
    """Peres's 24 rays in real 4-space (J. Phys. A 24 L175, 1991), one sign each."""
    rays = []
    for i in range(4):
        rays.append(tuple(int(k == i) for k in range(4)))
    for i, j in itertools.combinations(range(4), 2):
        for sign in (1, -1):
            v = [0, 0, 0, 0]
            v[i], v[j] = 1, sign
            rays.append(tuple(v))
    for signs in itertools.product((1, -1), repeat=3):
        rays.append((1, *signs))
    return rays


def orthogonal_tetrads(rays) -> list[tuple[int, int, int, int]]:
    """Every set of four pairwise orthogonal rays, as sorted index tuples."""

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    return [
        quad
        for quad in itertools.combinations(range(len(rays)), 4)
        if all(dot(rays[a], rays[b]) == 0 for a, b in itertools.combinations(quad, 2))
    ]


# The 18 rays of the paper's system (Cabello, Estebaranz and Garcia-Alcaine
# 1996): Peres's set without these six.  Its nine internal tetrads admit no
# one-per-tetrad marking.
CEG_OMITTED = ((1, 0, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, -1), (1, 1, -1, -1), (1, -1, 1, 1))


def count_colourings(ray_count: int, tetrads) -> int:
    """Number of 0/1 ray markings with exactly one marked ray in every tetrad.

    Exact cover by backtracking: take the open tetrad with fewest usable
    rays, mark each in turn, close every tetrad it lies in and forbid the
    other rays of those tetrads.  Rays in no tetrad are free.
    """
    sets = [frozenset(t) for t in tetrads]
    covered = frozenset().union(*sets)
    containing = {r: [k for k, s in enumerate(sets) if r in s] for r in covered}

    def search(usable: frozenset, open_: frozenset) -> int:
        if not open_:
            return 1
        pivot = min(open_, key=lambda k: len(sets[k] & usable))
        total = 0
        for ray in sets[pivot] & usable:
            closed = [k for k in containing[ray] if k in open_]
            left = usable.difference(*(sets[k] for k in closed))
            rest = open_.difference(closed)
            if all(sets[k] & left for k in rest):
                total += search(left, rest)
        return total

    return search(covered, frozenset(range(len(sets)))) << (ray_count - len(covered))
