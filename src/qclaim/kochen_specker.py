"""An 18-ray, 9-tetrad orthogonality system in real 4-space and its contract menu.

No assignment of {0, 1} to the rays can mark exactly one ray per tetrad:
an exact-cover count of the one-per-tetrad markings finds none, and a
parity argument explains why (each ray sits in exactly two tetrads, so any
assignment's total over tetrads is even, while nine tetrads demanding one
mark each force an odd total).  A sample space of outcomes with one
classical probability per ray would require such an assignment to exist
for deterministic reasoning, which is exactly what fails here.

The same nine tetrads double as a menu of nine contracts, each paying on
the four outcomes of its tetrad's measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .pricing import PricingKernel
from .quantum import DensityMatrix, _probabilities, _quadratic_forms
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "KSRay",
    "KSBasis",
    "KSSystem",
    "ContractMenu",
    "cabello_system",
    "verify_structure",
    "structure_diagnostics",
    "search_colourings",
    "parity_certificate",
    "menu_probabilities",
    "menu_prices",
    "choose_contract",
]

_SEARCH_RAY_LIMIT = 30

# Nine tetrads of integer rays, listed vertex by vertex.  Rays are
# unnormalized and identified up to overall sign; repeats across tetrads
# are deliberate (each ray belongs to exactly two).
_TETRADS = (
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)),
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)),
    ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)),
    ((1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)),
    ((1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)),
    ((1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)),
    ((1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)),
    ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)),
)


@dataclass(frozen=True)
class KSRay:
    """Unnormalized direction in real 4-space, stored exactly as integers."""

    ray_id: int
    components: tuple[int, int, int, int]

    def __post_init__(self):
        if not isinstance(self.ray_id, int) or self.ray_id < 0:
            raise ValidationError(f"ray id must be a nonnegative integer, got {self.ray_id!r}")
        comps = self.components
        if len(comps) != 4 or not all(isinstance(c, int) and not isinstance(c, bool) for c in comps):
            raise ValidationError(f"ray components must be 4 integers, got {comps!r}")
        if all(c == 0 for c in comps):
            raise ValidationError(f"ray {self.ray_id} is the zero vector")
        object.__setattr__(self, "components", tuple(int(c) for c in comps))

    def dot(self, other: "KSRay") -> int:
        return sum(a * b for a, b in zip(self.components, other.components))

    def norm_squared(self) -> int:
        return self.dot(self)


@dataclass(frozen=True)
class KSBasis:
    """Four ray ids intended to form an orthogonal tetrad."""

    ray_ids: tuple[int, int, int, int]

    def __post_init__(self):
        ids = self.ray_ids
        if len(ids) != 4 or not all(isinstance(i, int) and not isinstance(i, bool) for i in ids):
            raise ValidationError(f"a tetrad must reference 4 ray ids, got {ids!r}")
        if len(set(ids)) != 4:
            raise ValidationError(f"tetrad ray ids must be distinct, got {ids!r}")
        object.__setattr__(self, "ray_ids", tuple(int(i) for i in ids))


def _same_up_to_sign(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return a == b or a == tuple(-c for c in b)


class KSSystem:
    """Rays plus tetrads referencing them by id.

    Construction checks only well-formedness (resolvable distinct ids,
    rays pairwise distinct up to overall sign); whether the tetrads are
    genuinely orthogonal, complete and pairwise-shared is the job of
    verify_structure, so defective systems can be built and examined.
    """

    __slots__ = ("rays", "bases", "_by_id")

    def __init__(self, rays, bases):
        rays = tuple(rays)
        bases = tuple(bases)
        if not rays or not bases:
            raise ValidationError("a system needs at least one ray and one tetrad")
        by_id: dict[int, KSRay] = {}
        for ray in rays:
            if not isinstance(ray, KSRay):
                raise ValidationError(f"expected KSRay, got {type(ray).__name__}")
            if ray.ray_id in by_id:
                raise ValidationError(f"duplicate ray id {ray.ray_id}")
            by_id[ray.ray_id] = ray
        for i in range(len(rays)):
            for j in range(i + 1, len(rays)):
                if _same_up_to_sign(rays[i].components, rays[j].components):
                    raise ValidationError(
                        f"rays {rays[i].ray_id} and {rays[j].ray_id} coincide up to sign"
                    )
        for b, basis in enumerate(bases):
            if not isinstance(basis, KSBasis):
                raise ValidationError(f"expected KSBasis, got {type(basis).__name__}")
            for rid in basis.ray_ids:
                if rid not in by_id:
                    raise ValidationError(f"tetrad {b} references unknown ray id {rid}")
        self.rays = rays
        self.bases = bases
        self._by_id = by_id

    def ray(self, ray_id: int) -> KSRay:
        return self._by_id[ray_id]

    def incidence(self) -> dict[int, tuple[int, ...]]:
        """Map from ray id to the indices of the tetrads containing it."""
        table: dict[int, list[int]] = {ray.ray_id: [] for ray in self.rays}
        for b, basis in enumerate(self.bases):
            for rid in basis.ray_ids:
                table[rid].append(b)
        return {rid: tuple(hits) for rid, hits in table.items()}

    def __repr__(self) -> str:
        return f"KSSystem(rays={len(self.rays)}, bases={len(self.bases)})"


def cabello_system() -> KSSystem:
    """The embedded 18-ray, 9-tetrad system, ids in order of first appearance."""
    rays: list[KSRay] = []
    index: dict[tuple[int, int, int, int], int] = {}
    bases: list[KSBasis] = []
    for tetrad in _TETRADS:
        ids = []
        for comps in tetrad:
            key = comps if comps in index else tuple(-c for c in comps)
            if key not in index:
                index[comps] = len(rays)
                rays.append(KSRay(len(rays), comps))
                key = comps
            ids.append(index[key])
        bases.append(KSBasis(tuple(ids)))
    return KSSystem(rays, bases)


def structure_diagnostics(
    system: KSSystem, *, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[str]:
    """Every way the system fails the reference structure; empty when sound.

    Checks exact integer orthogonality within each tetrad, completeness of
    each tetrad's normalized projectors, and the each-ray-in-exactly-two-
    tetrads incidence pattern.
    """
    problems: list[str] = []
    for b, basis in enumerate(system.bases):
        members = [system.ray(rid) for rid in basis.ray_ids]
        for i in range(4):
            for j in range(i + 1, 4):
                product = members[i].dot(members[j])
                if product != 0:
                    problems.append(
                        f"tetrad {b}: rays {members[i].ray_id} and {members[j].ray_id} "
                        f"have dot product {product}"
                    )
        total = np.zeros((4, 4))
        for ray in members:
            v = np.array(ray.components, dtype=float)
            total += np.outer(v, v) / ray.norm_squared()
        gap = float(np.abs(total - np.eye(4)).max())
        if gap > tol.completeness:
            problems.append(f"tetrad {b}: projectors sum to identity only within {gap:.3e}")
    for rid, hits in sorted(system.incidence().items()):
        if len(hits) != 2:
            problems.append(f"ray {rid} appears in {len(hits)} tetrads, expected 2")
    return problems


def verify_structure(system: KSSystem, *, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff the system matches the reference structure exactly."""
    return not structure_diagnostics(system, tol=tol)


def search_colourings(system: KSSystem) -> tuple[int, list[int] | None]:
    """Count {0,1} assignments marking exactly one ray per tetrad.

    Returns the count and, if any exist, the witness with the smallest
    mask sum(a_i 2^i), listed in ray order.  The count is an exact cover
    over bit masks: each tetrad is a column needing exactly one marked ray,
    the search branches on the open tetrad with the fewest usable rays, and
    marking a ray closes every tetrad holding it and forbids their other
    rays.  Rays in no tetrad are free and double the count.
    """
    count_rays = len(system.rays)
    if count_rays > _SEARCH_RAY_LIMIT:
        raise ValidationError(
            f"exhaustive search supports at most {_SEARCH_RAY_LIMIT} rays, got {count_rays}"
        )
    position = {ray.ray_id: i for i, ray in enumerate(system.rays)}
    tetrads = [sum(1 << position[rid] for rid in basis.ray_ids) for basis in system.bases]
    closes = [0] * count_rays  # tetrads holding each ray, by tetrad index
    forbids = [0] * count_rays  # rays sharing a tetrad with each ray, itself included
    covered = 0
    for t, mask in enumerate(tetrads):
        covered |= mask
        for i in _bits(mask):
            closes[i] |= 1 << t
            forbids[i] |= mask

    def cover(open_tetrads: int, usable: int) -> tuple[int, int]:
        # Bits are disjoint across levels, so a branch's smallest mask is
        # its ray bit plus the smallest mask below it.
        if not open_tetrads:
            return 1, 0
        choices = min((tetrads[t] & usable for t in _bits(open_tetrads)), key=int.bit_count)
        count, smallest = 0, 0
        for i in _bits(choices):
            sub_count, sub_smallest = cover(open_tetrads & ~closes[i], usable & ~forbids[i])
            if sub_count:
                candidate = (1 << i) | sub_smallest
                if not count or candidate < smallest:
                    smallest = candidate
                count += sub_count
        return count, smallest

    count, smallest = cover((1 << len(tetrads)) - 1, covered)
    if not count:
        return 0, None
    free = count_rays - covered.bit_count()
    return count << free, [(smallest >> i) & 1 for i in range(count_rays)]


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parity_certificate(system: KSSystem) -> bool:
    """Parity proof that no one-per-tetrad assignment exists.

    Requires each ray in exactly two tetrads and an odd number of tetrads.
    Summing any assignment over tetrads counts every marked ray twice
    (even), yet one mark per tetrad would make the sum equal the odd
    tetrad count; the obstruction therefore applies whenever the
    preconditions hold.
    """
    incidence = system.incidence()
    bad = [rid for rid, hits in sorted(incidence.items()) if len(hits) != 2]
    if bad:
        raise ValidationError(
            f"incidence precondition unmet: rays {bad} are not in exactly two tetrads"
        )
    if len(system.bases) % 2 == 0:
        raise ValidationError(
            f"parity argument needs an odd number of tetrads, got {len(system.bases)}"
        )
    return True


class ContractMenu:
    """One contract per tetrad: payouts on the tetrad's four outcomes.

    The state prices the outcome probabilities; the optional kernel allows
    quoting each contract's present value.
    """

    __slots__ = ("system", "payout_tables", "state", "kernel")

    def __init__(
        self,
        system: KSSystem,
        payout_tables,
        state: DensityMatrix,
        kernel: PricingKernel | None = None,
        *,
        tol: Tolerances = DEFAULT_TOLERANCES,
    ):
        try:
            table = np.array(payout_tables, dtype=float)
        except ValueError as exc:
            raise DimensionMismatchError(
                f"payout table must be a rectangular array of reals: {exc}"
            ) from None
        if table.ndim != 2 or table.shape != (len(system.bases), 4):
            raise DimensionMismatchError(
                f"payout table shape {table.shape} does not match "
                f"({len(system.bases)}, 4) contracts-by-outcomes"
            )
        if not np.isfinite(table).all() or (table < 0).any():
            raise ValidationError("contract payouts must be finite and nonnegative")
        if state.dim != 4:
            raise DimensionMismatchError(f"menu state must have dimension 4, got {state.dim}")
        if kernel is not None and kernel.dim != 4:
            raise DimensionMismatchError(f"menu kernel must have dimension 4, got {kernel.dim}")
        table.setflags(write=False)
        self.system = system
        self.payout_tables = table
        self.state = state
        self.kernel = kernel


def _outcome_probabilities(
    system: KSSystem, state: DensityMatrix, tol: Tolerances
) -> np.ndarray:
    # The integer rays enter the quadratic form unnormalised; dividing them first
    # by |r| would change the rounding of every menu probability.
    rays = np.array([system.ray(rid).components for b in system.bases for rid in b.ray_ids])
    weights = _quadratic_forms(state.entries, rays.astype(complex)) / (rays * rays).sum(axis=1)
    return _probabilities(weights, tol).reshape(len(system.bases), 4)


def menu_probabilities(menu: ContractMenu, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Outcome probabilities of the menu state, one row per contract."""
    return _outcome_probabilities(menu.system, menu.state, tol)


def menu_prices(menu: ContractMenu, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Present value of each contract under the menu's kernel."""
    if menu.kernel is None:
        raise ValidationError("menu has no pricing kernel")
    weights = _outcome_probabilities(menu.system, menu.kernel.q, tol)
    return menu.kernel.discount * np.sum(menu.payout_tables * weights, axis=1)


def choose_contract(
    menu: ContractMenu,
    utility=None,
    *,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[int, np.ndarray]:
    """Pick the best contract: expected utility, or expected payout without one.

    Returns the lowest index among maximizers together with every
    contract's score.
    """
    probabilities = menu_probabilities(menu, tol=tol)
    table = menu.payout_tables
    if utility is None:
        scores = np.sum(table * probabilities, axis=1)
    else:
        if (table <= 0).any():
            raise ValidationError("utility scoring requires strictly positive payouts")
        scores = np.sum(utility.value(table) * probabilities, axis=1)
    return int(np.argmax(scores)), scores
