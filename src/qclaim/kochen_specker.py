"""Orthogonality systems of integer rays in real 4-space, and their contract menu.

A system is any list of integer rays with tetrads naming four of them each;
``cabello_system`` is the embedded 18-ray, 9-tetrad one.  A tetrad is sound
when its rays are pairwise orthogonal, decided exactly in integers: four
such nonzero rays form an orthogonal basis, whose normalized projectors sum
to the identity exactly, so soundness has no floating-point check.

``search_colourings`` counts, as an exact cover, the {0, 1} assignments
marking exactly one ray per tetrad.  ``parity_certificate`` proves there
are none when each ray sits in exactly two tetrads and the tetrad count is
odd, as in the embedded system; then no assignment of definite outcomes to
the rays, one per measurement and the same in every tetrad, exists.

The structure check, the search and the parity argument are integer
arithmetic and load no numpy.  Only the contract menu imports it, when it
runs: each tetrad is a contract paying on the four outcomes of its
measurement, and a menu accepts only sound tetrads, so each contract's
outcome probabilities sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from . import _EXPORTS
from .errors import DimensionMismatchError, ValidationError, is_integer, numeric_array

if TYPE_CHECKING:
    import numpy as np

    from .pricing import PricingKernel
    from .quantum import DensityMatrix

__all__ = _EXPORTS["kochen_specker"]

_SEARCH_RAY_LIMIT = 30
# Bound on |component|: every dot product and squared norm is at most
# 2**42, so it is exact in int64 and float64 alike.
_MAX_COMPONENT = 1 << 20
# Ray pairs within a tetrad, in the order their dot products are reported.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

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
        if not is_integer(self.ray_id) or self.ray_id < 0:
            raise ValidationError(f"ray id must be a nonnegative integer, got {self.ray_id!r}")
        comps = self.components
        ints = _four_ints(comps)
        if ints is None:
            raise ValidationError(f"ray components must be 4 integers, got {comps!r}")
        if not any(ints):
            raise ValidationError(f"ray {self.ray_id} is the zero vector")
        if min(ints) < -_MAX_COMPONENT or max(ints) > _MAX_COMPONENT:
            raise ValidationError(
                f"ray {self.ray_id} has a component beyond the bound |c| <= 2**20"
            )
        object.__setattr__(self, "components", ints)


@dataclass(frozen=True)
class KSBasis:
    """Four ray ids intended to form an orthogonal tetrad."""

    ray_ids: tuple[int, int, int, int]

    def __post_init__(self):
        ids = self.ray_ids
        ints = _four_ints(ids)
        if ints is None:
            raise ValidationError(f"a tetrad must reference 4 ray ids, got {ids!r}")
        if len(set(ints)) != 4:
            raise ValidationError(f"tetrad ray ids must be distinct, got {ids!r}")
        object.__setattr__(self, "ray_ids", ints)


def _four_ints(values) -> tuple[int, int, int, int] | None:
    """``values`` as 4 plain ints, or None unless it holds 4 integers (``is_integer``)."""
    if len(values) != 4:
        return None
    a, b, c, d = values
    if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
        return (a, b, c, d)
    return tuple(map(int, values)) if all(map(is_integer, values)) else None


class KSSystem:
    """Rays plus tetrads referencing them by id.

    Construction checks only well-formedness: resolvable distinct ids, and
    rays distinct as directions, so no ray is a nonzero multiple of another
    (both would be one projector).  Whether the tetrads are genuinely
    orthogonal is the job of structure_diagnostics, so defective systems
    can be built and examined.  How many tetrads hold each ray is a
    precondition of parity_certificate, not of soundness.
    """

    __slots__ = ("rays", "bases", "_by_id", "_incidence")

    def __init__(self, rays, bases):
        rays = tuple(rays)
        bases = tuple(bases)
        if not rays or not bases:
            raise ValidationError("a system needs at least one ray and one tetrad")
        by_id: dict[int, KSRay] = {}
        hits: dict[int, list[int]] = {}
        # One pass over the direction classes, each keyed by its primitive
        # vector (components divided by their gcd, first nonzero one
        # positive).  The clash reported is the one whose first ray comes
        # earliest, paired with that class's second ray: the first pair
        # i < j found by comparing every pair in order.
        first_of: dict[tuple[int, ...], int] = {}
        clash: tuple[int, int] | None = None
        for position, ray in enumerate(rays):
            if not isinstance(ray, KSRay):
                raise ValidationError(f"expected KSRay, got {type(ray).__name__}")
            if ray.ray_id in by_id:
                raise ValidationError(f"duplicate ray id {ray.ray_id}")
            by_id[ray.ray_id] = ray
            hits[ray.ray_id] = []
            c = ray.components
            g = gcd(*c)
            if g != 1:
                c = (c[0] // g, c[1] // g, c[2] // g, c[3] // g)
            key = c if (c[0] or c[1] or c[2] or c[3]) > 0 else (-c[0], -c[1], -c[2], -c[3])
            first = first_of.setdefault(key, position)
            if first != position and (clash is None or first < clash[0]):
                clash = (first, position)
        if clash is not None:
            a, b = rays[clash[0]], rays[clash[1]]
            c = b.components
            if a.components in (c, (-c[0], -c[1], -c[2], -c[3])):
                raise ValidationError(f"rays {a.ray_id} and {b.ray_id} coincide up to sign")
            raise ValidationError(f"rays {a.ray_id} and {b.ray_id} are parallel")
        for b, basis in enumerate(bases):
            if not isinstance(basis, KSBasis):
                raise ValidationError(f"expected KSBasis, got {type(basis).__name__}")
            for rid in basis.ray_ids:
                if rid not in by_id:
                    raise ValidationError(f"tetrad {b} references unknown ray id {rid}")
                hits[rid].append(b)
        self.rays = rays
        self.bases = bases
        self._by_id = by_id
        self._incidence = MappingProxyType({rid: tuple(h) for rid, h in hits.items()})

    def ray(self, ray_id: int) -> KSRay:
        return self._by_id[ray_id]

    def incidence(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only map from ray id to the indices of the tetrads containing it."""
        return self._incidence

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


def structure_diagnostics(system: KSSystem) -> list[str]:
    """One message per nonzero dot product of two rays in a tetrad; empty when sound."""
    problems = []
    for b, basis in enumerate(system.bases):
        ids = basis.ray_ids
        comps = [system.ray(rid).components for rid in ids]
        for i, j in _PAIRS:
            (a0, a1, a2, a3), (b0, b1, b2, b3) = comps[i], comps[j]
            product = a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
            if product:
                problems.append(f"tetrad {b}: rays {ids[i]} and {ids[j]} have dot product {product}")
    return problems


def search_colourings(system: KSSystem) -> tuple[int, list[int] | None]:
    """Count {0,1} assignments marking exactly one ray per tetrad.

    Returns the count and, if any exist, the witness with the smallest
    mask sum(a_i 2^i), listed in ray order.  The count is an exact cover
    over bit masks: each tetrad is a column needing exactly one marked ray,
    the search branches on the open tetrad with the fewest usable rays, and
    marking a ray closes every tetrad holding it and forbids their other
    rays.  Rays in no tetrad are free and double the count.

    Each subproblem (open tetrads, usable rays) is solved once: its count
    and smallest mask are cached, for this call only, and reused on every
    other path that reaches it, so T disjoint tetrads cost about T^2
    tetrad scans rather than 4^T.  The cache is exact because both values
    depend on the subproblem alone.  The number of covers does not depend
    on which column the search branches on, and a branch's ray bit is
    disjoint from every mask below it, so the branch's smallest mask is
    that bit OR the smallest mask below.
    """
    count_rays = len(system.rays)
    if count_rays > _SEARCH_RAY_LIMIT:
        raise ValidationError(
            f"exhaustive search supports at most {_SEARCH_RAY_LIMIT} rays, got {count_rays}"
        )
    position = {ray.ray_id: i for i, ray in enumerate(system.rays)}
    tetrads = []
    closes = [0] * count_rays  # tetrads holding each ray, by tetrad index
    forbids = [0] * count_rays  # rays sharing a tetrad with each ray, itself included
    covered = 0
    for t, basis in enumerate(system.bases):
        members = [position[rid] for rid in basis.ray_ids]
        mask = sum(1 << i for i in members)
        tetrads.append(mask)
        covered |= mask
        for i in members:
            closes[i] |= 1 << t
            forbids[i] |= mask

    solved: dict[tuple[int, int], tuple[int, int]] = {}

    def cover(open_tetrads: int, usable: int) -> tuple[int, int]:
        if not open_tetrads:
            return 1, 0
        key = (open_tetrads, usable)
        known = solved.get(key)
        if known is not None:
            return known
        # Branch on the first open tetrad with the fewest usable rays, but
        # stop at one with 0 or 1: it branches at most once.
        choices, fewest, rest = 0, 5, open_tetrads
        while rest:
            low = rest & -rest
            rest ^= low
            mask = tetrads[low.bit_length() - 1] & usable
            size = mask.bit_count()
            if size < fewest:
                choices, fewest = mask, size
                if size < 2:
                    break
        count, smallest = 0, 0
        while choices:
            low = choices & -choices
            choices ^= low
            i = low.bit_length() - 1
            sub_count, sub_smallest = cover(open_tetrads & ~closes[i], usable & ~forbids[i])
            if sub_count:
                candidate = low | sub_smallest
                if not count or candidate < smallest:
                    smallest = candidate
                count += sub_count
        solved[key] = count, smallest
        return count, smallest

    count, smallest = cover((1 << len(tetrads)) - 1, covered)
    if not count:
        return 0, None
    free = count_rays - covered.bit_count()
    return count << free, [(smallest >> i) & 1 for i in range(count_rays)]


def parity_certificate(system: KSSystem) -> bool:
    """Parity proof that no one-per-tetrad assignment exists: True, or ``ValidationError``.

    The proof needs each ray in exactly two tetrads and an odd number of
    tetrads; the error names the precondition that is unmet.  Summing any
    assignment over tetrads counts every marked ray twice (even), yet one
    mark per tetrad would make the sum equal the odd tetrad count.
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
    quoting each contract's present value.  Every tetrad must be exactly
    orthogonal, so that each contract's outcome probabilities sum to one.
    """

    __slots__ = ("system", "payout_tables", "state", "kernel")

    def __init__(
        self,
        system: KSSystem,
        payout_tables,
        state: DensityMatrix,
        kernel: PricingKernel | None = None,
    ):
        self.payout_tables = _payout_table(system, payout_tables)
        self.state = _four_dimensional(state, "state")
        self.kernel = None if kernel is None else _four_dimensional(kernel, "kernel")
        problems = structure_diagnostics(system)
        if problems:
            raise ValidationError(problems[0])
        self.system = system


# The menu's argument checks, in the order ContractMenu applies them; each
# rejects one argument, so a caller can name it.


def _payout_table(system: KSSystem, payout_tables) -> np.ndarray:
    table = numeric_array(payout_tables, "payout table", ndim=2)
    if table.shape != (len(system.bases), 4):
        raise DimensionMismatchError(
            f"payout table shape {table.shape} does not match "
            f"({len(system.bases)}, 4) contracts-by-outcomes"
        )
    if (table < 0).any():
        raise ValidationError("contract payouts must be finite and nonnegative")
    table.setflags(write=False)
    return table


def _four_dimensional(operator, role: str):
    if operator.dim != 4:
        raise DimensionMismatchError(f"menu {role} must have dimension 4, got {operator.dim}")
    return operator


def _outcome_probabilities(system: KSSystem, state: DensityMatrix) -> np.ndarray:
    import numpy as np

    from .quantum import _probabilities, _quadratic_forms

    # The integer rays enter the quadratic form unnormalised; dividing them first
    # by |r| would change the rounding of every menu probability.
    rays = np.array([system.ray(rid).components for b in system.bases for rid in b.ray_ids])
    weights = _quadratic_forms(state.entries, rays.astype(complex)) / (rays * rays).sum(axis=1)
    return _probabilities(weights).reshape(len(system.bases), 4)


def menu_probabilities(menu: ContractMenu) -> np.ndarray:
    """Outcome probabilities of the menu state, one row per contract."""
    return _outcome_probabilities(menu.system, menu.state)


def menu_prices(menu: ContractMenu) -> np.ndarray:
    """Present value of each contract under the menu's kernel."""
    if menu.kernel is None:
        raise ValidationError("menu has no pricing kernel")
    import numpy as np

    weights = _outcome_probabilities(menu.system, menu.kernel.q)
    return menu.kernel.discount * np.sum(menu.payout_tables * weights, axis=1)


def choose_contract(menu: ContractMenu, utility=None) -> tuple[int, np.ndarray]:
    """Pick the best contract: expected utility, or expected payout without one.

    Returns the lowest index among maximizers together with every
    contract's score.
    """
    import numpy as np

    probabilities = menu_probabilities(menu)
    table = menu.payout_tables
    if utility is None:
        scores = np.sum(table * probabilities, axis=1)
    else:
        if (table <= 0).any():
            raise ValidationError("utility scoring requires strictly positive payouts")
        scores = np.sum(utility.value(table) * probabilities, axis=1)
    return int(np.argmax(scores)), scores
