import itertools
import time

import numpy as np
import pytest

import qclaim as qc


def ray7_state():
    # pure state on the direction (1,-1,1,-1)/2
    v = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    return qc.DensityMatrix(np.outer(v, v))


def test_ray_validation():
    ray = qc.KSRay(0, (1, 0, -1, 0))
    assert ray.norm_squared() == 2
    assert ray.dot(qc.KSRay(1, (1, 0, 1, 0))) == 0
    with pytest.raises(qc.ValidationError):
        qc.KSRay(-1, (1, 0, 0, 0))
    with pytest.raises(qc.ValidationError):
        qc.KSRay(0, (0, 0, 0, 0))
    with pytest.raises(qc.ValidationError):
        qc.KSRay(0, (1, 0, 0))
    with pytest.raises(qc.ValidationError):
        qc.KSRay(0, (True, False, False, False))
    assert qc.KSRay(0, (2**20, -(2**20), 0, 1)).norm_squared() == 2**41 + 1
    for big in (2**20 + 1, -(2**20) - 1, 3037000500, 10**400):
        with pytest.raises(qc.ValidationError, match=r"\|c\| <= 2\*\*20"):
            qc.KSRay(0, (1, 0, big, 0))


def test_basis_validation():
    qc.KSBasis((0, 1, 2, 3))
    with pytest.raises(qc.ValidationError):
        qc.KSBasis((0, 1, 2, 2))
    with pytest.raises(qc.ValidationError):
        qc.KSBasis((0, 1, 2))


def test_system_well_formedness():
    rays = [qc.KSRay(i, (1, i + 1, 0, 0)) for i in range(4)]
    with pytest.raises(qc.ValidationError, match="unknown ray id"):
        qc.KSSystem(rays, [qc.KSBasis((0, 1, 2, 9))])
    with pytest.raises(qc.ValidationError, match="duplicate ray id"):
        qc.KSSystem(rays + [qc.KSRay(0, (2, 1, 0, 0))], [qc.KSBasis((0, 1, 2, 3))])
    with pytest.raises(qc.ValidationError, match="up to sign"):
        qc.KSSystem(
            rays + [qc.KSRay(9, (-1, -1, 0, 0))], [qc.KSBasis((0, 1, 2, 3))]
        )
    # Two classes clash; the one whose first ray comes first is named,
    # although the other class's clash is met first in ray order.
    a, b = qc.KSRay(5, (1, 2, 0, 0)), qc.KSRay(6, (0, 0, 1, 0))
    clashing = [a, b, qc.KSRay(7, (0, 0, -1, 0)), qc.KSRay(8, (-1, -2, 0, 0))]
    with pytest.raises(qc.ValidationError, match="^rays 5 and 8 coincide up to sign$"):
        qc.KSSystem(clashing, [qc.KSBasis((5, 6, 7, 8))])


def test_embedded_system_shape():
    system = qc.cabello_system()
    assert len(system.rays) == 18
    assert len(system.bases) == 9
    assert [ray.ray_id for ray in system.rays] == list(range(18))
    components = {c for ray in system.rays for c in ray.components}
    assert components <= {-1, 0, 1}
    assert system.ray(0).components == (0, 0, 0, 1)
    assert system.ray(9).components == (1, 1, 0, 0)
    assert system.incidence()[9] == (2, 8)
    assert all(len(hits) == 2 for hits in system.incidence().values())


def test_embedded_system_structure():
    system = qc.cabello_system()
    assert qc.structure_diagnostics(system) == []
    assert qc.verify_structure(system)


def broken_sign_system():
    # flip one component of ray 7 in tetrad 3 only
    system = qc.cabello_system()
    rays = list(system.rays) + [qc.KSRay(18, (1, -1, 1, 1))]
    bases = list(system.bases)
    ids = tuple(18 if rid == 7 else rid for rid in bases[3].ray_ids)
    bases[3] = qc.KSBasis(ids)
    return qc.KSSystem(rays, bases)


def test_single_sign_flip_breaks_structure():
    system = broken_sign_system()
    problems = qc.structure_diagnostics(system)
    assert not qc.verify_structure(system)
    assert any("dot product" in p for p in problems)
    assert any("expected 2" in p for p in problems)
    with pytest.raises(qc.ValidationError, match="exactly two"):
        qc.parity_certificate(system)


def test_duplicated_tetrad_breaks_structure():
    system = qc.cabello_system()
    doubled = qc.KSSystem(system.rays, list(system.bases) + [system.bases[0]])
    assert not qc.verify_structure(doubled)
    with pytest.raises(qc.ValidationError):
        qc.parity_certificate(doubled)


def single_tetrad_system():
    rays = [
        qc.KSRay(0, (1, 0, 0, 0)),
        qc.KSRay(1, (0, 1, 0, 0)),
        qc.KSRay(2, (0, 0, 1, 0)),
        qc.KSRay(3, (0, 0, 0, 1)),
    ]
    return qc.KSSystem(rays, [qc.KSBasis((0, 1, 2, 3))])


def test_search_single_tetrad():
    count, witness = qc.search_colourings(single_tetrad_system())
    assert count == 4
    assert witness is not None and sum(witness) == 1


def test_search_two_disjoint_tetrads():
    rays = [
        qc.KSRay(0, (1, 0, 0, 0)),
        qc.KSRay(1, (0, 1, 0, 0)),
        qc.KSRay(2, (0, 0, 1, 0)),
        qc.KSRay(3, (0, 0, 0, 1)),
        qc.KSRay(4, (1, 1, 1, 1)),
        qc.KSRay(5, (1, 1, -1, -1)),
        qc.KSRay(6, (1, -1, 1, -1)),
        qc.KSRay(7, (1, -1, -1, 1)),
    ]
    system = qc.KSSystem(rays, [qc.KSBasis((0, 1, 2, 3)), qc.KSBasis((4, 5, 6, 7))])
    count, witness = qc.search_colourings(system)
    assert count == 16
    assert witness is not None


def test_embedded_system_has_no_colouring():
    count, witness = qc.search_colourings(qc.cabello_system())
    assert count == 0
    assert witness is None


def test_parity_certificate_on_embedded_system():
    assert qc.parity_certificate(qc.cabello_system())


def test_parity_needs_two_tetrads_per_ray():
    with pytest.raises(qc.ValidationError, match="exactly two"):
        qc.parity_certificate(single_tetrad_system())


def test_parity_needs_odd_tetrad_count():
    rays = [qc.KSRay(i, (1, i + 1, 0, 0)) for i in range(4)]
    system = qc.KSSystem(rays, [qc.KSBasis((0, 1, 2, 3)), qc.KSBasis((0, 1, 2, 3))])
    with pytest.raises(qc.ValidationError, match="odd"):
        qc.parity_certificate(system)


def test_parity_agrees_with_search_on_nine_cycle():
    # doubled 9-cycle: every ray in two tetrads, nine tetrads, no colouring
    rays = [qc.KSRay(k, (1, k + 2, 0, 0)) for k in range(9)]
    rays += [qc.KSRay(9 + k, (0, 0, 1, k + 2)) for k in range(9)]
    bases = [
        qc.KSBasis((i, 9 + i, (i + 1) % 9, 9 + (i + 1) % 9)) for i in range(9)
    ]
    system = qc.KSSystem(rays, bases)
    assert qc.parity_certificate(system)
    count, witness = qc.search_colourings(system)
    assert count == 0 and witness is None


def brute_force_colourings(system):
    """Reference count over every bit mask; the witness is the smallest valid mask."""
    position = {ray.ray_id: i for i, ray in enumerate(system.rays)}
    masks = np.arange(1 << len(system.rays))
    valid = np.ones(masks.size, dtype=bool)
    for basis in system.bases:
        valid &= sum((masks >> position[rid]) & 1 for rid in basis.ray_ids) == 1
    if not valid.any():
        return 0, None
    smallest = int(masks[valid][0])
    return int(valid.sum()), [(smallest >> i) & 1 for i in range(len(system.rays))]


def random_incidence_system(rng):
    # The search reads only the incidence, so rays need not be orthogonal.
    # Ids are shuffled and spaced out, and some rays may sit in no tetrad.
    count_rays = int(rng.integers(4, 17))
    ids = [3 * int(k) + 1 for k in rng.permutation(count_rays)]
    rays = [qc.KSRay(rid, (1, rid, 0, 0)) for rid in ids]
    used = ids[: int(rng.integers(4, count_rays + 1))]
    bases = []
    for _ in range(int(rng.integers(1, 9))):
        if bases and rng.random() < 0.2:
            bases.append(bases[int(rng.integers(len(bases)))])
        else:
            picked = rng.choice(len(used), size=4, replace=False)
            bases.append(qc.KSBasis(tuple(used[int(k)] for k in picked)))
    return qc.KSSystem(rays, bases)


def test_search_matches_brute_force_on_random_systems():
    rng = np.random.default_rng(20230517)
    seen_free = seen_duplicate = seen_colourable = seen_uncolourable = False
    for _ in range(150):
        system = random_incidence_system(rng)
        expected = brute_force_colourings(system)
        assert qc.search_colourings(system) == expected
        incidence = system.incidence()
        seen_free |= any(not hits for hits in incidence.values())
        seen_duplicate |= len(set(system.bases)) < len(system.bases)
        seen_colourable |= expected[0] > 0
        seen_uncolourable |= expected[0] == 0
    assert seen_free and seen_duplicate and seen_colourable and seen_uncolourable


def peres_system():
    """Peres's 24 rays and the 24 orthogonal tetrads among them."""
    comps = set()
    for base in ((1, 0, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0), (1, 1, 1, 1), (1, 1, 1, -1), (1, 1, -1, -1)):
        for perm in itertools.permutations(base):
            comps.add(max(perm, tuple(-c for c in perm)))
    rays = [qc.KSRay(i, c) for i, c in enumerate(sorted(comps))]
    bases = [
        qc.KSBasis(tuple(r.ray_id for r in quad))
        for quad in itertools.combinations(rays, 4)
        if all(a.dot(b) == 0 for a, b in itertools.combinations(quad, 2))
    ]
    return qc.KSSystem(rays, bases)


def test_peres_system_has_no_colouring():
    system = peres_system()
    assert len(system.rays) == 24
    assert len(system.bases) == 24
    assert all(len(hits) == 4 for hits in system.incidence().values())
    start = time.perf_counter()
    count, witness = qc.search_colourings(system)
    elapsed = time.perf_counter() - start
    assert count == 0 and witness is None
    assert elapsed < 0.25


def test_search_ray_limit():
    rays = [qc.KSRay(i, (1, i + 1, 0, 0)) for i in range(31)]
    system = qc.KSSystem(rays, [qc.KSBasis((0, 1, 2, 3))])
    with pytest.raises(qc.ValidationError, match="at most"):
        qc.search_colourings(system)


def test_menu_validation():
    system = qc.cabello_system()
    state = qc.DensityMatrix(np.eye(4) / 4.0)
    staircase = qc.KSSystem(
        [qc.KSRay(i, tuple(int(k <= i) for k in range(4))) for i in range(4)],
        [qc.KSBasis((0, 1, 2, 3))],
    )
    with pytest.raises(qc.ValidationError, match="^tetrad 0: rays 0 and 1 have dot product 1$"):
        qc.ContractMenu(staircase, np.ones((1, 4)), state)
    with pytest.raises(qc.DimensionMismatchError):
        qc.ContractMenu(system, np.ones((8, 4)), state)
    with pytest.raises(qc.ValidationError):
        qc.ContractMenu(system, -np.ones((9, 4)), state)
    with pytest.raises(qc.DimensionMismatchError):
        qc.ContractMenu(system, np.ones((9, 4)), qc.DensityMatrix(np.eye(2) / 2.0))
    ragged = [[1.0, 2.0, 3.0, 4.0]] * 4 + [[1.0, 2.0, 3.0]] + [[1.0, 2.0, 3.0, 4.0]] * 4
    with pytest.raises(qc.DimensionMismatchError, match="rectangular"):
        qc.ContractMenu(system, ragged, state)


def test_menu_probabilities_mixed_state():
    menu = qc.ContractMenu(
        qc.cabello_system(), np.ones((9, 4)), qc.DensityMatrix(np.eye(4) / 4.0)
    )
    prob = qc.menu_probabilities(menu)
    assert prob.shape == (9, 4)
    assert np.allclose(prob, 0.25, atol=1e-14)


def test_menu_probabilities_pure_state():
    v = np.zeros(4)
    v[3] = 1.0  # the direction of ray 0
    menu = qc.ContractMenu(qc.cabello_system(), np.ones((9, 4)), qc.DensityMatrix(np.outer(v, v)))
    prob = qc.menu_probabilities(menu)
    assert np.allclose(prob[0], [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(prob.sum(axis=1), 1.0, atol=1e-12)


def test_choose_contract_uniform_menu():
    menu = qc.ContractMenu(
        qc.cabello_system(), np.ones((9, 4)), qc.DensityMatrix(np.eye(4) / 4.0)
    )
    chosen, scores = qc.choose_contract(menu)
    assert chosen == 0
    assert np.allclose(scores, 1.0, atol=1e-12)


def test_choose_contract_targeted_payout():
    # unit payout on tetrad 3's first outcome only; state aligned with that ray
    table = np.zeros((9, 4))
    table[3, 0] = 1.0
    menu = qc.ContractMenu(qc.cabello_system(), table, ray7_state())
    chosen, scores = qc.choose_contract(menu)
    assert chosen == 3
    assert scores[3] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.delete(scores, 3), 0.0, atol=1e-12)


def test_risk_aversion_changes_the_choice():
    # a lottery beats the flat contract on expectation but not in log terms
    table = np.full((9, 4), 0.5)
    table[2] = [4.0, 0.01, 0.01, 0.01]
    table[5] = 1.0
    menu = qc.ContractMenu(qc.cabello_system(), table, qc.DensityMatrix(np.eye(4) / 4.0))
    by_payout, payout_scores = qc.choose_contract(menu)
    by_log, log_scores = qc.choose_contract(menu, qc.UtilityFunction.log())
    assert by_payout == 2
    assert by_log == 5
    assert payout_scores[2] == pytest.approx(4.03 / 4.0)
    assert log_scores[5] == pytest.approx(0.0, abs=1e-14)


def test_choose_contract_rejects_zero_payouts_under_utility():
    table = np.zeros((9, 4))
    table[3, 0] = 1.0
    menu = qc.ContractMenu(qc.cabello_system(), table, ray7_state())
    with pytest.raises(qc.ValidationError):
        qc.choose_contract(menu, qc.UtilityFunction.log())


def test_menu_prices_require_kernel():
    state = qc.DensityMatrix(np.eye(4) / 4.0)
    menu = qc.ContractMenu(qc.cabello_system(), np.ones((9, 4)), state)
    with pytest.raises(qc.ValidationError):
        qc.menu_prices(menu)
    kernel = qc.PricingKernel(0.9, state)
    priced = qc.ContractMenu(qc.cabello_system(), np.ones((9, 4)), state, kernel)
    assert np.allclose(qc.menu_prices(priced), 0.9, atol=1e-12)


# ------------------------------------------------- references for the checks


def reference_system_error(rays, bases):
    """Message of the first well-formedness fault, comparing every ray pair in order."""
    seen = set()
    for ray in rays:
        if ray.ray_id in seen:
            return f"duplicate ray id {ray.ray_id}"
        seen.add(ray.ray_id)
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            a, b = rays[i].components, rays[j].components
            if a == b or a == tuple(-c for c in b):
                return f"rays {rays[i].ray_id} and {rays[j].ray_id} coincide up to sign"
    for b, basis in enumerate(bases):
        for rid in basis.ray_ids:
            if rid not in seen:
                return f"tetrad {b} references unknown ray id {rid}"
    return None


def reference_structure_diagnostics(system, tol=qc.DEFAULT_TOLERANCES):
    """Integer orthogonality and float completeness on every tetrad, then incidence."""
    problems = []
    for b, basis in enumerate(system.bases):
        members = [system.ray(rid) for rid in basis.ray_ids]
        for i in range(4):
            for j in range(i + 1, 4):
                product = sum(x * y for x, y in zip(members[i].components, members[j].components))
                if product != 0:
                    problems.append(
                        f"tetrad {b}: rays {members[i].ray_id} and {members[j].ray_id} "
                        f"have dot product {product}"
                    )
        total = np.zeros((4, 4))
        for ray in members:
            v = np.array(ray.components, dtype=float)
            total += np.outer(v, v) / float(v @ v)
        gap = float(np.abs(total - np.eye(4)).max())
        if gap > tol.completeness:
            problems.append(f"tetrad {b}: projectors sum to identity only within {gap:.3e}")
    for rid, hits in sorted(system.incidence().items()):
        if len(hits) != 2:
            problems.append(f"ray {rid} appears in {len(hits)} tetrads, expected 2")
    return problems


def random_ray_system(rng, peres_tetrads):
    """4-14 rays with components in {-1, 0, 1, 2}, sometimes seeded with an
    orthogonal Peres tetrad (random signs) and a negated copy of a ray."""
    comps = []
    if rng.random() < 0.5:
        tetrad = peres_tetrads[int(rng.integers(len(peres_tetrads)))]
        comps += [tuple(int(s) * c for c in ray) for s, ray in zip(rng.choice([-1, 1], 4), tetrad)]
    while len(comps) < int(rng.integers(4, 15)):
        candidate = tuple(int(c) for c in rng.choice([-1, 0, 1, 2], size=4))
        if any(candidate):
            comps.append(candidate)
    if rng.random() < 0.2:
        comps.append(tuple(-c for c in comps[int(rng.integers(len(comps)))]))
    order = rng.permutation(len(comps))
    ids = [int(k) for k in rng.choice(100, size=len(comps), replace=False)]
    rays = [qc.KSRay(ids[k], comps[int(order[k])]) for k in range(len(comps))]
    bases = []
    for _ in range(int(rng.integers(1, 6))):
        if rng.random() < 0.5:
            # the rays of the seeded tetrad, wherever they landed
            picked = [k for k in range(len(comps)) if int(order[k]) < 4][:4]
            if len(picked) < 4:
                picked = list(rng.choice(len(comps), size=4, replace=False))
        else:
            picked = list(rng.choice(len(comps), size=4, replace=False))
        bases.append(qc.KSBasis(tuple(ids[int(k)] for k in picked)))
    if rng.random() < 0.05:
        bases.append(qc.KSBasis((ids[0], ids[1], ids[2], 1000)))
    return rays, bases


def test_checks_match_the_pairwise_and_float_references():
    rng = np.random.default_rng(61)
    peres = peres_system()
    peres_tetrads = [[peres.ray(rid).components for rid in b.ray_ids] for b in peres.bases]
    seen = {"clash": 0, "unknown": 0, "orthogonal": 0, "not orthogonal": 0, "several classes": 0}
    for _ in range(2000):
        rays, bases = random_ray_system(rng, peres_tetrads)
        expected = reference_system_error(rays, bases)
        if expected is not None:
            with pytest.raises(qc.ValidationError) as caught:
                qc.KSSystem(rays, bases)
            assert str(caught.value) == expected
            seen["clash" if "sign" in expected else "unknown"] += 1
            keys = [max(r.components, tuple(-c for c in r.components)) for r in rays]
            seen["several classes"] += sum(keys.count(k) > 1 for k in set(keys)) > 1
            continue
        system = qc.KSSystem(rays, bases)
        problems = qc.structure_diagnostics(system)
        assert problems == reference_structure_diagnostics(system)
        for b in range(len(bases)):
            sound = not any(p.startswith(f"tetrad {b}:") for p in problems)
            seen["orthogonal" if sound else "not orthogonal"] += 1
    assert min(seen.values()) >= 20, seen


def test_sound_tetrads_take_no_float_work(monkeypatch):
    def no_outer(*args, **kwargs):
        raise AssertionError("float completeness computed for an orthogonal tetrad")

    monkeypatch.setattr(np, "outer", no_outer)
    assert qc.structure_diagnostics(qc.cabello_system()) == []
    # Peres's rays each sit in four tetrads, which only the incidence rule flags.
    problems = qc.structure_diagnostics(peres_system())
    assert len(problems) == 24
    assert all(p.endswith("appears in 4 tetrads, expected 2") for p in problems)
