"""Reference sweep: the scaling figures of the ROADMAP baseline table.

    python3 perfbench/sweep.py

Times ``calibrate`` at n = 8/16/24 (n^2 quotes), ``check_axioms`` at n = 64
with 16 claims, ``basis_marginals`` at n = 64, and ``search_colourings`` on
the paper's 18 rays, a 22-ray subset of Peres's set, Peres's 24 rays and a
26-ray set (Peres's plus one more tetrad).  Each figure is the best of a
few in-process repeats, on one BLAS thread.  These are recorded figures,
not benchmark metrics; results also go to ``.perfbench-out/sweep.json``.
"""

from __future__ import annotations

import json
import time

# run sets the BLAS thread count, which numpy reads when it loads.
from run import OUT, import_qclaim  # isort: skip

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402


def best_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def ks_system(qc, rays, tetrads):
    return qc.KSSystem(
        [qc.KSRay(i, tuple(r)) for i, r in enumerate(rays)],
        [qc.KSBasis(tuple(int(i) for i in t)) for t in tetrads],
    )


def main() -> None:
    qc = import_qclaim()
    rng = np.random.default_rng(2024)
    figures = {}

    def claim(n):
        return qc.FinancialClaim(qc.MeasurementBasis(ref.random_unitary_rows(rng, n)), rng.uniform(0.1, 2.0, size=n))

    for n in (8, 16, 24):
        kernel = qc.PricingKernel(0.95, qc.DensityMatrix(ref.random_density(rng, n)))
        quotes = [(c, qc.price(kernel, c)) for c in (claim(n) for _ in range(n * n))]
        figures[f"calibrate n={n} ({n * n} quotes)"] = best_ms(lambda: qc.calibrate(n, 0.95, quotes), 3)

    n = 64
    state = qc.DensityMatrix(ref.random_density(rng, n))
    kernel = qc.PricingKernel(0.95, qc.DensityMatrix(ref.random_density(rng, n)))
    claims = [claim(n) for _ in range(16)]
    figures["check_axioms n=64, 16 claims"] = best_ms(lambda: qc.check_axioms(kernel, state, claims), 3)
    basis = qc.MeasurementBasis(ref.random_unitary_rows(rng, n))
    figures["basis_marginals n=64"] = best_ms(lambda: qc.basis_marginals(state, basis), 200)

    peres = ref.peres_rays()
    tetrads = ref.orthogonal_tetrads(peres)
    ceg = [i for i, r in enumerate(peres) if r not in ref.CEG_OMITTED]
    sub22 = [i for i in range(24) if i not in (0, 10)]
    extra = [(1, 2, 0, 0), (2, -1, 0, 0)]
    systems = {
        "18 rays (paper's system)": (ceg, peres, tetrads),
        "22 rays (Peres subset)": (sub22, peres, tetrads),
        "24 rays (Peres)": (list(range(24)), peres, tetrads),
        "26 rays (Peres plus one tetrad)": (list(range(26)), peres + extra, tetrads + [(24, 25, 2, 3)]),
    }
    for label, (keep, rays, quads) in systems.items():
        local = [tuple(keep.index(i) for i in t) for t in quads if set(t) <= set(keep)]
        system = ks_system(qc, [rays[i] for i in keep], local)
        repeats = 3 if len(keep) <= 22 else 1
        figures[f"search_colourings {label}, {len(local)} tetrads"] = best_ms(lambda: qc.search_colourings(system), repeats)

    width = max(map(len, figures))
    for label, ms in figures.items():
        print(f"{label:{width}s} {ms:10.2f} ms")
    OUT.mkdir(exist_ok=True)
    (OUT / "sweep.json").write_text(json.dumps(figures, indent=1) + "\n")


if __name__ == "__main__":
    main()
