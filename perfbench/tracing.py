"""Spans around the public functions of each qclaim module, from outside it.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper in every qclaim namespace that bound it (``from .quantum
import basis_marginals`` binds the name again in ``pricing``,
``investment`` and ``cli``), and wraps the validating constructors and a
few methods on their classes.  Functions that run once per JSON scalar or
key are left alone.  Spans stay in memory with their parent and operation
and are written out when the run ends; a span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "serialization", "quantum", "pricing", "investment", "kochen_specker", "portfolio")

# Called once per scalar or per JSON object key; a span there would cost
# more than the work it measures.
PER_SCALAR = {"real_from_json", "int_from_json", "require_keys"}

VALIDATORS = ("quantum.HermitianOperator", "quantum.DensityMatrix", "quantum.MeasurementBasis")
SPECTRAL = ("quantum.from_spectrum", "quantum.eigendecompose", "pricing.FinancialClaim.as_operator")
DECODERS = tuple(
    f"serialization.{name}"
    for name in (
        "matrix_from_json",
        "basis_from_json",
        "hermitian_from_json",
        "density_from_json",
        "claim_from_json",
        "kernel_from_json",
        "quotes_from_json",
        "utility_from_json",
        "ks_system_from_json",
    )
)

# Per-layer metric -> span names whose self time it sums.
SELF_MS = {
    "cli.self_ms": ("cli.run",),
    "serialization.decode_ms": DECODERS,
    "serialization.render_ms": ("serialization.render_json",),
    "quantum.validate_ms": VALIDATORS,
    "quantum.marginals_ms": ("quantum.basis_marginals",),
    "quantum.spectral_ms": SPECTRAL,
    "pricing.calibrate_ms": ("pricing.calibrate",),
    "pricing.axioms_ms": ("pricing.check_axioms",),
    "investment.optimal_ms": ("investment.optimal_payouts", "investment.solve_multiplier"),
    "investment.verify_ms": ("investment.verify_optimality",),
    "kochen_specker.search_ms": ("kochen_specker.search_colourings",),
    "kochen_specker.structure_ms": ("kochen_specker.structure_diagnostics", "kochen_specker.parity_certificate"),
    "kochen_specker.menu_ms": (
        "kochen_specker.menu_probabilities",
        "kochen_specker.menu_prices",
        "kochen_specker.choose_contract",
    ),
    "portfolio.self_ms": "portfolio.",  # every span of the module
}
# Per-layer metric -> span names whose calls it counts.
CALLS = {
    "serialization.decode_calls": DECODERS,
    "quantum.validations": VALIDATORS,
    "quantum.marginals_calls": ("quantum.basis_marginals",),
    "quantum.spectral_calls": SPECTRAL,
    "pricing.combine_calls": ("pricing.claim_combine",),
}
# Counted without a span: inverse-marginal evaluations inside the budget solver.
BUDGET_EVALS = "investment.budget_evals"

PER_LAYER = (*SELF_MS, *CALLS, BUDGET_EVALS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ops: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- spans

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.ops.append(self.op)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_init(self, name: str, cls):
        tracer, init = self, cls.__init__

        @functools.wraps(init)
        def traced(obj, *args, **kwargs):
            # A subclass constructor that chains here is already one span.
            if type(obj) is not cls:
                return init(obj, *args, **kwargs)
            idx = tracer.open(name)
            try:
                return init(obj, *args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_budget_eval(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.names[stack[-1]] == "investment.solve_multiplier":
                tracer.counts[BUDGET_EVALS] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, qc) -> None:
        namespaces = [qc] + [getattr(qc, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(qc, layer)
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__ or name in PER_SCALAR:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, attr, wrapper)
        for name in VALIDATORS:
            cls = getattr(qc.quantum, name.split(".")[1])
            self._set(cls, "__init__", self._wrap_init(name, cls))
        claim = qc.pricing.FinancialClaim
        self._set(claim, "as_operator", self._wrap(SPECTRAL[2], claim.as_operator))
        utility = qc.investment.UtilityFunction
        self._set(utility, "inverse_marginal", self._wrap_budget_eval(utility.inverse_marginal))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results

    def self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def per_layer(self, ops: int) -> dict[str, float]:
        """Every per-layer metric as a mean per operation (times in ms)."""
        own = self.self_times()
        ms: Counter = Counter()
        calls: Counter = Counter()
        for name, seconds in zip(self.names, own):
            ms[name] += seconds
            calls[name] += 1
        out = {}
        for metric, names in SELF_MS.items():
            if isinstance(names, str):
                total = sum(v for k, v in ms.items() if k.startswith(names))
            else:
                total = sum(ms[k] for k in names)
            out[metric] = 1e3 * total / ops
        for metric, names in CALLS.items():
            out[metric] = sum(calls[k] for k in names) / ops
        out[BUDGET_EVALS] = self.counts[BUDGET_EVALS] / ops
        return out

    def write(self, path: Path) -> None:
        """One tab-separated line per span, times in microseconds from the first span."""
        own = self.self_times()
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\top\tname\tstart_us\tduration_us\tself_us\n")
            for idx, name in enumerate(self.names):
                start, end = self.starts[idx], self.ends[idx]
                out.write(
                    f"{idx}\t{self.parents[idx]}\t{self.ops[idx]}\t{name}\t"
                    f"{1e6 * (start - origin):.1f}\t{1e6 * (end - start):.1f}\t{1e6 * own[idx]:.1f}\n"
                )
