"""What importing qclaim loads, and what the package namespace exports.

The ``ks`` subcommand is integer arithmetic, so a process that imports the
CLI and runs it must not load numpy or the numeric modules.  The package
resolves every other public name on first access; these tests pin the
exported names, each bound to the object its submodule defines and each
named by a caller outside the unit tests, and the README's table of
modules, and keep every module from reading the process environment.  Fresh interpreters run the import checks, since the test
process itself has long since loaded everything.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qclaim

SRC = Path(qclaim.__file__).parents[1]
REPO = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"
README = REPO / "README.md"

NUMERIC = ("numpy", "qclaim.quantum", "qclaim.pricing", "qclaim.investment", "qclaim.portfolio")

# The package's exports, by defining module.
EXPORTS = {
    "errors": (
        "CalibrationError",
        "DegenerateMarginalError",
        "DimensionMismatchError",
        "NumericalError",
        "QClaimError",
        "SolverError",
        "ValidationError",
    ),
    "investment": (
        "DivergenceReport",
        "OptimalInvestment",
        "ReturnReport",
        "UtilityFunction",
        "excess_return_factor",
        "expected_utility",
        "kl_divergence",
        "optimal_payouts",
        "rate_of_return",
        "solve_multiplier",
        "verify_optimality",
    ),
    "kochen_specker": (
        "ContractMenu",
        "KSBasis",
        "KSRay",
        "KSSystem",
        "cabello_system",
        "choose_contract",
        "menu_prices",
        "menu_probabilities",
        "parity_certificate",
        "search_colourings",
        "structure_diagnostics",
    ),
    "portfolio": (
        "CorrelationReport",
        "PortfolioObservable",
        "TwoPartyState",
        "is_ppt",
        "nparty_expected_payout",
        "nparty_portfolio_operator",
        "payout_covariance",
        "portfolio_expected_payout",
        "portfolio_observable",
        "portfolio_price",
        "product_state",
        "separable_mixture",
    ),
    "pricing": (
        "AxiomReport",
        "FinancialClaim",
        "PricingKernel",
        "arrow_debreu",
        "calibrate",
        "check_axioms",
        "discount_bond",
        "expected_payout",
        "price",
    ),
    "quantum": (
        "DensityMatrix",
        "HermitianOperator",
        "MeasurementBasis",
        "Spectrum",
        "absolutely_continuous",
        "basis_marginals",
        "eigendecompose",
        "equivalent_states",
        "from_spectrum",
        "standard_basis",
        "subsystem_marginal",
    ),
    "tolerances": ("DEFAULT_TOLERANCES", "Tolerances"),
}
EXPORTED = sorted({name for names in EXPORTS.values() for name in names} | EXPORTS.keys())


def fresh(code: str):
    """Run ``code`` in a new interpreter on this source tree; returns what it printed as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_ks_run_loads_no_numeric_module(tmp_path):
    out = tmp_path / "report.json"
    argv = ["ks", "--scenario", str(GOLDEN / "ks.scenario.json"), "--out", str(out)]
    seen = fresh(
        "import json, sys\n"
        "from qclaim.cli import main\n"
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('qclaim.'))\n"
        f"code = main({argv!r})\n"
        f"print(json.dumps([code, loaded, [m for m in {NUMERIC!r} if m in sys.modules]]))\n"
    )
    code, loaded_by_import, numeric_after_run = seen
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "ks.report.json").read_bytes()
    assert loaded_by_import == [
        "qclaim.cli",
        "qclaim.errors",
        "qclaim.kochen_specker",
        "qclaim.serialization",
        "qclaim.tolerances",
    ]
    assert numeric_after_run == []


def test_unsound_ks_run_loads_no_numeric_module(tmp_path):
    # One tetrad in which ray 3 meets rays 0 and 1 at dot product 1.
    rays = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 0, 1]]
    system = {"rays": rays, "bases": [[0, 1, 2, 3]]}
    scenario = tmp_path / "unsound.json"
    scenario.write_text(json.dumps({"kind": "ks", "payload": {"system": system}}))
    out = tmp_path / "report.json"
    argv = ["ks", "--scenario", str(scenario), "--out", str(out)]
    code, numeric_after_run = fresh(
        "import json, sys\n"
        "from qclaim.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(json.dumps([code, [m for m in {NUMERIC!r} if m in sys.modules]]))\n"
    )
    assert code == 0
    assert numeric_after_run == []
    report = json.loads(out.read_text())
    assert report["results"]["structure_ok"] is False
    assert report["diagnostics"] == [
        "tetrad 0: rays 0 and 3 have dot product 1",
        "tetrad 0: rays 1 and 3 have dot product 1",
        "parity certificate unavailable: incidence precondition unmet: "
        "rays [0, 1, 2, 3] are not in exactly two tetrads",
    ]


def test_every_export_resolves_to_its_module_attribute_in_a_fresh_process():
    # Each name is read from the package first, before its module is imported.
    identical = fresh(
        "import importlib, json, qclaim\n"
        f"exports = {EXPORTS!r}\n"
        "got = {n: getattr(qclaim, n) for names in exports.values() for n in names}\n"
        "mods = {m: getattr(qclaim, m) for m in exports}\n"
        "print(json.dumps(sorted(\n"
        "    [n for m, names in exports.items() for n in names\n"
        "     if got[n] is getattr(importlib.import_module('qclaim.' + m), n)]\n"
        "    + [m for m in exports if mods[m] is importlib.import_module('qclaim.' + m)])))\n"
    )
    assert identical == EXPORTED


def test_star_import_and_dir_cover_the_exports():
    namespace: dict = {}
    exec("from qclaim import *", namespace)
    assert sorted(k for k in namespace if not k.startswith("_")) == EXPORTED
    assert sorted(qclaim.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(qclaim))


def test_names_are_resolved_on_each_access(monkeypatch):
    # A name rebound in its module is what the package returns, so wrapping
    # a function in its module wraps it for callers that go through qclaim.
    def stand_in(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(qclaim.pricing, "calibrate", stand_in)
    assert qclaim.calibrate is stand_in


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        qclaim.not_a_name
    assert not hasattr(qclaim, "np")


# Exports that nothing reaches yet, each kept for a planned caller: the properties of
# correlation claims (ROADMAP item 8) build their states with these two.
AWAITING_A_CALLER = {"product_state", "separable_mixture"}


def test_every_export_has_a_caller_or_a_property():
    # An export stays when another module, a benchmark workload or a property test of
    # the paper's identities names it; a name only the unit tests reach restates a call.
    callers = [path for path in (SRC / "qclaim").glob("*.py") if path.stem != "__init__"]
    callers += [REPO / "perfbench" / "workloads.py", REPO / "perfbench" / "sweep.py"]
    callers.append(Path(__file__).parent / "test_properties.py")
    named = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    exported = {name for names in qclaim._EXPORTS.values() for name in names}
    assert sorted(exported - named) == sorted(AWAITING_A_CALLER)


def test_readme_library_layout_lists_every_module():
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    listed = re.findall(r"^\| `qclaim\.(\w+)` +\|", section, re.M)
    modules = [path.stem for path in (SRC / "qclaim").glob("*.py") if path.stem != "__init__"]
    assert sorted(listed) == sorted(modules)


def _reads_tolerance(node) -> bool:
    # Each module that gates binds DEFAULT_TOLERANCES as TOL and reads its fields there.
    return any(
        isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "TOL"
        for n in ast.walk(node)
    )


def test_no_tolerance_gate_lets_nan_through():
    # Every comparison with NaN is false, so a gate written ``x > TOL.f`` or ``x < -TOL.f``
    # passes NaN.  An ``if`` that raises must not compare with > or < against a tolerance;
    # gates are written ``not x <= TOL.f``, which NaN fails.
    inspected, loose = [], []
    for path in sorted((SRC / "qclaim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.If):
                continue
            if not any(isinstance(n, ast.Raise) for statement in node.body for n in ast.walk(statement)):
                continue
            for compare in (n for n in ast.walk(node.test) if isinstance(n, ast.Compare)):
                sides = [compare.left, *compare.comparators]
                for op, left, right in zip(compare.ops, sides, sides[1:]):
                    if _reads_tolerance(left) or _reads_tolerance(right):
                        inspected.append(f"{path.name}:{compare.lineno}")
                        if isinstance(op, (ast.Gt, ast.Lt)):
                            loose.append(inspected[-1])
    # A renamed record would leave nothing to inspect.  11 since the eigendecomposition
    # reconstruction and portfolio additivity gates went: those identities hold by construction.
    assert len(inspected) >= 11
    assert loose == []


def _module_imports(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import at module level, including under a top-level ``if``."""
    bound = {}
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, ast.If):
            statements += node.body + node.orelse
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_every_module_import_is_used():
    # The CLI reaches its payload decoders by name through ``_DECODERS``, so a
    # decoder named there counts as used.
    from qclaim.cli import _DECODERS

    unused = []
    for path in sorted((SRC / "qclaim").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if path.stem == "cli":
            used |= set(_DECODERS.values())
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _module_imports(tree).items()
            if name not in used
        ]
    assert unused == []


_ENVIRONMENT = ("environ", "environb", "getenv")


def test_no_module_reads_the_environment():
    # A report is a function of the arguments and the scenario bytes alone, so no module
    # reads ``os.environ``, ``os.environb`` or ``os.getenv``, nor imports them from ``os``.
    reads = []
    for path in sorted((SRC / "qclaim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
                names = [node.attr]
            else:
                continue
            reads += [f"{path.name}:{node.lineno} os.{name}" for name in names if name in _ENVIRONMENT]
    assert reads == []
