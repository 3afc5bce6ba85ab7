"""Closed-loop benchmark of qclaim: one client, one process, BLAS on one thread.

    python3 perfbench/run.py --workload cli-scenarios --seed 1 --seconds 30 --trace 0

Builds the workload's operations from the seed, runs one checked warm-up
round, then repeats whole rounds until ``--seconds`` have passed; every
later round must reproduce the warm-up outputs exactly.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (means per operation) with ``--trace 1``.  A result file
and, when traced, the span file go to ``.perfbench-out/`` at the root.
"""

from __future__ import annotations

import os

# Fixed before numpy loads so that every run, and every fresh interpreter
# timed for set-up, uses one BLAS thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
os.environ.pop("QCLAIM_TOL_SCALE", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_STARTS = 11
# The p90 is reported only when at least 10 samples lie beyond it.  A run
# that has fewer than this many latencies after --seconds goes on with whole
# rounds until it has them, but measures for no longer than MAX_SECONDS.
P90_SAMPLES = 100
MAX_SECONDS = 120.0

# What the known program fault raises out of ``cli.run``.
FAULT_EXCEPTIONS = (ValueError,)


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing ``qclaim.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import qclaim.cli"]
    times = []
    for k in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            fail(f"fresh import of qclaim.cli failed: {done.stderr.decode()[-400:]}")
        if k:  # the first start may compile bytecode
            times.append(elapsed)
    return statistics.median(times)


def import_qclaim():
    sys.path.insert(0, str(SRC))
    import qclaim
    import qclaim.cli
    import qclaim.serialization  # noqa: F401  (binds the module on the package)

    if Path(qclaim.__file__).resolve().parent != SRC / "qclaim":
        fail(f"imported qclaim from {qclaim.__file__}, not from {SRC}")
    return qclaim


def call(op):
    """Run one operation; returns (output, None) or (None, the exception it raised)."""
    try:
        return op.call(), None
    except Exception as exc:  # a crash is an outcome to count and report
        return None, exc


def fingerprint(output) -> bytes:
    if isinstance(output, dict):
        return repr(
            [(k, v.tobytes() if hasattr(v, "tobytes") else v) for k, v in sorted(output.items())]
        ).encode()
    return repr(output).encode()


def percentile(sorted_values: list[float], share: float) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(share * 100) - 1]


def main() -> None:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be nonnegative and --seconds positive")
    if not (SRC / "qclaim" / "cli.py").is_file():
        fail(f"no qclaim sources under {SRC}")

    setup_s = None if args.trace else measure_setup()
    qc = import_qclaim()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir, qc)
        result = measure(ops, args, qc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if setup_s is not None:
        result["end_to_end"]["setup_s"] = setup_s
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if result["problems"]:
        sys.stderr.write("\n".join(result["problems"][:20]) + "\n")
    units = {"throughput_ops_s": "ops/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    if args.trace:
        import tracing

        units = {name: "ms" if name.endswith("_ms") else "count" for name in tracing.PER_LAYER}
        values = result["per_layer"]
    else:
        values = result["end_to_end"]
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))


def measure(ops, args, qc) -> dict:
    problems: list[str] = []
    reference = []
    for op in ops:  # warm-up round, checked in full
        output, crash = call(op)
        if crash is None:
            try:
                problem = op.check(output)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problem = f"output lacks an expected field or shape: {exc!r}"
        elif op.known_fault and isinstance(crash, FAULT_EXCEPTIONS):
            problem = None
        else:
            problem = f"raised {type(crash).__name__}: {crash}"
        if problem:
            problems.append(f"{op.label}: {problem}")
        reference.append(fingerprint(output) if crash is None else type(crash))

    # A traced run alternates traced and untraced rounds, so that the tracing
    # overhead is measured over the same stretch of time as the spans.
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    latencies: list[float] = []
    round_rates: list[float] = []
    traced_rates: list[float] = []
    attempted = failed = 0
    clock = time.perf_counter
    began = clock()
    def more() -> bool:
        elapsed = clock() - began
        short = tracer is None and len(latencies) < P90_SAMPLES
        return elapsed < args.seconds or (short and elapsed < MAX_SECONDS)

    while more():
        traced = tracer is not None and len(traced_rates) == len(round_rates)
        if traced:
            tracer.install(qc)
        try:
            round_began = clock()
            for k, op in enumerate(ops):
                if traced:
                    tracer.op = attempted
                    root = tracer.open("op")
                start = clock()
                output, crash = call(op)
                elapsed = clock() - start
                if traced:
                    tracer.close(root)
                else:
                    latencies.append(elapsed)
                attempted += 1
                if crash is not None:
                    failed += 1
                seen = fingerprint(output) if crash is None else type(crash)
                if seen != reference[k]:
                    problems.append(f"{op.label}: a measured round's output differs from the warm-up round")
            rate = len(ops) / (clock() - round_began)
        finally:
            if traced:
                tracer.uninstall()
        (traced_rates if traced else round_rates).append(rate)
    wall = clock() - began

    ordered = sorted(1e3 * t for t in latencies)
    p90 = percentile(ordered, 0.9) if len(ordered) >= P90_SAMPLES else None
    if p90 is None and tracer is None:
        sys.stderr.write(f"perfbench: only {len(ordered)} samples in {MAX_SECONDS:g} s; no p90 is reported\n")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_round": len(ops),
        "attempted": attempted,
        "failed": failed,
        "wall_s": wall,
        "problems": problems,
        "end_to_end": {
            # One client in a closed loop: throughput is one over the mean latency.
            "throughput_ops_s": 1e3 * len(ordered) / sum(ordered),
            "latency_p50_ms": statistics.median(ordered),
            "latency_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "round_rates": round_rates,
        "latencies_ms": [1e3 * t for t in latencies],
    }
    if tracer is not None:
        traced_ops = len(traced_rates) * len(ops)
        result["per_layer"] = tracer.per_layer(traced_ops)
        result["traced_round_rates"] = traced_rates
        result["tracing_overhead"] = 1.0 - statistics.median(traced_rates) / statistics.median(round_rates)
        result["spans"] = len(tracer.names)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.tsv")
    return result


if __name__ == "__main__":
    main()
