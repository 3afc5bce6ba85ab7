"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steady.py --runs 10 [--traced]

Runs ``run.py`` once per workload on seeds 1, 2, ..., alternating the
workload order from one seed to the next, each run as long as
``run_seconds`` in ``BENCHMARK.json``, and prints for each workload and end-to-end
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread: the distance between the quartiles as a share of the median.  The
bounds in ``BENCHMARK.json`` are set from this output.  With ``--traced``
it adds one traced run per workload and prints its tracing overhead: one
minus the ratio of traced to untraced round throughput, from rounds that
the traced run alternates.  Everything printed is also written to
``.perfbench-out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("cli-scenarios", "market-audit", "ks-search")
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-600:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        sys.exit(f"{workload} seed {seed} reported wrong outputs: {done.stderr[-600:]}")
    return line


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    lines: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for r in range(args.runs):
        seed = 1 + r
        for workload in WORKLOADS if r % 2 == 0 else reversed(WORKLOADS):
            line = run_once(workload, seed, SECONDS, 0)
            lines[workload].append(line)
            print(f"run {r + 1}/{args.runs} {workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)

    report = {}
    for workload, runs in lines.items():
        shares = {run["failed"] / run["attempted"] for run in runs}
        entry = {"failed_shares": sorted(shares), "metrics": {}}
        for metric in runs[0]["metrics"]:
            entry["metrics"][metric] = summarize([run["metrics"][metric]["value"] for run in runs])
        if args.traced:
            run_once(workload, 1, SECONDS, 1)
            traced = json.loads((OUT / f"result-{workload}-seed1-trace1.json").read_text())
            entry["tracing_overhead"] = traced["tracing_overhead"]
        report[workload] = entry

    print(f"\n{'workload':14s} {'metric':18s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s}")
    for workload, entry in report.items():
        for metric, s in entry["metrics"].items():
            print(f"{workload:14s} {metric:18s} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g} {s['spread']:7.2%}")
        print(f"{workload:14s} failed share(s): {entry['failed_shares']}")
        if args.traced:
            print(f"{workload:14s} tracing overhead: {entry['tracing_overhead']:.1%}")
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps({"runs": args.runs, "seconds": SECONDS, "report": report}, indent=1) + "\n")


if __name__ == "__main__":
    main()
