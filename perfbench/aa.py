"""A/A steadiness check: the same code, several seeds, one spread per metric.

    python3 perfbench/aa.py --runs 10 [--workloads cold_digest,...]

Runs ``run.py`` once per seed (seeds 1..runs) on each workload, for
``run_seconds`` from ``BENCHMARK.json``, and prints,
for every end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread — the
interquartile distance as a share of the median — next to the metric's
bound from ``BENCHMARK.json``.  A spread above a third of its bound is
marked: such a metric cannot resolve a regression of its bound.  It also
prints each run's failed share and wall time, and keeps every figure in
``perfbench/out/aa-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="A/A steadiness check.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error(f"unknown workload {workload!r}")
        runs = []
        for seed in range(1, args.runs + 1):
            started = time.perf_counter()
            child = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            wall = time.perf_counter() - started
            if child.returncode != 0:
                print(child.stdout + child.stderr)
                return 1
            result = json.loads(child.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct "
                  f"{result['correct']}, failed {result['failed']}"
                  f"/{result['attempted']}", flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<20}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("inf")
            mark = "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"  {metric:<20}{median:>14.4f}{q1:>14.4f}{q3:>14.4f}"
                  f"{spread:>9.4f}{bound:>7.2f}{mark}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed shares: {sorted(shares)}")
        with open(os.path.join(HERE, "out", f"aa-{workload}.json"),
                  "w") as handle:
            json.dump(runs, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
