"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload cold_digest --seed 1 \\
        --seconds 15 --trace 0

Run from the repository root.  The inputs are generated from ``--seed``
in this process; the program under test then runs in a fresh child
process (``workloads.py``) that receives only the generated documents.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The child's
full report (errors, pass counts) is kept under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cold_digest", "live_firehose", "cluster_merge")
# past this share of its timeout the child starts no work beyond its time
# budget (the minimum digest and set-up counts), so a slow program reports
# what it measured instead of being killed
DEADLINE_SHARE = 0.7


def child_timeout(seconds: float) -> float:
    """How long the child may run: 170 s at the default 15 s budget,
    growing with the budget."""
    return max(170.0, 10.0 * seconds)


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from gen import WORKLOADS as GENERATORS

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    with open(stem + ".input.json", "w") as handle:
        json.dump(GENERATORS[args.workload](args.seed), handle)
    env = dict(os.environ, PYTHONPATH=SRC)
    timeout = child_timeout(args.seconds)
    try:
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             stem + ".input.json", stem + ".json",
             "--workload", args.workload,
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"the run did not finish within {timeout:.0f} s",
              file=sys.stderr)
        return 1
    finally:
        os.remove(stem + ".input.json")
    if child.returncode != 0:
        print(f"the run failed with exit code {child.returncode}",
              file=sys.stderr)
        return 1
    with open(stem + ".json") as handle:
        report = json.load(handle)
    for error in report["errors"]:
        print(f"FAILED: {error}")
    print(f"{args.workload} seed {args.seed}: attempted "
          f"{report['attempted']}, failed {report['failed']}, passes "
          f"{report['passes']}, digests {report['digests']}")
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
