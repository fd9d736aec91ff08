"""Check that the traced run's work counters repeat exactly.

    python3 bench/repeat.py [--seed N] [WORKLOAD ...]

Runs `bench/run.py --trace 1` twice per workload with the same seed and
compares every count and outcome ratio (all per-layer metrics except
times and the tracing overhead).  Exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def is_counter(name: str) -> bool:
    return ".calls" in name or name.endswith(".count") or (
        name.endswith("_ratio") and name != "trace.overhead_ratio")


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=RUN.parent.parent,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: traced run reported failures")
    return {k: v["value"] for k, v in result["metrics"].items() if is_counter(k)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("workloads", nargs="*", default=["no-proof", "sweep", "solve"])
    args = ap.parse_args()
    differ = 0
    for workload in args.workloads:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        for name in sorted(first):
            same = first[name] == second[name]
            differ += not same
            print(f"{workload:9} {name:48} {first[name]:>12} {'same' if same else second[name]}")
    print(json.dumps({"seed": args.seed, "counters_differing": differ}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
