"""Run every workload over several seeds and summarize.

    python3 bench/record.py [--seeds 1,2,...] [--seconds 30] [--append LABEL]
                            [WORKLOAD ...]

For each workload: one `run.py --trace 0` per seed, then one traced run
on the first seed.  Prints, per end-to-end metric, the median, quartiles
and spread (interquartile range over median) with its unit, and the
traced run's per-layer metrics.  With --append, adds the summary to
bench/trajectory.json under LABEL.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(machine-and-seed line, final result line) of one run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=BENCH.parent,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--append", metavar="LABEL")
    ap.add_argument("workloads", nargs="*", default=["no-proof", "sweep", "solve"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    entry = {"label": args.append, "date": datetime.date.today().isoformat(),
             "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units = {}
        attempted = failed = 0
        for seed in seeds:
            info, result = run(workload, seed, args.seconds, 0)
            entry["machine"] = info["machine"]
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        _, traced = run(workload, seeds[0], args.seconds, 1)
        ok &= traced["correct"]
        e2e = {name: dict(summarize(v), unit=units[name]) for name, v in values.items()}
        entry["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "end_to_end": e2e,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for name, s in e2e.items():
            print(f"{workload:9} {name:14} {s['median']:12.6g} {s['unit']:6}"
                  f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}")
        print(f"{workload:9} {'error_rate':14} {failed / attempted:12.6g} ratio  ({failed}/{attempted})")
    if args.append:
        path = BENCH / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
