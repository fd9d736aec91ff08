"""cyclelink benchmark: drives `cyclelink.cli.main(argv)` in-process.

    python3 bench/run.py --workload {no-proof,sweep,solve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  With
--trace 0 the command prints the end-to-end metrics, measured with
tracing off over whole blocks of commands until S seconds of command
time have passed.  With --trace 1 it runs the first block once untraced
and once traced, and prints the per-layer metrics (see bench/README.md).
Every command's verdict is checked; the last stdout line is one JSON
object with "correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import workloads
from workloads import WARMUP

WORKLOADS = ("no-proof", "sweep", "solve")
SETUP_PROBES = 12
TAIL_LADDER = (50, 75, 80, 90, 95, 99)

# Machine speed on a shared VM drifts by up to 2x over seconds, for this
# process's CPU time as much as for wall time.  A fixed pure-Python kernel
# (bit loops over a dict of ints, like the engine's) is timed before every
# command; each time metric is rescaled by CAL_REF_S over the median of the
# nearby kernel times, i.e. reported in seconds of a machine on which the
# kernel takes CAL_REF_S (its median on the 2-core Xeon VM the baseline
# was recorded on).  Raw seconds are kept in the result file.
CAL_REF_S = 0.00138
CAL_WINDOW = 4  # kernel samples on each side of a command
_CAL_ADJ = {v: (v * 0x9E3779B1) & 0xFFFFFFFF for v in range(32)}


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kernel() -> int:
    acc = 0
    for r in range(200):
        for v in _bits(_CAL_ADJ[r & 31]):
            acc ^= _CAL_ADJ[v] & ~acc
    return acc


def calibrate() -> float:
    """Seconds for one warm run of the reference kernel (the untimed run
    first keeps the caches the previous command left from mattering)."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def normalized(times, cals) -> list[float]:
    """Each time rescaled by the median kernel time around it."""
    return [
        t * CAL_REF_S / statistics.median(cals[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
        for i, t in enumerate(times)
    ]


def machine_info() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def import_cyclelink():
    """Import the package from ./src, never from an installed copy."""
    if not (SRC / "cyclelink" / "__init__.py").is_file():
        sys.exit(f"bench: no cyclelink package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cyclelink
    import cyclelink.cli  # noqa: F401

    if Path(cyclelink.__file__).resolve().parent != SRC / "cyclelink":
        sys.exit(f"bench: imported cyclelink from {cyclelink.__file__}, not {SRC}")
    return cyclelink


def run_command(lib, argv):
    """One in-process CLI call: (exit code or None, stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = lib.cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash or usage error is a failed command
        rc = None
        buf.write(f"\n{exc!r}")
    return rc, buf.getvalue(), time.perf_counter() - t0


def setup_probe(workload: str) -> None:
    """Child process: time the package import plus the warm-up command,
    with kernel samples on both sides for the rescaling."""
    cals = [calibrate() for _ in range(CAL_WINDOW)]
    t0 = time.perf_counter()
    lib = import_cyclelink()
    rc, _, _ = run_command(lib, WARMUP[workload])
    elapsed = time.perf_counter() - t0
    cals += [calibrate() for _ in range(CAL_WINDOW)]
    print(json.dumps({"setup_s": elapsed, "cal_s": statistics.median(cals), "rc": rc}))


def measure_setup(workload: str) -> tuple[float, float]:
    """(raw, rescaled) set-up seconds from a fresh interpreter, its own
    start-up excluded."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"bench: setup probe failed:\n{proc.stderr}")
    if out["rc"] != 0:
        sys.exit(f"bench: warm-up command exited {out['rc']}")
    return out["setup_s"], out["setup_s"] * CAL_REF_S / out["cal_s"]


class Checker:
    """Re-checks every verdict with the package's own certificate checks,
    on graphs loaded once per file with tracing off."""

    def __init__(self, lib):
        self.lib = lib
        self.graphs = {}
        self.family_ok = {}

    def graph(self, path):
        if path not in self.graphs:
            self.graphs[path] = self.lib.load_graph(path)
        return self.graphs[path]

    def family_certified(self, cmd) -> bool:
        key = (cmd.file, cmd.family_roots)
        if key not in self.family_ok:
            g = self.graph(cmd.file)
            cert = self.lib.recognize(g, cmd.family_roots)
            self.family_ok[key] = cert is not None and cert.verify(g)
        return self.family_ok[key]

    def model_ok(self, cmd, model) -> bool:
        m = self.lib.MinorModel.from_json_dict(model)
        return bool(self.lib.verify_model(self.graph(cmd.file), cmd.seq, m))

    def check(self, cmd, rc, out) -> str | None:
        """None when the command's output is correct, else the reason."""
        if cmd.expect == "clean-exit":
            return None if rc == 0 else f"exit code {rc}"
        if rc not in (0, 1):
            return f"exit code {rc}: {out.strip()[-300:]}"
        try:
            res = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return "no JSON verdict on stdout"
        kind = cmd.argv[0]
        if kind == "verify-theorem":
            if rc != 0 or res.get("falsifiers") or res.get("checks") != cmd.checks:
                return f"verify-theorem: exit {rc}, checks {res.get('checks')}, falsifiers {res.get('falsifiers')}"
            return None
        verdict = res.get("verdict")
        if kind == "check":
            said = {"model": "yes", "no-model": "no"}.get(verdict)
            if said is None or rc != (0 if said == "yes" else 1):
                return f"check: verdict {verdict!r} with exit {rc}"
            if said != cmd.expect:
                return f"check: said {said}, pinned table says {cmd.expect}"
            if said == "yes" and not self.model_ok(cmd, res["model"]):
                return "check: model fails verify_model"
            if said == "no" and cmd.seq == cmd.family_roots and not self.family_certified(cmd):
                return "check: canonical 'no' without a verified extremal certificate"
            return None
        # solve
        if verdict == "model" and rc == 0:
            if cmd.expect not in (None, "yes"):
                return f"solve: model where {cmd.expect} was expected"
            return None if self.model_ok(cmd, res["model"]) else "solve: model fails verify_model"
        if verdict == "extremal" and rc == 1:
            c = res["certificate"]
            cert = self.lib.ExtremalCertificate(
                tuple(c["roots"]), tuple(c["apex_pair"]),
                tuple((frozenset(x["vertices"]), x["attachment_index"]) for x in c["components"]),
            )
            return None if cert.verify(self.graph(cmd.file)) else "solve: certificate fails verify"
        return f"solve: verdict {verdict!r} with exit {rc}"


def check_table(lib, table) -> None:
    """Cross-check the pinned verdicts against the naive oracle, n <= 10."""
    from cyclelink._oracle import naive_rooted_cycle_minor

    for spec, verdicts in table.items():
        vertices, edges = workloads.family_member(spec)
        if len(vertices) > 10:
            continue
        g = lib.Graph(vertices, edges)
        for key, want in verdicts.items():
            order = tuple(int(t) for t in key.split(","))
            got = "yes" if naive_rooted_cycle_minor(g, order) is not None else "no"
            if got != want:
                sys.exit(f"bench: pinned verdict {spec} {key}={want}, oracle says {got}")


def check_warmup(workload, out) -> str | None:
    """The warm-up's gen-extremal output must match the benchmark's own
    family generator, so the members the benchmark writes are the program's."""
    if WARMUP[workload][0] != "gen-extremal":
        return None
    vertices, edges = workloads.family_member(WARMUP[workload][2])
    mine = workloads.graph6(len(vertices), [(u - 1, v - 1) for u, v in edges])
    theirs = json.loads(out.strip().splitlines()[-1])["graph6"]
    return None if mine == theirs else f"gen-extremal graph6 {theirs} != benchmark's {mine}"


def tail_percentile(block_len: int) -> int:
    """Highest ladder percentile with at least ten samples beyond it in
    one block; fixed per workload, so it does not move with speed."""
    return max(p for p in TAIL_LADDER if block_len * (100 - p) / 100 >= 10)


def percentile(values, p) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Run:
    def __init__(self, lib, workload, seed, workdir, table):
        self.lib = lib
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.table = table
        self.checker = Checker(lib)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def block(self, index):
        return workloads.make_block(self.workload, self.rng, self.workdir, f"b{index}", self.table)

    def execute(self, cmds, tracer=None):
        """Run commands in order; returns per-command seconds, the kernel
        time taken before each, and the orders decided by the commands
        that passed their check."""
        times, cals, orders = [], [], 0
        for i, cmd in enumerate(cmds):
            cals.append(calibrate())
            if tracer is not None:
                tracer.cmd, tracer.active = i, True
            rc, out, dt = run_command(self.lib, cmd.argv)
            if tracer is not None:
                tracer.active = False
            times.append(dt)
            self.attempted += 1
            reason = self.checker.check(cmd, rc, out)
            if reason is None:
                orders += cmd.orders
            else:
                self.failed += 1
                self.errors.append({"argv": cmd.argv, "reason": reason})
        return times, cals, orders


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Whole blocks until `seconds` of command time; the set-up probes are
    spread between blocks so that they sample the same machine phases."""
    raw, cals, orders, blocks, setup = [], [], 0, 0, []
    while sum(raw) < seconds or blocks == 0:
        cmds = run.block(blocks)
        t, c, o = run.execute(cmds)
        raw += t
        cals += c
        orders += o
        blocks += 1
        while len(setup) < SETUP_PROBES * min(1.0, sum(raw) / seconds):
            setup.append(measure_setup(run.workload))
    times = normalized(raw, cals)
    pct = tail_percentile(len(cmds))
    tail = percentile(times, pct)
    metrics = {
        "orders_per_s": (orders / sum(times), "1/s"),
        "cmd_s.p50": (statistics.median(times), "s"),
        "cmd_s.tail": (tail, "s"),
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "blocks": blocks,
        "commands": len(times),
        "orders": orders,
        "tail_percentile": pct,
        "tail_samples_beyond": sum(t > tail for t in times),
        "error_rate": run.failed / run.attempted,
        "raw": {
            "orders_per_s": orders / sum(raw),
            "cmd_s.p50": statistics.median(raw),
            "cmd_s.tail": percentile(raw, pct),
            "setup_s": statistics.median(r for r, _ in setup),
        },
        "cal_s": {"median": statistics.median(cals), "min": min(cals), "max": max(cals)},
    }
    return metrics, detail


def per_layer(run: Run, warmup_cmd) -> tuple[dict, dict]:
    from tracing import Tracer

    cmds = [warmup_cmd] + run.block(0)
    untraced, untraced_cals, _ = run.execute(cmds)
    tracer = Tracer()
    tracer.install(run.lib)
    traced, traced_cals, _ = run.execute(cmds, tracer)
    values = tracer.metrics()
    values["trace.overhead_ratio"] = (
        sum(normalized(traced, traced_cals)) / sum(normalized(untraced, untraced_cals)))
    spans_path = BENCH / "out" / f"spans-{run.workload}-seed{run.seed}.jsonl"
    tracer.write(str(spans_path))
    metrics = {k: (v, _unit(k)) for k, v in values.items()}
    detail = {
        "commands": len(cmds),
        "untraced_s": sum(untraced),
        "traced_s": sum(traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".s", "_s")) or ".s." in name:
        return "s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("CYCLELINK_WORKERS", None)  # one worker, in this process
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    lib = import_cyclelink()
    with open(BENCH / "expected_verdicts.json") as fh:
        table = json.load(fh)
    check_table(lib, table)
    rc, out, _ = run_command(lib, WARMUP[args.workload])
    problem = f"warm-up exited {rc}" if rc != 0 else check_warmup(args.workload, out)

    outdir = BENCH / "out"
    workdir = outdir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(lib, args.workload, args.seed, str(workdir), table)
        if args.trace:
            warm = workloads.Command(list(WARMUP[args.workload]), 0, expect="clean-exit")
            metrics, detail = per_layer(run, warm)
        else:
            metrics, detail = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = problem is None and run.failed == 0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": ([problem] if problem else []) + run.errors[:20],
        "detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(outdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({k: result[k] for k in ("workload", "seed", "machine")}))
    print(json.dumps({"detail": detail, "errors": result["errors"]}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9} {name:48} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:9} {'error_rate':48} {detail['error_rate']:14.6g} ratio")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
