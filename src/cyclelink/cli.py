"""Command-line surface.

Subcommands: check, cycle-linked, massed, solve, gen-extremal,
verify-theorem, oracle-sweep.  Verdicts are JSON on stdout; exit codes:
0 = positive answer, 1 = negative answer, 2 = input or usage error,
3 = crash (an internal fault or a failed certificate self-check; the
traceback goes to stderr and stdout carries {"error": ...}).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import harness
from .connectivity import is_massed
from .errors import (
    CertificateError,
    CyclelinkError,
    FalsifierError,
    GenerationError,
    Graph6Error,
    GraphError,
    NotMassedError,
)
from .extremal import ExtremalCertificate, generate
from .io6 import load_graph, to_graph6
from .minor import MinorModel, find_rooted_cycle_minor, is_cycle_linked
from .reducer import ReductionTrace, solve

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_CRASH = 3


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _parse_ids(text: str, what: str = "vertex ids") -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise GraphError(f"expected comma-separated {what}, got {text!r}") from None


def cmd_check(args) -> int:
    g = load_graph(args.file)
    order = _parse_ids(args.order)
    model = find_rooted_cycle_minor(g, order)
    if model is None:
        _emit({"verdict": "no-model", "order": order})
        return EXIT_NO
    _emit({"verdict": "model", "order": order, "model": model.to_json_dict()})
    return EXIT_YES


def cmd_cycle_linked(args) -> int:
    g = load_graph(args.file)
    roots = _parse_ids(args.roots)
    report = is_cycle_linked(g, roots)
    _emit(report.to_json_dict())
    return EXIT_YES if report.linked else EXIT_NO


def cmd_massed(args) -> int:
    g = load_graph(args.file)
    roots = _parse_ids(args.roots)
    report = is_massed(g, roots, args.lam)
    _emit(report.to_json_dict())
    return EXIT_YES if report.massed else EXIT_NO


def cmd_solve(args) -> int:
    g = load_graph(args.file)
    roots = _parse_ids(args.roots)
    trace = ReductionTrace()
    try:
        result = solve(g, roots, trace)
    except NotMassedError as exc:
        _emit({"verdict": "not-massed", "report": exc.report.to_json_dict()})
        return EXIT_NO
    except FalsifierError as exc:
        _emit({"verdict": "falsifier", "artifact": exc.artifact})
        return EXIT_NO
    finally:
        if args.explain:
            for step in trace.steps:
                print(json.dumps(step, sort_keys=True), file=sys.stderr)
    if isinstance(result, MinorModel):
        _emit({"verdict": "model", "model": result.to_json_dict()})
        return EXIT_YES
    if not isinstance(result, ExtremalCertificate):
        raise CertificateError(f"solve returned {type(result).__name__}")
    _emit({"verdict": "extremal", "certificate": result.to_json_dict()})
    return EXIT_NO


def cmd_gen_extremal(args) -> int:
    spec = []
    if args.spec:
        for part in args.spec.split(","):
            i, _, size = part.partition(":")
            try:
                spec.append((int(i), int(size)))
            except ValueError:
                raise GenerationError(f"expected index:size, got {part!r}") from None
    g, roots = generate(spec)
    sidecar = {"roots": list(roots), "apex_pair": [6, 7], "graph6": to_graph6(g)}
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(to_graph6(g) + "\n")
        with open(args.output + ".json", "w") as fh:
            json.dump(sidecar, fh, sort_keys=True)
            fh.write("\n")
    _emit(sidecar)
    return EXIT_YES


def cmd_verify_theorem(args) -> int:
    low, _, high = args.n_range.partition(":")
    try:
        n_low, n_high = int(low), int(high)
    except ValueError:
        raise GraphError(f"expected --n-range LOW:HIGH, got {args.n_range!r}") from None
    report = harness.verify_theorem(
        connectivity=args.connectivity,
        n_low=n_low,
        n_high=n_high,
        graphs=args.graphs,
        subsets=args.subsets,
        seed=args.seed,
        k=args.k,
    )
    _write_report(report, args.output)
    return EXIT_YES if not report["falsifiers"] else EXIT_NO


def cmd_oracle_sweep(args) -> int:
    import glob
    import os

    if os.path.isdir(args.corpus):
        paths = sorted(glob.glob(os.path.join(args.corpus, "*.g6")))
    else:
        paths = [args.corpus]
    if not paths or not all(os.path.exists(p) for p in paths):
        raise CyclelinkError(f"corpus not found: {args.corpus}")
    ks = _parse_ids(args.k, "root counts")
    report = harness.oracle_sweep(paths, ks, limit=args.limit)
    _write_report(report, args.output)
    return EXIT_YES if not report["disagreements"] else EXIT_NO


def _write_report(report: dict, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            for record in report.get("records", report.get("table", [])):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    _emit(report)


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: ``main`` reports them as JSON with
    exit 2.  Subparsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CyclelinkError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cyclelink",
        description="Exact rooted cycle minor workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide one rooted cycle minor instance")
    p.add_argument("--order", required=True, help="comma-separated root order")
    p.add_argument("file")

    p = sub.add_parser("cycle-linked", help="test cycle-linkedness of a root set")
    p.add_argument("--roots", required=True)
    p.add_argument("file")

    p = sub.add_parser("massed", help="check the (M1)/(M2) density conditions")
    p.add_argument("--lambda", dest="lam", required=True, help="rational, e.g. 5 or 11/2")
    p.add_argument("--roots", required=True)
    p.add_argument("file")

    p = sub.add_parser("solve", help="certifying solver for 5-massed instances")
    p.add_argument("--roots", required=True)
    p.add_argument("--explain", action="store_true", help="stream solver steps to stderr")
    p.add_argument("file")

    p = sub.add_parser("gen-extremal", help="generate an obstruction family member")
    p.add_argument("--spec", default="", help='components as "i:size,...", e.g. "1:3,2:3"')
    p.add_argument("-o", "--output", help="write graph6 plus a .json sidecar")

    p = sub.add_parser("verify-theorem", help="desk-scale cycle-linkedness replication")
    p.add_argument("--connectivity", type=int, required=True)
    p.add_argument("--n-range", required=True, help="LOW:HIGH")
    p.add_argument("--graphs", type=int, default=50)
    p.add_argument("--subsets", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=5, help="root set size")
    p.add_argument("-o", "--output", help="write JSON-lines records here")

    p = sub.add_parser("oracle-sweep", help="fast engine vs naive oracle agreement")
    p.add_argument("--corpus", required=True, help="graph6 file or directory of *.g6")
    p.add_argument("--k", default="3,4", help="comma-separated root counts")
    p.add_argument("--limit", type=int, help="cap graphs read per corpus file")
    p.add_argument("-o", "--output", help="write JSON-lines records here")

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # looked up at call time, so a replaced cmd_* function takes effect
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except Graph6Error as exc:
        _emit({"error": str(exc), "byte_offset": exc.offset})
        return EXIT_ERROR
    except CertificateError as exc:
        return _crash(exc)  # a failed self-check is the program's fault, not the input's
    except (CyclelinkError, OSError) as exc:
        _emit({"error": str(exc)})
        return EXIT_ERROR
    except Exception as exc:
        return _crash(exc)


def _crash(exc: Exception) -> int:
    """A crash must never read as a "no": report it under its own status."""
    traceback.print_exc()
    _emit({"error": f"{type(exc).__name__}: {exc}"})
    return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
