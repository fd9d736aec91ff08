"""Regenerate bench/expected_verdicts.json: the verdict of every canonical
cyclic order on each family member the no-proof workload uses.

    python3 bench/pin_verdicts.py

Verdicts come from the engine; where n <= 10 the naive oracle must agree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from cyclelink import Graph, find_rooted_cycle_minor  # noqa: E402
from cyclelink._oracle import naive_rooted_cycle_minor  # noqa: E402

from workloads import NO_PROOF_PLAN, ORDERS, family_member, order_key  # noqa: E402


def main() -> None:
    table = {}
    for spec, _ in NO_PROOF_PLAN:
        vertices, edges = family_member(spec)
        g = Graph(vertices, edges)
        table[spec] = {}
        for order in ORDERS:
            yes = find_rooted_cycle_minor(g, order) is not None
            if len(vertices) <= 10 and yes != (naive_rooted_cycle_minor(g, order) is not None):
                sys.exit(f"engine and oracle disagree on {spec} {order}")
            table[spec][order_key(order)] = "yes" if yes else "no"
    with open(BENCH / "expected_verdicts.json", "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
