"""Experiment orchestration: seeded samplers, connectivity verification,
desk-scale theorem replication, and engine-vs-oracle sweeps.

All sampling is driven by an explicit 64-bit seed through random.Random,
so identical configs reproduce identical instance streams and reports.
"""

from __future__ import annotations

import itertools
import random
import time

from ._oracle import naive_rooted_cycle_minor
from .connectivity import PathSystem, menger
from .errors import CyclelinkError, GraphError
from .graph import Graph
from .io6 import read_graph6_file, to_graph6
from .minor import canonical_cyclic_orders, find_rooted_cycle_minor


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(range(n), edges)


def is_k_connected(g: Graph, c: int) -> bool:
    """Exact threshold check: kappa(G) >= c, via all-pairs menger."""
    if g.n <= c:
        return False
    if any(g.degree(v) < c for v in g.vertices()):
        return False
    verts = g.vertices()
    nonadj = [
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1:]
        if not g.has_edge(u, v)
    ]
    for u, v in nonadj:
        # kappa(u, v): internally disjoint u-v paths correspond to fully
        # disjoint N(u)-N(v) paths in G - {u, v}
        res = menger(g.delete({u, v}), g.neighbors(u), g.neighbors(v), c)
        if not isinstance(res, PathSystem):
            return False
    return True


SAMPLER_MAX_TRIES = 20000  # rejection-sampling budget per sample_k_connected call


def sample_k_connected(
    rng: random.Random, c: int, n_low: int, n_high: int, count: int
) -> list[Graph]:
    """Rejection-sample graphs verified c-connected; raises when the
    requested connectivity is unreachable in the given size range."""
    out = []
    tries = 0
    while len(out) < count:
        if tries >= SAMPLER_MAX_TRIES:
            raise CyclelinkError(
                f"sampler could not reach connectivity {c} at n in "
                f"[{n_low},{n_high}] after {SAMPLER_MAX_TRIES} tries"
            )
        tries += 1
        n = rng.randint(n_low, n_high)
        # density chosen so min degree >= c is likely; verified exactly below
        p = min(0.96, (c + 2) / max(n - 1, 1))
        g = random_graph(rng, n, p)
        if is_k_connected(g, c):
            out.append(g)
    return out


def verify_theorem(
    *,
    connectivity: int,
    n_low: int,
    n_high: int,
    graphs: int,
    subsets: int,
    seed: int,
    k: int = 5,
) -> dict:
    """Check that every sampled verified-c-connected graph is cycle-linked
    on sampled k-subsets: all canonical cyclic orders must admit a model.

    All graphs are sampled first, then each graph's root sets in turn;
    every instance is checked on the sampled graph as it is drawn.  Any
    failure is archived (graph6 + order) as a falsifier.
    """
    if n_low > n_high:
        raise GraphError(f"empty size range {n_low}:{n_high}")
    if not 3 <= k <= n_low:
        raise GraphError(f"need 3 <= k <= {n_low} (the smallest n), got k = {k}")
    if graphs < 1 or subsets < 1:
        # zero instances would report a vacuous pass
        raise GraphError(f"need at least one graph and one subset, got {graphs} and {subsets}")
    rng = random.Random(seed)
    t0 = time.perf_counter()
    records = []
    falsifiers = []
    per_order = len(canonical_cyclic_orders(range(k)))
    for gi, g in enumerate(sample_k_connected(rng, connectivity, n_low, n_high, graphs)):
        for _ in range(subsets):
            roots = sorted(rng.sample(g.vertices(), k))
            for order in canonical_cyclic_orders(roots):
                if find_rooted_cycle_minor(g, order) is None:
                    falsifiers.append({"graph6": to_graph6(g), "order": list(order)})
            records.append(
                {"graph_index": gi, "n": g.n, "m": g.m, "roots": roots, "orders": per_order}
            )
    return {
        "mode": "verify-theorem",
        "connectivity": connectivity,
        "k": k,
        "seed": seed,
        "graphs": graphs,
        "subsets": subsets,
        "checks": per_order * len(records),
        "falsifiers": falsifiers,
        "records": records,
        "timing": {"elapsed_s": round(time.perf_counter() - t0, 3)},
    }


def oracle_sweep(corpus_paths: list[str], ks: list[int], *, limit: int | None = None) -> dict:
    """Fast engine vs naive assignment-enumeration oracle over a graph6
    corpus; any disagreement is reported and fails the run."""
    if any(k < 3 for k in ks):
        raise GraphError(f"root counts must be at least 3, got {ks}")
    if limit is not None and limit < 1:
        raise GraphError(f"limit must be at least 1, got {limit}")
    t0 = time.perf_counter()
    table = []
    disagreements = []
    for path in corpus_paths:
        for g in itertools.islice(read_graph6_file(path), limit):
            verts = g.vertices()
            for k in ks:
                if len(verts) < k:
                    continue
                agree = 0
                total = 0
                for seq in itertools.permutations(verts, k):
                    total += 1
                    fast = find_rooted_cycle_minor(g, seq) is not None
                    slow = naive_rooted_cycle_minor(g, seq) is not None
                    if fast == slow:
                        agree += 1
                    else:
                        disagreements.append(
                            {"graph6": to_graph6(g), "order": list(seq),
                             "engine": fast, "oracle": slow}
                        )
                table.append({"graph6": to_graph6(g), "k": k, "pairs": total, "agree": agree})
    return {
        "mode": "oracle-sweep",
        "ks": ks,
        "pairs": sum(r["pairs"] for r in table),
        "agreements": sum(r["agree"] for r in table),
        "disagreements": disagreements,
        "table": table,
        "timing": {"elapsed_s": round(time.perf_counter() - t0, 3)},
    }
