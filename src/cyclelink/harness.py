"""Experiment orchestration: seeded samplers, connectivity verification,
desk-scale theorem replication, and engine-vs-oracle sweeps.

All sampling is driven by an explicit 64-bit seed through random.Random,
so identical configs reproduce identical instance streams and reports.
"""

from __future__ import annotations

import itertools
import os
import random
import time

from ._oracle import naive_rooted_cycle_minor
from .connectivity import PathSystem, menger
from .errors import CyclelinkError
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
    if not nonadj:
        return g.n - 1 >= c  # complete graph
    for u, v in nonadj:
        # kappa(u, v): internally disjoint u-v paths correspond to fully
        # disjoint N(u)-N(v) paths in G - {u, v}
        res = menger(g.delete({u, v}), g.neighbors(u), g.neighbors(v), c)
        if not isinstance(res, PathSystem):
            return False
    return True


def sample_k_connected(
    rng: random.Random, c: int, n_low: int, n_high: int, count: int, max_tries: int = 20000
) -> list[Graph]:
    """Rejection-sample graphs verified c-connected; raises when the
    requested connectivity is unreachable in the given size range."""
    out = []
    tries = 0
    while len(out) < count:
        if tries >= max_tries:
            raise CyclelinkError(
                f"sampler could not reach connectivity {c} at n in "
                f"[{n_low},{n_high}] after {max_tries} tries"
            )
        tries += 1
        n = rng.randint(n_low, n_high)
        # density chosen so min degree >= c is likely; verified exactly below
        p = min(0.96, (c + 2) / max(n - 1, 1))
        g = random_graph(rng, n, p)
        if is_k_connected(g, c):
            out.append(g)
    return out


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("CYCLELINK_WORKERS", "1")))
    except ValueError:
        return 1


def _check_instance(task: tuple[str, list[int]]) -> list[list[int]]:
    """Worker body: all canonical orders of one (graph6, roots) instance;
    returns the failing orders."""
    from .io6 import parse_graph6

    g6, roots = task
    g = parse_graph6(g6)
    return [
        list(order)
        for order in canonical_cyclic_orders(roots)
        if find_rooted_cycle_minor(g, order) is None
    ]


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

    Any failure is archived (graph6 + order) as a falsifier.  Instances
    run on CYCLELINK_WORKERS processes (default 1); results are merged in
    input order either way.
    """
    rng = random.Random(seed)
    t0 = time.perf_counter()
    records = []
    falsifiers = []
    checks = 0
    tasks = []
    for gi, g in enumerate(sample_k_connected(rng, connectivity, n_low, n_high, graphs)):
        verts = g.vertices()
        g6 = to_graph6(g)
        for _ in range(subsets):
            roots = sorted(rng.sample(verts, k))
            tasks.append((gi, g.n, g.m, g6, roots))
    per_order = len(canonical_cyclic_orders(range(k)))
    workers = _worker_count()
    work = [(g6, roots) for _, _, _, g6, roots in tasks]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_check_instance, work))
    else:
        results = [_check_instance(t) for t in work]
    for (gi, n, m, g6, roots), failing in zip(tasks, results):
        checks += per_order
        for order in failing:
            falsifiers.append({"graph6": g6, "order": order})
        records.append(
            {"graph_index": gi, "n": n, "m": m, "roots": roots, "orders": per_order}
        )
    return {
        "mode": "verify-theorem",
        "connectivity": connectivity,
        "k": k,
        "seed": seed,
        "graphs": graphs,
        "subsets": subsets,
        "checks": checks,
        "falsifiers": falsifiers,
        "records": records,
        "timing": {"elapsed_s": round(time.perf_counter() - t0, 3)},
    }


def oracle_sweep(corpus_paths: list[str], ks: list[int], *, limit: int | None = None) -> dict:
    """Fast engine vs naive assignment-enumeration oracle over a graph6
    corpus; any disagreement is reported and fails the run."""
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
