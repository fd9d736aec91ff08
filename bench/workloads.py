"""Seeded inputs for the cyclelink benchmark.

Stdlib only and independent of the cyclelink package: the program under
test only ever sees the graph6 files written here, plus the seeds passed
to `verify-theorem`.  Each workload is a stream of blocks; a block is a
fixed mix of commands, and every block draws fresh labelings or seeds
from the run's RNG, so the mix stays the same while the inputs vary.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

ROOTS = (1, 2, 3, 4, 5)
APEX = (6, 7)


def canonical_orders(roots) -> list[tuple[int, ...]]:
    """Cyclic orders up to rotation and reflection: smallest root first,
    second entry smaller than the last."""
    first, *rest = sorted(roots)
    return [(first,) + p for p in itertools.permutations(rest) if p[0] < p[-1]]


# Index 0 is the canonical order (1, 2, 3, 4, 5), which no family member
# admits; the others give a mix of "yes" and "no".
ORDERS = canonical_orders(ROOTS)


def order_key(order) -> str:
    return ",".join(map(str, order))


def parse_spec(spec: str) -> list[tuple[int, int]]:
    return [tuple(int(t) for t in part.split(":")) for part in spec.split(",")]


def family_member(spec: str) -> tuple[list[int], list[tuple[int, int]]]:
    """The obstruction-family member for a spec like "1:3,2:3".

    Roots 1..5, adjacent apexes 6 and 7 joined to every root, and per
    (i, size) a triangle joined to {a, b, x_i, x_{i+2}} plus size - 3
    vertices that each add five edges, so every component is tight.
    """
    a, b = APEX
    edges = [(a, b)] + [(a, r) for r in ROOTS] + [(b, r) for r in ROOTS]
    nxt = 8
    for i, size in parse_spec(spec):
        attach = (a, b, ROOTS[i - 1], ROOTS[(i + 1) % 5])
        core = [nxt, nxt + 1, nxt + 2]
        nxt += 3
        edges += [(core[0], core[1]), (core[0], core[2]), (core[1], core[2])]
        edges += [(c, t) for c in core for t in attach]
        for _ in range(size - 3):
            edges += [(nxt, core[0]), (nxt, core[1]), (nxt, core[2]), (nxt, a), (nxt, b)]
            core.append(nxt)
            nxt += 1
    return list(range(1, nxt)), edges


def graph6(n: int, edges) -> str:
    """graph6 line for a graph on vertices 0..n-1 (n <= 62)."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    out = [chr(n + 63)]
    acc = have = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | ((u, v) in adj)
            have += 1
            if have == 6:
                out.append(chr(acc + 63))
                acc = have = 0
    if have:
        out.append(chr((acc << (6 - have)) + 63))
    return "".join(out)


def relabel(vertices, rng: random.Random | None) -> dict[int, int]:
    """Map vertices onto 0..n-1: sorted order when rng is None (as the
    program's own writer does), else a random permutation."""
    targets = list(range(len(vertices)))
    if rng is not None:
        rng.shuffle(targets)
    return dict(zip(sorted(vertices), targets))


def write_graph(path: str, vertices, edges, mapping: dict[int, int]) -> None:
    with open(path, "w") as fh:
        fh.write(graph6(len(vertices), [(mapping[u], mapping[v]) for u, v in edges]) + "\n")


@dataclass
class Command:
    """One CLI invocation plus what the benchmark needs to check it."""

    argv: list[str]
    orders: int                          # rooted orders decided on success
    file: str | None = None
    seq: tuple[int, ...] = ()            # the order or roots passed
    expect: str | None = None            # "yes" / "no" / "extremal" / "clean-exit"; None = any certified
    family_roots: tuple[int, ...] | None = None  # roots x1..x5 of a family member
    checks: int = 0                      # verify-theorem: expected "checks"


# (spec, indices into ORDERS).  Mostly "no" orders, whose search tree does
# not depend on the labeling, so the median falls among the n = 10 proofs
# and the tail among the n = 11 ones whatever the seed; the yes-orders'
# cost does depend on the labeling.  46 commands, about 5 s.
NO_PROOF_PLAN = (
    ("1:3", (0, 1, 2, 4, 10, 11, 3, 6)),
    ("2:3", (0, 1, 4, 5, 7, 11, 2, 6)),
    ("3:3", (0, 5, 6, 7, 8, 11, 1, 9)),
    ("1:4", (0, 1, 2, 4, 10, 11, 3, 6)),
    ("1:5", (0, 1, 2, 4, 3)),
    ("1:3,2:3", (0, 4, 2, 7)),
    ("1:3,3:3", (0, 11, 1, 6)),
    ("1:6", (0,)),
)

SWEEP_COMMANDS = 50
SWEEP_ARGS = ("--connectivity", "10", "--n-range", "12:16", "--graphs", "10", "--subsets", "3")
SWEEP_CHECKS = 10 * 3 * len(ORDERS)

# Four random instances for each (n, k): the cost depends mostly on n and
# k, so a fixed mix keeps the median and tail from moving with the seed.
SOLVE_CELLS = [(n, k) for n in range(13, 19) for k in (3, 4, 5) for _ in range(4)]
SOLVE_FAMILY = ("1:3", "2:3", "3:3", "4:3", "5:3")

# One untimed command per process before timing starts; setup_s covers
# the package import plus this command.
WARMUP = {
    "no-proof": ["gen-extremal", "--spec", "1:3"],
    "sweep": ["verify-theorem", "--connectivity", "10", "--n-range", "12:13",
              "--graphs", "1", "--subsets", "1", "--seed", "0"],
    "solve": ["gen-extremal", "--spec", "1:3"],
}


def no_proof_block(rng: random.Random, workdir: str, tag: str, table: dict) -> list[Command]:
    """`check` on family members under one random labeling per member."""
    cmds = []
    for spec, indices in NO_PROOF_PLAN:
        vertices, edges = family_member(spec)
        mapping = relabel(vertices, rng)
        path = os.path.join(workdir, f"{tag}-{spec.replace(':', '_').replace(',', '-')}.g6")
        write_graph(path, vertices, edges, mapping)
        for i in indices:
            seq = tuple(mapping[x] for x in ORDERS[i])
            cmds.append(Command(["check", "--order", order_key(seq), path], 1, path, seq,
                                table[spec][order_key(ORDERS[i])],
                                tuple(mapping[x] for x in ROOTS)))
    return cmds


def sweep_block(rng: random.Random, workdir: str, tag: str) -> list[Command]:
    """`verify-theorem` in the replication setting, one fresh seed each."""
    return [
        Command(["verify-theorem", *SWEEP_ARGS, "--seed", str(rng.getrandbits(32))],
                SWEEP_CHECKS, checks=SWEEP_CHECKS)
        for _ in range(SWEEP_COMMANDS)
    ]


def random_massed(rng: random.Random, n: int, k: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges and roots of a random 5-massed instance on n vertices, k roots.

    5-massedness is established without the program: (M1) is an edge
    count, and (M2) holds because every non-adjacent pair has at least k
    common neighbours, so G is k-connected and no separator of order < k
    cuts off a component avoiding the roots.
    """
    while True:
        p = rng.uniform(0.6, 0.9)
        adj = [0] * n
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    edges.append((u, v))
        roots = rng.sample(range(n), k)
        xm = sum(1 << r for r in roots)
        inside = sum((adj[r] & xm).bit_count() for r in roots) // 2
        if len(edges) - inside <= 5 * (n - k):
            continue
        if all((adj[u] & adj[v]).bit_count() >= k
               for u in range(n) for v in range(u + 1, n) if not adj[u] >> v & 1):
            return edges, roots


def solve_block(rng: random.Random, workdir: str, tag: str) -> list[Command]:
    """`solve` on random 5-massed instances, then small family members
    (canonical order) for the certificate path."""
    cmds = []
    for i, (n, k) in enumerate(SOLVE_CELLS):
        edges, roots = random_massed(rng, n, k)
        path = os.path.join(workdir, f"{tag}-r{i}.g6")
        write_graph(path, range(n), edges, relabel(range(n), None))
        cmds.append(Command(["solve", "--roots", order_key(roots), path], 1, path, tuple(roots)))
    for spec in SOLVE_FAMILY:
        vertices, edges = family_member(spec)
        mapping = relabel(vertices, rng)
        path = os.path.join(workdir, f"{tag}-f{spec.replace(':', '_')}.g6")
        write_graph(path, vertices, edges, mapping)
        seq = tuple(mapping[x] for x in ROOTS)
        cmds.append(Command(["solve", "--roots", order_key(seq), path], 1, path, seq, "extremal"))
    return cmds


def make_block(workload: str, rng: random.Random, workdir: str, tag: str, table: dict):
    if workload == "no-proof":
        return no_proof_block(rng, workdir, tag, table)
    if workload == "sweep":
        return sweep_block(rng, workdir, tag)
    return solve_block(rng, workdir, tag)
