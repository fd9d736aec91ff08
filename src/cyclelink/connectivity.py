"""Vertex-disjoint paths, separations, and the massed conditions.

menger() is a unit-vertex-capacity max-flow: every vertex is split into
an in/out pair with capacity one, terminal attachment edges get large
capacity so a minimum cut is always a set of vertices.  Augmentation is
BFS in ascending-id order, so returned paths and separations are
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import CertificateError, GraphError, ResourceGuardError
from .graph import Graph, bits, mask_of

INF = 1 << 30
# refuse (M2) separator enumeration beyond this many candidate sets
M2_ENUMERATION_LIMIT = 2_000_000


@dataclass(frozen=True)
class Separation:
    """Ordered pair (A, B) with A∪B = V(G) and no A∖B to B∖A edges."""

    a_side: frozenset[int]
    b_side: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.a_side & self.b_side)

    @property
    def middle(self) -> frozenset[int]:
        return self.a_side & self.b_side

    def to_json_dict(self) -> dict:
        return {
            "A": sorted(self.a_side),
            "B": sorted(self.b_side),
            "A_cap_B": sorted(self.a_side & self.b_side),
            "order": self.order,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def is_valid_separation(g: Graph, x, sep: Separation) -> bool:
    am = g._check_set(sep.a_side)
    bm = g._check_set(sep.b_side)
    if (am | bm) != g.vertex_mask:
        return False
    xm = g._check_set(x)
    if xm & am != xm:
        return False
    a_only = am & ~bm
    b_only = bm & ~am
    return all(not (g.adj_mask(u) & b_only) for u in bits(a_only))


@dataclass(frozen=True)
class PathSystem:
    """Pairwise vertex-disjoint paths, each listed as a vertex sequence."""

    paths: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {"paths": [list(p) for p in self.paths]}


class _FlowNet:
    """Vertex-split unit-capacity flow network over one graph."""

    def __init__(self, g: Graph, sources, sinks):
        self.g = g
        self.order = g.vertices()
        self.idx = {v: i for i, v in enumerate(self.order)}
        n = len(self.order)
        self.S = 2 * n
        self.T = 2 * n + 1
        self.cap: dict[tuple[int, int], int] = {}
        self.adj: dict[int, list[int]] = {i: [] for i in range(2 * n + 2)}
        for v in self.order:
            self._add(self._vin(v), self._vout(v), 1)
            for w in g.neighbors(v):
                self._add(self._vout(v), self._vin(w), INF)
        for s in sorted(sources):
            self._add(self.S, self._vin(s), INF)
        for t in sorted(sinks):
            self._add(self._vout(t), self.T, INF)
        self.sources = frozenset(sources)
        self.sinks = frozenset(sinks)

    def _vin(self, v: int) -> int:
        return 2 * self.idx[v]

    def _vout(self, v: int) -> int:
        return 2 * self.idx[v] + 1

    def _add(self, a: int, b: int, c: int) -> None:
        if (a, b) not in self.cap:
            self.cap[(a, b)] = 0
            self.cap[(b, a)] = self.cap.get((b, a), 0)
            self.adj[a].append(b)
            self.adj[b].append(a)
        self.cap[(a, b)] += c

    def augment(self) -> bool:
        """One BFS augmenting path (ascending node order); True on success."""
        prev = {self.S: self.S}
        queue = [self.S]
        while queue:
            nxt = []
            for a in queue:
                for b in sorted(self.adj[a]):
                    if b not in prev and self.cap.get((a, b), 0) > 0:
                        prev[b] = a
                        if b == self.T:
                            node = self.T
                            while node != self.S:
                                p = prev[node]
                                self.cap[(p, node)] -= 1
                                self.cap[(node, p)] += 1
                                node = p
                            return True
                        nxt.append(b)
            queue = nxt
        return False

    def residual_reach(self) -> set[int]:
        seen = {self.S}
        queue = [self.S]
        while queue:
            a = queue.pop()
            for b in self.adj[a]:
                if b not in seen and self.cap.get((a, b), 0) > 0:
                    seen.add(b)
                    queue.append(b)
        return seen

    def extract_paths(self, flow: int) -> list[list[int]]:
        """Decompose the flow into vertex sequences, then shorten each path
        so its interior avoids both terminal sets."""
        succ = {}
        used_sources = []
        for v in self.order:
            out = self._vout(v)
            for w in self.g.neighbors(v):
                win = self._vin(w)
                if self.cap.get((win, out), 0) > 0 and (out, win) in self.cap:
                    # residual back-capacity means unit flow out->win
                    succ.setdefault(out, []).append(win)
        for s in sorted(self.sources):
            units = self.cap.get((self._vin(s), self.S), 0)
            for _ in range(units):
                used_sources.append(s)
        paths = []
        for s in sorted(set(used_sources)):
            path = [s]
            node = self._vout(s)
            while self.cap.get((self.T, node), 0) == 0:
                nxts = succ[node]
                win = nxts.pop(0)
                v = self.order[win // 2]
                path.append(v)
                node = self._vin(v) + 1
            paths.append(path)
        if len(paths) != flow:
            raise CertificateError(f"extracted {len(paths)} paths from a flow of {flow}")
        return [self._shorten(p) for p in paths]

    def _shorten(self, path: list[int]) -> list[int]:
        last_src = max(i for i, v in enumerate(path) if v in self.sources)
        path = path[last_src:]
        first_sink = min(i for i, v in enumerate(path) if v in self.sinks)
        return path[: first_sink + 1]

    def separation(self) -> Separation:
        reach = self.residual_reach()
        a_side = {v for v in self.order if self._vin(v) in reach}
        cut = {v for v in a_side if self._vout(v) not in reach}
        b_side = (set(self.order) - a_side) | cut
        return Separation(frozenset(a_side), frozenset(b_side))


def menger(g: Graph, sources, sinks, k: int):
    """k vertex-disjoint paths from sources to sinks, or a separation of
    order < k with sources on the A-side and sinks on the B-side.

    Paths are internally disjoint from both terminal sets.  Exactly one of
    PathSystem / Separation is returned.
    """
    if k < 1:
        raise GraphError(f"k must be positive, got {k}")
    src = set(sources)
    snk = set(sinks)
    if not src or not snk:
        raise GraphError("menger needs nonempty source and sink sets")
    g._check_set(src)
    g._check_set(snk)
    net = _FlowNet(g, src, snk)
    flow = 0
    while flow < k and net.augment():
        flow += 1
    if flow >= k:
        return PathSystem(tuple(tuple(p) for p in net.extract_paths(flow)[:k]))
    sep = net.separation()
    if sep.order != flow:
        raise CertificateError(f"separation of order {sep.order} for a flow of {flow}")
    return sep


def min_root_separation(g: Graph, x, target) -> Separation | None:
    """Minimum-order separation with x ⊆ A and target ⊆ B, or None when
    |x| disjoint x->target paths exist (the dual certificate)."""
    xs = set(x)
    ts = set(target)
    if not xs or not ts:
        raise GraphError("min_root_separation needs nonempty sets")
    res = menger(g, xs, ts, len(xs))
    if isinstance(res, PathSystem):
        return None
    return res


@dataclass(frozen=True)
class MassedReport:
    lam: Fraction
    m1_holds: bool
    m1_slack: Fraction  # rho(V\X) - lambda*|V\X|
    m2_holds: bool
    m2_violator: Separation | None = None

    @property
    def massed(self) -> bool:
        return self.m1_holds and self.m2_holds

    def __bool__(self) -> bool:
        return self.massed

    def to_json_dict(self) -> dict:
        return {
            "lambda": str(self.lam),
            "m1_holds": self.m1_holds,
            "m1_slack": str(self.m1_slack),
            "m2_holds": self.m2_holds,
            "m2_violator": self.m2_violator.to_json_dict() if self.m2_violator else None,
            "massed": self.massed,
        }


def is_massed(g: Graph, x, lam) -> MassedReport:
    """Check the (M1)/(M2) conditions with exact rational arithmetic.

    (M2) is decided by enumerating candidate separators S with |S| < |X|.
    For fixed S the B∖A side is a union of components of G-S avoiding X,
    and rho is additive over components, so a violating union exists iff
    some single component has positive slack.
    """
    lam = Fraction(lam)
    xm = g._check_set(x)
    xset = frozenset(bits(xm))
    if not xset:
        raise GraphError("is_massed needs a nonempty root set")
    rest = g.vertex_mask & ~xm
    m1_slack = Fraction(g.rho(bits(rest))) - lam * rest.bit_count()
    m1 = m1_slack > 0

    order_bound = len(xset)  # separations of order < |X|
    n = g.n
    total = sum(comb(n, i) for i in range(order_bound))
    if total > M2_ENUMERATION_LIMIT:
        raise ResourceGuardError(
            f"(M2) would enumerate {total} separators (> {M2_ENUMERATION_LIMIT})"
        )

    verts = g.vertices()
    for size in range(order_bound):
        for S in combinations(verts, size):
            sm = mask_of(S)
            left = g.vertex_mask & ~sm
            # components of G - S avoiding X are candidate B\A pieces
            while left:
                start = left & -left
                comp = g.reach_mask(start, g.vertex_mask & ~sm)
                left &= ~comp
                if comp & xm:
                    continue
                slack = Fraction(g.rho(bits(comp))) - lam * comp.bit_count()
                if slack > 0:
                    b_side = frozenset(bits(comp | sm))
                    a_side = frozenset(bits(g.vertex_mask & ~comp))
                    violator = Separation(a_side, b_side)
                    return MassedReport(lam, m1, m1_slack, False, violator)
    return MassedReport(lam, m1, m1_slack, True)


def is_rigid(g: Graph, x, sep: Separation) -> bool:
    """Rigid: B∖A nonempty and (G[B], A∩B) is cycle-linked."""
    from .minor import is_cycle_linked

    if not is_valid_separation(g, x, sep):
        raise GraphError("not a valid separation of (G, X)")
    b_only = sep.b_side - sep.a_side
    if not b_only:
        return False
    middle = sep.a_side & sep.b_side
    if not middle:
        return False
    return is_cycle_linked(g.induced(sep.b_side), middle).linked
