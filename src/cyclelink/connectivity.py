"""Vertex-disjoint paths, separations, and the massed conditions.

menger() finds disjoint paths by augmenting one path at a time in the
vertex-split residual graph: each vertex has an entry and an exit joined
by a unit-capacity arc, so paths share no vertex and a minimum cut is a
set of vertices.  Each augmentation is a BFS that takes vertices in
ascending order, so returned paths and separations are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import CertificateError, GraphError, ResourceGuardError
from .graph import Graph, bits, mask_of

# refuse an (M2) scan of more than this many separators of order |X|-1
M2_ENUMERATION_LIMIT = 2_000_000


@dataclass(frozen=True)
class Separation:
    """Ordered pair (A, B) with A∪B = V(G) and no A∖B to B∖A edges."""

    a_side: frozenset[int]
    b_side: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.a_side & self.b_side)

    def to_json_dict(self) -> dict:
        return {
            "A": sorted(self.a_side),
            "B": sorted(self.b_side),
            "A_cap_B": sorted(self.a_side & self.b_side),
            "order": self.order,
        }


def is_valid_separation(g: Graph, x, sep: Separation) -> bool:
    return _separates(g, g.mask(x), g.mask(sep.a_side), g.mask(sep.b_side))


def _separates(g: Graph, xm: int, am: int, bm: int) -> bool:
    """(A, B) is a separation of g with X ⊆ A: A∪B = V(G), and no edge
    joins A∖B to B∖A."""
    return am | bm == g.vertex_mask and not xm & ~am and not g.touches(am & ~bm, bm & ~am)


@dataclass(frozen=True)
class PathSystem:
    """Pairwise vertex-disjoint paths, each listed as a vertex sequence."""

    paths: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {"paths": [list(p) for p in self.paths]}


def _residual_bfs(adj: dict[int, int], sources: int, sinks: int, nxt: dict[int, int], used: int):
    """Breadth-first search from the super-source over the vertex-split
    residual graph.  Node 2v is v's entry and 2v+1 its exit; neighbors
    are taken in ascending order.  Returns (pred, end, entries, exits):
    pred maps each reached node to the node it was reached from (-1 for
    the super-source), end is the first reached sink exit or None, and
    entries/exits are the vertex masks of reached nodes."""
    back = {w: u for u, w in nxt.items()}
    pred = {2 * s: -1 for s in bits(sources)}
    queue = list(pred)
    entries, exits = sources, 0
    for node in queue:  # the list grows while it is walked: a FIFO queue
        v = node >> 1
        if node & 1:
            if sinks >> v & 1:
                return pred, node, entries, exits
            # edges out of v, plus the reversed v entry->exit arc if v is used
            for w in bits((adj[v] | used & (1 << v)) & ~entries):
                entries |= 1 << w
                pred[2 * w] = node
                queue.append(2 * w)
        else:
            # an unused v passes to its own exit; a used one only back
            # along its path, unless the super-source feeds it
            u = back.get(v) if used >> v & 1 else v
            if u is not None and not exits >> u & 1:
                exits |= 1 << u
                pred[2 * u + 1] = node
                queue.append(2 * u + 1)
    return pred, None, entries, exits


def menger(g: Graph, sources, sinks, k: int):
    """k vertex-disjoint paths from sources to sinks, or a separation of
    order < k with sources on the A-side and sinks on the B-side.

    Paths are internally disjoint from both terminal sets.  Exactly one of
    PathSystem / Separation is returned.
    """
    if k < 1:
        raise GraphError(f"k must be positive, got {k}")
    sm = g.mask(sources)
    tm = g.mask(sinks)
    if not sm or not tm:
        raise GraphError("menger needs nonempty source and sink sets")
    adj = {v: g.adj_mask(v) for v in g.vertices()}
    nxt: dict[int, int] = {}  # v -> the next vertex on v's path
    used = 0  # vertices on some path
    flow = 0
    # Shared terminals are one-vertex paths, the k lowest taken first: the
    # BFS would find them first and in that order, since its queue holds
    # every source entry, then every source exit, and a sink exit ends it.
    shared = sm & tm
    while shared and flow < k:
        low = shared & -shared
        used |= low
        shared ^= low
        flow += 1
    while flow < k:
        pred, end, entries, exits = _residual_bfs(adj, sm, tm, nxt, used)
        if end is None:
            break
        route = [end]
        while pred[route[-1]] >= 0:
            route.append(pred[route[-1]])
        route.reverse()
        for a, b in zip(route, route[1:]):
            u, v = a >> 1, b >> 1
            if b & 1:
                if u == v:  # v's own arc: v joins a path
                    used |= 1 << v
                else:  # edge v->u reversed: v's path no longer goes on to u
                    del nxt[v]
            elif u == v:  # v's own arc reversed: v leaves its path
                used &= ~(1 << v)
            else:
                nxt[u] = v
        flow += 1
    if flow < k:
        # A: entries the last search reached; the cut: those whose exit it did not
        b_side = g.vertex_mask & ~entries | entries & ~exits
        order = (entries & b_side).bit_count()
        if order != flow or tm & ~b_side or not _separates(g, sm, entries, b_side):
            raise CertificateError(f"invalid separation of order {order} for a flow of {flow}")
        return Separation(frozenset(bits(entries)), frozenset(bits(b_side)))
    paths = []
    for v in bits(used & ~mask_of(nxt.values())):
        path = [v]
        while v in nxt:
            v = nxt[v]
            path.append(v)
        # keep the stretch from the last source to the first sink after it
        path = path[max(i for i, w in enumerate(path) if sm >> w & 1):]
        paths.append(tuple(path[: min(i for i, w in enumerate(path) if tm >> w & 1) + 1]))
    if len(paths) != flow or not _is_path_system(adj, sm, tm, paths):
        raise CertificateError(f"extracted paths are not {flow} disjoint paths")
    return PathSystem(tuple(paths))


def _is_path_system(adj: dict[int, int], sm: int, tm: int, paths) -> bool:
    """Each path runs along edges from a source to a sink and meets the
    terminals only at its ends, and no two paths share a vertex."""
    seen = 0
    for p in paths:
        if not (sm >> p[0] & 1 and tm >> p[-1] & 1):
            return False
        if not all(adj[u] >> v & 1 for u, v in zip(p, p[1:])):
            return False
        inner = mask_of(p[1:-1])
        pm = inner | 1 << p[0] | 1 << p[-1]
        if inner & (sm | tm) or pm & seen or pm.bit_count() != len(p):
            return False
        seen |= pm
    return True


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

    (M2) asks for a separation (A, B) of order < |X| with X ⊆ A and
    rho(B∖A) > lam*|B∖A|.  B∖A is a union of components of G-S avoiding X
    (S = A∩B), and rho is additive over components, so a violating union
    exists iff some single component has positive slack.

    Only separators of order exactly |X|-1 are scanned.  If C is a
    component of G-S avoiding X with |S| < |X|, then N(C) ⊆ S, and at least
    |X|-|N(C)| roots lie outside N(C) (and outside C); padding N(C) with
    |X|-1-|N(C)| of them gives a separator S' of order |X|-1 of which C is
    still a component avoiding X.  For each S the components avoiding X
    are the vertices X∖S does not reach.  A violator is reported as the
    tight separation (V∖C, C∪N(C)), of order |N(C)| < |X|.
    """
    try:
        lam = Fraction(lam)
    except (ValueError, ZeroDivisionError):
        raise GraphError(f"lambda must be a rational number, got {lam!r}") from None
    xm = g.mask(x)
    if not xm:
        raise GraphError("is_massed needs a nonempty root set")
    rest = g.vertex_mask & ~xm
    m1_slack = Fraction(g.rho(rest)) - lam * rest.bit_count()
    m1 = m1_slack > 0

    order = xm.bit_count() - 1
    total = comb(g.n, order)
    if total > M2_ENUMERATION_LIMIT:
        raise ResourceGuardError(
            f"(M2) would enumerate {total} separators (> {M2_ENUMERATION_LIMIT})"
        )

    for S in combinations(g.vertices(), order):
        sm = mask_of(S)
        allowed = g.vertex_mask & ~sm
        # the components of G - S avoiding X: all that X∖S does not reach
        left = allowed & ~g.reach_mask(xm & ~sm, allowed)
        if not left:  # always the case when G is |X|-connected
            continue
        for comp in g.components(left):
            slack = Fraction(g.rho(comp)) - lam * comp.bit_count()
            if slack > 0:
                a_side, b_side = g.vertex_mask & ~comp, comp | g.nbr_mask(comp)
                b_only = b_side & ~a_side  # the (M2) violation: order < |X|, B∖A dense
                ok = (a_side & b_side).bit_count() <= order and _separates(g, xm, a_side, b_side)
                if not ok or not g.rho(b_only) > lam * b_only.bit_count():
                    raise CertificateError("(M2) violator fails verification")
                violator = Separation(frozenset(bits(a_side)), frozenset(bits(b_side)))
                return MassedReport(lam, m1, m1_slack, False, violator)
    return MassedReport(lam, m1, m1_slack, True)
