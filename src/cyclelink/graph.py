"""Simple undirected graphs over small integer vertex ids.

Adjacency is kept as one Python int bitmask per vertex (bit position =
vertex id), which makes neighborhood intersections, unions, and the
counting primitives single big-int operations.  Graphs are immutable
after construction.  Vertex sets are passed as masks; ``mask`` turns
vertex ids into one and is the one check that ids are known and
distinct.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import GraphError


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph: no loops, no parallel edges."""

    __slots__ = ("_adj", "_vmask", "_m")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        adj: dict[int, int] = {}
        for v in vertices:
            if v < 0:
                raise GraphError(f"vertex ids must be nonnegative, got {v}")
            adj.setdefault(v, 0)
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if u < 0 or v < 0:
                raise GraphError(f"vertex ids must be nonnegative, got {(u, v)}")
            adj.setdefault(u, 0)
            adj.setdefault(v, 0)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._adj = adj
        self._vmask = mask_of(adj)
        self._m = sum(bm.bit_count() for bm in adj.values()) // 2

    # basic accessors

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    @property
    def vertex_mask(self) -> int:
        return self._vmask

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in sorted(self._adj):
            for v in bits(self._adj[u]):
                if v > u:
                    yield (u, v)

    def adj_mask(self, v: int) -> int:
        if v not in self._adj:
            raise GraphError(f"unknown vertex id {v}")
        return self._adj[v]

    def mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of ``vertices``; raises GraphError on an unknown or a
        repeated id."""
        adj = self._adj
        m = 0
        for v in vertices:
            if v not in adj:
                raise GraphError(f"unknown vertex id {v}")
            if m >> v & 1:
                raise GraphError(f"repeated vertex id {v}")
            m |= 1 << v
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # mask primitives (masks must hold known vertices only)

    def rho(self, xm: int) -> int:
        """Number of edges with at least one end in ``xm``."""
        adj = self._adj
        inside = sum((adj[u] & xm).bit_count() for u in bits(xm)) // 2
        return sum(adj[u].bit_count() for u in bits(xm)) - inside

    def touches(self, am: int, bm: int) -> bool:
        """Whether some vertex of ``am`` has a neighbor in ``bm``."""
        adj = self._adj
        while am:
            low = am & -am
            if adj[low.bit_length() - 1] & bm:
                return True
            am ^= low
        return False

    def nbr_mask(self, sm: int) -> int:
        """Vertices outside ``sm`` adjacent to some vertex of ``sm``."""
        nm = 0
        for u in bits(sm):
            nm |= self._adj[u]
        return nm & ~sm

    # connectivity helpers

    def reach_mask(self, start: int, allowed: int) -> int:
        """Vertices reachable from ``start`` walking only inside ``allowed``.

        ``start`` is a bitmask of seed vertices (included in the result if
        they are in ``allowed``); traversal never leaves ``allowed``.
        """
        seen = start & allowed
        frontier = seen
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= self._adj[u]
            nxt &= allowed & ~seen
            seen |= nxt
            frontier = nxt
        return seen

    def path_mask(self, start: int, allowed: int, target: int) -> int:
        """A shortest ``start``..``target`` path inside ``allowed``, as a
        mask, or 0 if there is none.

        A layered search from ``start & allowed`` stops at the first layer
        that meets ``target``, then walks back one vertex per layer (the
        lowest id each time); the path has one vertex in ``start`` and one
        in ``target``, a single vertex when the two meet.
        """
        adj = self._adj
        layer = seen = start & allowed
        layers = []
        while layer:
            hit = layer & target
            if hit:
                low = hit & -hit
                path = low
                for prev in reversed(layers):
                    step = adj[low.bit_length() - 1] & prev
                    low = step & -step
                    path |= low
                return path
            layers.append(layer)
            nxt = 0
            while layer:
                low = layer & -layer
                nxt |= adj[low.bit_length() - 1]
                layer ^= low
            layer = nxt & allowed & ~seen
            seen |= layer
        return 0

    def is_connected_mask(self, xm: int) -> bool:
        if xm == 0:
            return True
        start = xm & -xm
        return self.reach_mask(start, xm) == xm

    def components(self, within: int) -> list[int]:
        """Masks of the connected components of G[within], ordered by
        lowest member."""
        out = []
        while within:
            comp = self.reach_mask(within & -within, within)
            out.append(comp)
            within &= ~comp
        return out


# constructors for common fixtures

def cycle_graph(ids: list[int]) -> Graph:
    n = len(ids)
    return Graph(ids, [(ids[i], ids[(i + 1) % n]) for i in range(n)])


def path_graph(ids: list[int]) -> Graph:
    return Graph(ids, list(zip(ids, ids[1:])))


def complete_graph(ids: list[int]) -> Graph:
    return Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]])
