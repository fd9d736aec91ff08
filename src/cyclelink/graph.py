"""Simple undirected graphs over small integer vertex ids.

Adjacency is kept as one Python int bitmask per vertex (bit position =
vertex id), which makes neighborhood intersections, unions, and the
counting primitives single big-int operations.  Graphs are immutable
after construction: every transform returns a new Graph.
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

    @classmethod
    def _from_adj(cls, adj: dict[int, int]) -> "Graph":
        g = cls.__new__(cls)
        g._adj = adj
        g._vmask = mask_of(adj)
        g._m = sum(bm.bit_count() for bm in adj.values()) // 2
        return g

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

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return bool(self._adj[u] >> v & 1)

    def adj_mask(self, v: int) -> int:
        self._check(v)
        return self._adj[v]

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj_mask(v)))

    def degree(self, v: int) -> int:
        return self.adj_mask(v).bit_count()

    def _check(self, v: int) -> None:
        if v not in self._adj:
            raise GraphError(f"unknown vertex id {v}")

    def mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of ``vertices``; raises GraphError on an unknown id."""
        adj = self._adj
        m = 0
        for v in vertices:
            if v not in adj:
                raise GraphError(f"unknown vertex id {v}")
            m |= 1 << v
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self):
        return hash((self._vmask, self._m, tuple(sorted(self._adj.items()))))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # counting primitives

    def edge_count_between(self, x: Iterable[int], y: Iterable[int]) -> int:
        """Number of edges with one end in x and one end in y.

        An edge with both ends in the overlap x∩y counts once.
        """
        xm = self.mask(x)
        ym = self.mask(y)
        count = sum((self._adj[u] & ym).bit_count() for u in bits(xm))
        both = xm & ym
        # edges inside x∩y were counted from each end
        count -= sum((self._adj[u] & both).bit_count() for u in bits(both)) // 2
        return count

    def rho(self, x: Iterable[int]) -> int:
        """Number of edges with at least one end in x."""
        xm = self.mask(x)
        inside = sum((self._adj[u] & xm).bit_count() for u in bits(xm)) // 2
        return sum((self._adj[u]).bit_count() for u in bits(xm)) - inside

    def neighborhood(self, x: Iterable[int]) -> set[int]:
        """N(X): vertices outside x adjacent to some vertex of x."""
        return set(bits(self.nbr_mask(self.mask(x))))

    # mask primitives (masks must hold known vertices only)

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

    # transforms (return new graphs)

    def induced(self, x: Iterable[int]) -> "Graph":
        xm = self.mask(x)
        return Graph._from_adj({v: self._adj[v] & xm for v in bits(xm)})

    def delete(self, s: Iterable[int]) -> "Graph":
        sm = self.mask(s)
        return self.induced(bits(self._vmask & ~sm))

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise GraphError(f"no edge {u}-{v}")
        adj = dict(self._adj)
        adj[u] = adj[u] & ~(1 << v)
        adj[v] = adj[v] & ~(1 << u)
        return Graph._from_adj(adj)

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = dict(self._adj)
        for u, v in edges:
            self._check(u)
            self._check(v)
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph._from_adj(adj)

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

    def is_connected_mask(self, xm: int) -> bool:
        if xm == 0:
            return True
        start = xm & -xm
        return self.reach_mask(start, xm) == xm

    def is_connected(self) -> bool:
        return self.is_connected_mask(self._vmask)

    def components(self) -> list[set[int]]:
        """Vertex sets of connected components, sorted by smallest member."""
        out = []
        left = self._vmask
        while left:
            start = left & -left
            comp = self.reach_mask(start, left)
            out.append(set(bits(comp)))
            left &= ~comp
        return out


# constructors for common fixtures

def cycle_graph(ids: list[int]) -> Graph:
    n = len(ids)
    return Graph(ids, [(ids[i], ids[(i + 1) % n]) for i in range(n)])


def path_graph(ids: list[int]) -> Graph:
    return Graph(ids, list(zip(ids, ids[1:])))


def complete_graph(ids: list[int]) -> Graph:
    return Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]])
