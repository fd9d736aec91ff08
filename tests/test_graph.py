import random

import pytest

from cyclelink.errors import GraphError
from cyclelink.graph import Graph, bits, complete_graph, cycle_graph, mask_of, path_graph


def test_simple_invariants():
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    assert g.n == 3 and g.m == 2
    assert g.adj_mask(2) >> 1 & 1
    with pytest.raises(GraphError):
        Graph([], [(1, 1)])
    with pytest.raises(GraphError):
        Graph([-1])
    with pytest.raises(GraphError):
        Graph([], [(0, -1)])


def test_duplicate_edges_collapse():
    g = Graph([], [(1, 2), (2, 1), (1, 2)])
    assert g.m == 1


def test_rho_examples():
    k4 = complete_graph([1, 2, 3, 4])
    assert k4.rho(k4.mask({1})) == 3
    assert k4.rho(k4.vertex_mask) == k4.m


def test_rho_extremal_e1(e1):
    g, roots = e1
    rest = g.vertex_mask & ~g.mask(roots)
    assert g.rho(rest) == 26 == 5 * 5 + 1


def test_unknown_vertex_errors():
    g = cycle_graph([1, 2, 3])
    with pytest.raises(GraphError):
        g.rho(g.mask({9}))
    with pytest.raises(GraphError):
        g.mask([1, 9])
    with pytest.raises(GraphError, match="repeated"):
        g.mask([1, 2, 1])


def test_mask_primitives():
    p4 = path_graph([1, 2, 3, 4])
    assert p4.mask([1, 3]) == 0b1010
    assert p4.nbr_mask(p4.mask([1, 2])) == p4.mask([3])
    assert p4.touches(p4.mask([1, 2]), p4.mask([3]))
    assert not p4.touches(p4.mask([1]), p4.mask([3, 4]))


def test_components_extremal_e1(e1):
    g, roots = e1
    comps = g.components(g.vertex_mask & ~g.mask([*roots, 6, 7]))
    assert len(comps) == 1 and comps[0].bit_count() == 3
    # the component induces a triangle
    assert sum(comps[0] >> u & comps[0] >> v & 1 for u, v in g.edges()) == 3


def test_rho_additive_on_disjoint_sets():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(4, 10)
        g = Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.4])
        verts = g.vertices()
        rng.shuffle(verts)
        cut = rng.randint(0, n)
        xm, ym = g.mask(verts[:cut]), g.mask(verts[cut:])
        between = sum((xm >> u & 1) != (xm >> v & 1) for u, v in g.edges())
        assert g.rho(xm | ym) == g.rho(xm) + g.rho(ym) - between


def test_handshake():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 12)
        g = Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.5])
        assert sum(g.adj_mask(v).bit_count() for v in g.vertices()) == 2 * g.m


def test_path_graph_components():
    g = Graph([0, 9], [(1, 2), (2, 3)])
    comps = g.components(g.vertex_mask)
    assert comps == [g.mask([0]), g.mask([1, 2, 3]), g.mask([9])]


def _graph_and_mask(rng, t):
    """A random graph, with non-contiguous ids when t is odd, and a random
    mask of its vertices, 0 when t is a multiple of 5."""
    n = rng.randint(0, 14)
    ids = sorted(rng.sample(range(4 * n + 1), n)) if t % 2 else list(range(n))
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
                    if rng.random() < 0.3])
    return g, 0 if t % 5 == 0 else g.mask(v for v in ids if rng.random() < 0.6)


def test_components_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for t in range(300):
        g, within = _graph_and_mask(rng, t)
        h = nx.Graph()
        h.add_nodes_from(g.vertices())
        h.add_edges_from(g.edges())
        comps = sorted(nx.connected_components(h.subgraph(bits(within))), key=min)
        assert g.components(within) == [mask_of(c) for c in comps]


def test_rho_counts_edges_touching_mask():
    rng = random.Random(13)
    for t in range(300):
        g, xm = _graph_and_mask(rng, t)
        assert g.rho(xm) == sum(xm >> u & 1 | xm >> v & 1 for u, v in g.edges())


def _distance(g, start, allowed, target):
    """Edges on a shortest start..target walk inside allowed, or None."""
    dist = {v: 0 for v in bits(start & allowed)}
    queue = list(dist)
    for u in queue:
        if target >> u & 1:
            return dist[u]
        for w in bits(g.adj_mask(u) & allowed):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return None


def test_path_mask_is_a_shortest_path():
    rng = random.Random(17)
    routed = 0
    for t in range(400):
        g, allowed = _graph_and_mask(rng, t)
        ids = g.vertices()
        start, target = (g.mask(rng.sample(ids, min(len(ids), rng.randint(0, 3))))
                         for _ in range(2))
        got = g.path_mask(start, allowed, target)
        if not g.reach_mask(start & allowed, allowed) & target:
            assert got == 0
            continue
        routed += 1
        assert got and not got & ~allowed
        assert g.is_connected_mask(got)
        degrees = [(g.adj_mask(v) & got).bit_count() for v in bits(got)]
        assert sum(degrees) == 2 * (got.bit_count() - 1) and max(degrees) <= 2
        ends = [v for v, d in zip(bits(got), degrees) if d < 2]
        assert (got & start).bit_count() == (got & target).bit_count() == 1
        assert {got & start, got & target} == {1 << v for v in ends}
        assert got.bit_count() == _distance(g, start, allowed, target) + 1
    assert routed > 100


def test_path_mask_empty_cases():
    g = path_graph([1, 2, 3, 4])
    every = g.vertex_mask
    assert g.path_mask(0, every, every) == 0
    assert g.path_mask(every, 0, every) == 0
    assert g.path_mask(every, every, 0) == 0
    assert g.path_mask(g.mask([1]), g.mask([1, 2, 4]), g.mask([4])) == 0
    assert g.path_mask(g.mask([1, 2]), every, g.mask([2, 3])) == g.mask([2])
    assert g.path_mask(g.mask([1]), every, g.mask([4])) == every
