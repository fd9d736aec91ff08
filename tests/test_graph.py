import random

import pytest

from cyclelink.errors import GraphError
from cyclelink.graph import Graph, complete_graph, cycle_graph, path_graph


def test_simple_invariants():
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    assert g.n == 3 and g.m == 2
    assert g.has_edge(2, 1)
    with pytest.raises(GraphError):
        Graph([], [(1, 1)])


def test_duplicate_edges_collapse():
    g = Graph([], [(1, 2), (2, 1), (1, 2)])
    assert g.m == 1


def test_edge_count_between_examples():
    tri = complete_graph([1, 2, 3])
    assert tri.edge_count_between({1}, {2}) == 1
    c5 = cycle_graph([1, 2, 3, 4, 5])
    assert c5.edge_count_between(set(), c5.vertices()) == 0
    assert c5.edge_count_between({1, 2}, {4, 5}) == 1  # edge 5-1


def test_edge_count_overlap_counts_once():
    tri = complete_graph([1, 2, 3])
    # edge 1-2 lies inside the overlap {1,2}; counted once
    assert tri.edge_count_between({1, 2}, {1, 2, 3}) == 3


def test_rho_examples():
    k4 = complete_graph([1, 2, 3, 4])
    assert k4.rho({1}) == 3
    assert k4.rho(k4.vertices()) == k4.m


def test_rho_extremal_e1(e1):
    g, roots = e1
    rest = set(g.vertices()) - set(roots)
    assert g.rho(rest) == 26 == 5 * 5 + 1


def test_unknown_vertex_errors():
    g = cycle_graph([1, 2, 3])
    with pytest.raises(GraphError):
        g.rho({9})
    with pytest.raises(GraphError):
        g.edge_count_between({1}, {9})
    with pytest.raises(GraphError):
        g.mask([1, 9])


def test_mask_primitives():
    p4 = path_graph([1, 2, 3, 4])
    assert p4.mask([1, 3]) == 0b1010
    assert p4.nbr_mask(p4.mask([1, 2])) == p4.mask([3])
    assert p4.touches(p4.mask([1, 2]), p4.mask([3]))
    assert not p4.touches(p4.mask([1]), p4.mask([3, 4]))


def test_neighborhood_and_delete():
    c5 = cycle_graph([1, 2, 3, 4, 5])
    assert c5.neighborhood({1}) == {2, 5}
    k4 = complete_graph([1, 2, 3, 4])
    k3 = k4.delete({4})
    assert k3.n == 3 and k3.m == 3


def test_components_extremal_e1(e1):
    g, roots = e1
    comps = g.delete(set(roots) | {6, 7}).components()
    assert len(comps) == 1 and len(comps[0]) == 3
    tri = g.induced(comps[0])
    assert tri.m == 3


def test_rho_additive_on_disjoint_sets():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(4, 10)
        g = Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.4])
        verts = g.vertices()
        rng.shuffle(verts)
        cut = rng.randint(0, n)
        x, y = set(verts[:cut]), set(verts[cut:])
        assert g.rho(x | y) == g.rho(x) + g.rho(y) - g.edge_count_between(x, y)


def test_handshake():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 12)
        g = Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.5])
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m


def test_path_graph_components():
    g = Graph([0, 9], [(1, 2), (2, 3)])
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0], [1, 2, 3], [9]]
