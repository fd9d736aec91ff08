import itertools
import random

import pytest

import cyclelink.harness
from cyclelink.connectivity import menger
from cyclelink.errors import CyclelinkError, UnsupportedError
from cyclelink.harness import (
    is_k_connected,
    oracle_sweep,
    random_graph,
    sample_k_connected,
    verify_theorem,
)
from cyclelink.graph import Graph, complete_graph, cycle_graph, path_graph
from cyclelink.minor import ENGINE_LIMIT


def test_is_k_connected_basics():
    assert is_k_connected(cycle_graph(list(range(5))), 2)
    assert not is_k_connected(cycle_graph(list(range(5))), 3)
    assert not is_k_connected(path_graph(list(range(4))), 2)
    assert is_k_connected(complete_graph(list(range(6))), 5)
    assert not is_k_connected(complete_graph(list(range(6))), 6)  # needs n > c
    assert not is_k_connected(Graph([0, 1], []), 1)


def test_is_k_connected_cut_vertex():
    # two triangles sharing vertex 2
    g = Graph(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert is_k_connected(g, 1)
    assert not is_k_connected(g, 2)


def _nx_connected(nx, g, c):
    ref = nx.Graph()
    ref.add_nodes_from(g.vertices())
    ref.add_edges_from(g.edges())
    return g.n > c and nx.node_connectivity(ref) >= c


def test_is_k_connected_matches_networkx(monkeypatch):
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(2, 13)
        c = rng.randint(1, 8)
        g = random_graph(rng, n, rng.uniform(0.4, 1.0))
        if rng.random() < 0.5 and n > c + 1:
            # cut every edge between two sides except at c - 1 shared
            # vertices, so that often only the menger check can say no
            sep = set(rng.sample(range(n), c - 1))
            side = {v: rng.random() < 0.5 for v in range(n)}
            kept = [(u, v) for u, v in g.edges() if side[u] == side[v] or {u, v} & sep]
            g = Graph(range(n), kept)
        assert is_k_connected(g, c) == _nx_connected(nx, g, c)

    # dense graphs: a nonadjacent pair with c common neighbours skips the
    # flow, every other one calls menger
    calls = []

    def counted(*args):
        calls.append(args)
        return menger(*args)

    monkeypatch.setattr(cyclelink.harness, "menger", counted)
    skipped = flows = 0
    for _ in range(300):
        n = rng.randint(6, 13)
        c = rng.randint(2, n - 2)
        g = random_graph(rng, n, rng.uniform(0.7, 1.0))
        del calls[:]
        if not is_k_connected(g, c):
            assert not _nx_connected(nx, g, c)
            continue
        assert _nx_connected(nx, g, c)
        common = [
            (g.adj_mask(u) & g.adj_mask(v)).bit_count()
            for u, v in itertools.combinations(g.vertices(), 2)
            if not g.adj_mask(u) >> v & 1
        ]
        # every pair was examined: those short of c common neighbours by menger
        assert len(calls) == sum(x < c for x in common)
        skipped += sum(x >= c for x in common)
        flows += len(calls)
    assert skipped > 0 and flows > 0


def test_sample_k_connected_verified():
    rng = random.Random(1)
    for g in sample_k_connected(rng, 3, 6, 8, 5):
        assert is_k_connected(g, 3)


def test_sample_k_connected_impossible():
    rng = random.Random(1)
    with pytest.raises(CyclelinkError):
        sample_k_connected(rng, 9, 5, 6, 1)


def test_verify_theorem_report_shape():
    report = verify_theorem(
        connectivity=4, n_low=6, n_high=7, graphs=4, subsets=2, seed=11, k=3
    )
    assert report["checks"] == 4 * 2 * 1  # one canonical order for k=3
    assert len(report["records"]) == 8
    assert report["falsifiers"] == []
    assert "elapsed_s" in report["timing"]


def test_verify_theorem_seeded_repeatability():
    kw = dict(connectivity=4, n_low=6, n_high=7, graphs=3, subsets=2, seed=5, k=3)
    r1 = verify_theorem(**kw)
    r2 = verify_theorem(**kw)
    r1.pop("timing")
    r2.pop("timing")
    assert r1 == r2


def test_verify_theorem_sampler_stream_pinned():
    # (n, m, roots) of each record; a kappa test that accepts a different
    # graph shifts the whole seeded stream
    report = verify_theorem(
        connectivity=10, n_low=12, n_high=16, graphs=3, subsets=1, seed=0
    )
    assert [(r["n"], r["m"], r["roots"]) for r in report["records"]] == [
        (13, 74, [6, 8, 10, 11, 12]),
        (12, 63, [5, 7, 8, 10, 11]),
        (14, 83, [3, 8, 9, 10, 13]),
    ]
    assert report["falsifiers"] == []


def test_oracle_sweep_small(corpus_path):
    report = oracle_sweep([corpus_path], [3], limit=10)
    assert report["disagreements"] == []
    assert report["pairs"] == report["agreements"] > 0


def test_random_graph_seeded():
    g1 = random_graph(random.Random(42), 8, 0.5)
    g2 = random_graph(random.Random(42), 8, 0.5)
    assert g1 == g2


def test_root_counts_above_the_engine_limit_are_refused_up_front(monkeypatch, corpus_path):
    # refused where the count enters, before any graph is sampled or read
    def never(*args, **kwargs):
        raise AssertionError("the root count was not checked first")

    monkeypatch.setattr(cyclelink.harness, "sample_k_connected", never)
    monkeypatch.setattr(cyclelink.harness, "read_graph6_file", never)
    k = ENGINE_LIMIT + 1
    with pytest.raises(UnsupportedError):
        verify_theorem(
            connectivity=10, n_low=30, n_high=34, graphs=50, subsets=1, seed=1, k=k
        )
    with pytest.raises(UnsupportedError):
        oracle_sweep([corpus_path], [3, k])
    # the limit itself is still accepted
    with pytest.raises(AssertionError):
        verify_theorem(
            connectivity=10, n_low=30, n_high=34, graphs=50, subsets=1, seed=1, k=ENGINE_LIMIT
        )
