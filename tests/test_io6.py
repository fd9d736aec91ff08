import pytest

from cyclelink.errors import Graph6Error, GraphError
from cyclelink.graph import Graph, complete_graph, cycle_graph
from cyclelink.io6 import (
    load_graph,
    parse_edge_list,
    parse_graph6,
    read_graph6_file,
    to_graph6,
)

nx = pytest.importorskip("networkx")


def test_roundtrip_small():
    for g in [Graph(range(1)), cycle_graph(list(range(5))), complete_graph(list(range(7)))]:
        assert parse_graph6(to_graph6(g)) == g


def test_header_accepted():
    g = cycle_graph(list(range(4)))
    assert parse_graph6(">>graph6<<" + to_graph6(g)) == g


def test_known_encodings_match_networkx():
    import random

    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 20)
        G = nx.gnp_random_graph(n, rng.random(), seed=rng.randint(0, 10**9))
        ours = to_graph6(Graph(range(n), list(G.edges())))
        theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert ours == theirs
        back = parse_graph6(theirs)
        assert set(back.edges()) == {(min(u, v), max(u, v)) for u, v in G.edges()}


def test_large_n_size_field():
    g = Graph(range(70), [(0, 69)])
    s = to_graph6(g)
    assert s.startswith(chr(126))
    assert parse_graph6(s) == g
    # the reader also takes a small n in the 3-byte and the 6-byte form
    k2 = Graph(range(2), [(0, 1)])
    assert parse_graph6("~??A_") == parse_graph6("~~?????A_") == k2


def test_malformed_reports_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("")
    assert exc.value.offset == 0
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D")  # n=5 needs data bytes
    assert exc.value.offset is not None
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D?" + chr(30))  # data byte below 63
    assert exc.value.offset == 2
    for line, offset in [
        ("~??", 3),  # truncated size fields
        ("~~???", 5),
        (" ", 0),  # a bad size byte in each form
        ("~?" + chr(30) + "?", 2),
        ("~~??" + chr(30) + "???", 4),
        ("A@", 1),  # n = 2 keeps one bit of its byte; the rest is padding
    ]:
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(line)
        assert exc.value.offset == offset, line


def test_trailing_bytes_rejected():
    g6 = to_graph6(cycle_graph(list(range(5))))
    with pytest.raises(Graph6Error):
        parse_graph6(g6 + "Q")


def test_corpus_reads(corpus_path):
    graphs = list(read_graph6_file(corpus_path))
    assert len(graphs) == 143
    by_n = {}
    for g in graphs:
        assert g.is_connected_mask(g.vertex_mask)
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_edge_list_reader():
    g = parse_edge_list("1 2\n2 3 # comment\n\n7\n")
    assert g.n == 4 and g.m == 2 and 7 in g
    with pytest.raises(GraphError):
        parse_edge_list("1 2 3")
    with pytest.raises(GraphError):
        parse_edge_list("a b")


def test_load_graph_sniffs(tmp_path):
    g = cycle_graph(list(range(6)))
    p6 = tmp_path / "g.g6"
    p6.write_text(to_graph6(g) + "\n")
    assert load_graph(str(p6)) == g
    pe = tmp_path / "g.edges"
    pe.write_text("0 1\n1 2\n")
    assert load_graph(str(pe)).m == 2
    # one token that is not an integer goes to the graph6 reader
    pe.write_text("D?" + chr(30) + "\n0 1\n")
    with pytest.raises(Graph6Error) as exc:
        load_graph(str(pe))
    assert exc.value.offset == 2
    # a bare integer is an isolated vertex of an edge list
    pe.write_text("7\n0 1\n")
    assert load_graph(str(pe)) == Graph([7], [(0, 1)])
    # a graph6 file holds one graph: trailing blank lines are fine, and any
    # other nonempty line is refused
    p6.write_text(to_graph6(g) + "\n\n  \n")
    assert load_graph(str(p6)) == g
    for extra in ("garbage here", to_graph6(complete_graph(list(range(4)))), "0 1"):
        for first in (to_graph6(g), ">>graph6<<" + to_graph6(g)):
            p6.write_text(first + "\n\n" + extra + "\n")
            with pytest.raises(Graph6Error):
                load_graph(str(p6))
