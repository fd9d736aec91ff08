import random
from fractions import Fraction

import pytest

import cyclelink.connectivity
from cyclelink._oracle import brute_force_has_separation, brute_force_massed
from cyclelink.connectivity import (
    MassedReport,
    PathSystem,
    Separation,
    is_massed,
    is_valid_separation,
    menger,
)
from cyclelink.errors import CertificateError, GraphError, ResourceGuardError
from cyclelink.graph import Graph, complete_graph, cycle_graph, path_graph
from cyclelink.harness import random_graph


def test_menger_on_cycle():
    c6 = cycle_graph(list(range(6)))
    res = menger(c6, {0, 1}, {3, 4}, 2)
    assert isinstance(res, PathSystem) and len(res.paths) == 2
    seen = set()
    for p in res.paths:
        assert p[0] in {0, 1} and p[-1] in {3, 4}
        assert not set(p) & seen
        seen |= set(p)
    # a single source vertex supports only one source-disjoint path
    res = menger(c6, {0}, {3}, 2)
    assert isinstance(res, Separation) and res.order == 1


def test_menger_returns_separation():
    p5 = path_graph([0, 1, 2, 3, 4])
    res = menger(p5, {0}, {4}, 2)
    assert isinstance(res, Separation)
    assert res.order == 1
    assert 0 in res.a_side and 4 in res.b_side
    assert is_valid_separation(p5, {0}, res)


def test_menger_paths_avoid_terminal_interiors():
    k5 = complete_graph(list(range(5)))
    res = menger(k5, {0, 1}, {3, 4}, 2)
    assert isinstance(res, PathSystem)
    for p in res.paths:
        assert p[0] in {0, 1} and p[-1] in {3, 4}
        assert not set(p[1:-1]) & {0, 1, 3, 4}


def test_menger_argument_validation():
    c4 = cycle_graph(list(range(4)))
    with pytest.raises(GraphError):
        menger(c4, set(), {1}, 1)
    with pytest.raises(GraphError):
        menger(c4, {0}, {1}, 0)
    with pytest.raises(GraphError):
        menger(c4, {0}, {9}, 1)
    with pytest.raises(GraphError):
        menger(c4, [0, 0], {1}, 1)
    with pytest.raises(GraphError):
        menger(c4, {0}, [2, 2], 1)


def _assert_menger_duality(g, src, snk, k, res):
    if isinstance(res, PathSystem):
        assert len(res.paths) == k
        interiors = set()
        for p in res.paths:
            assert p[0] in src and p[-1] in snk
            inner = set(p[1:-1])
            assert not inner & (src | snk)
            assert not inner & interiors
            interiors |= inner
        # duality: no separating set smaller than k exists
        assert not brute_force_has_separation(g, src, snk, k)
    else:
        assert res.order < k
        assert src <= res.a_side and snk <= res.b_side
        assert is_valid_separation(g, src & res.a_side, res)
        # and the middle really does separate
        sm = res.a_side & res.b_side
        left_src = g.mask(src - sm)
        left_snk = g.mask(snk - sm)
        if left_src and left_snk:
            reach = 0
            for comp in g.components(g.vertex_mask & ~g.mask(sm)):
                if comp & left_src:
                    reach |= comp
            assert not reach & left_snk


def test_menger_duality_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(4, 11)
        g = random_graph(rng, n, rng.uniform(0.15, 0.7))
        src = set(rng.sample(range(n), rng.randint(1, 3)))
        snk = set(rng.sample(range(n), rng.randint(1, 3)))
        k = rng.randint(1, 4)
        _assert_menger_duality(g, src, snk, k, menger(g, src, snk, k))


def test_menger_reroutes_through_a_used_vertex():
    # the first augmentation takes 0-1-2-3; the second enters 2 from 6 and
    # walks back along that path through the whole of vertex 1, which
    # leaves its path
    g = Graph(range(11), [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 2),
                          (0, 7), (7, 8), (8, 9), (9, 10)])
    res = menger(g, {0, 4}, {3, 10}, 2)
    assert res == PathSystem(((0, 7, 8, 9, 10), (4, 5, 6, 2, 3)))
    _assert_menger_duality(g, {0, 4}, {3, 10}, 2, res)


def test_menger_more_shared_terminals_than_k():
    g = path_graph(list(range(8)))
    res = menger(g, {0, 2, 3, 5, 6}, {1, 2, 3, 5, 6, 7}, 3)
    # the k lowest shared terminals, each a one-vertex path
    assert res == PathSystem(((2,), (3,), (5,)))


def test_menger_exactly_k_shared_terminals():
    g = cycle_graph(list(range(8)))
    res = menger(g, {1, 4, 6}, {0, 4, 6}, 2)
    assert res == PathSystem(((4,), (6,)))


def test_menger_augments_past_shared_terminals():
    rng = random.Random(17)
    longer = separations = 0
    for _ in range(200):
        n = rng.randint(7, 11)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        shared = set(rng.sample(range(n), rng.randint(1, 2)))
        rest = [v for v in range(n) if v not in shared]
        src = shared | set(rng.sample(rest, rng.randint(1, 2)))
        snk = shared | set(rng.sample([v for v in rest if v not in src], rng.randint(1, 2)))
        k = rng.randint(len(shared) + 1, len(shared) + 3)
        res = menger(g, src, snk, k)
        _assert_menger_duality(g, src, snk, k, res)
        if isinstance(res, PathSystem):
            assert {p for p in res.paths if len(p) == 1} == {(v,) for v in shared}
            longer += 1
        else:
            assert shared <= res.a_side & res.b_side
            separations += 1
    # both outcomes are exercised
    assert longer > 20 and separations > 20


def test_separation_minimality_exhaustive():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(4, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        src = set(rng.sample(range(n), 2))
        snk = set(rng.sample(range(n), 2))
        if src & snk:
            continue
        k = rng.randint(1, 3)
        res = menger(g, src, snk, k)
        if isinstance(res, Separation):
            # the returned order is exactly the max flow, so no strictly
            # smaller separating set can exist
            assert not brute_force_has_separation(g, src, snk, res.order)
            assert brute_force_has_separation(g, src, snk, res.order + 1)


def test_separation_json():
    sep = Separation(frozenset({0, 1, 2}), frozenset({2, 3}))
    d = sep.to_json_dict()
    assert d["A_cap_B"] == [2] and d["order"] == 1


def test_is_valid_separation():
    p5 = path_graph([0, 1, 2, 3, 4])
    good = Separation(frozenset({0, 1, 2}), frozenset({2, 3, 4}))
    assert is_valid_separation(p5, {0}, good)
    # crossing edge 1-2 without 1 or 2 in the middle
    bad = Separation(frozenset({0, 1}), frozenset({2, 3, 4}))
    assert not is_valid_separation(p5, {0}, bad)
    # roots must sit on the A side
    assert not is_valid_separation(p5, {4}, good)


def test_massed_m1_examples():
    k4 = complete_graph([1, 2, 3, 4])
    rep = is_massed(k4, {1}, Fraction(1, 2))
    # rho({2,3,4}) = 6 > 3/2, and no separator of order < 1 exists
    assert rep.massed and rep.m1_slack == Fraction(9, 2)
    rep = is_massed(k4, {1}, 2)
    assert not rep.m1_holds
    with pytest.raises(GraphError):
        is_massed(k4, set(), 1)
    with pytest.raises(GraphError):
        is_massed(k4, [1, 1, 2], 1)


def test_massed_extremal_family(e0, e1, e2):
    for g, roots in (e0, e1, e2):
        rep = is_massed(g, roots, 5)
        assert rep.massed
        assert rep.m1_slack == 1  # rho(V\X) = 5|V\X| + 1 exactly


def assert_tight_violator(g, x, rep):
    """The (M2) violator separates X from a dense B∖A, is tight
    (A∩B = N(B∖A)) and has order below |X|."""
    v = rep.m2_violator
    assert v is not None and not rep.m2_holds
    assert is_valid_separation(g, x, v)
    b_only = g.mask(v.b_side - v.a_side)
    assert g.mask(v.a_side & v.b_side) == g.nbr_mask(b_only)
    assert v.order < len(x)
    assert g.rho(b_only) > rep.lam * b_only.bit_count()


def test_massed_m2_violator_is_reported():
    k5 = list(complete_graph([10, 11, 12, 13, 14]).edges())
    # a pendant dense blob behind a single cut vertex, then an isolated
    # one (N(C) is empty)
    for edges in ([(0, 1), (1, 2), (2, 10)] + k5, [(0, 1), (1, 2)] + k5):
        g = Graph([0, 1, 2], edges)
        rep = is_massed(g, {0, 1, 2}, 1)
        assert_tight_violator(g, {0, 1, 2}, rep)
        v = rep.m2_violator
        assert set(v.b_side) - set(v.a_side) == {10, 11, 12, 13, 14}


def test_emitted_separations_are_rechecked(monkeypatch):
    p5 = path_graph([0, 1, 2, 3, 4])
    k5 = complete_graph([10, 11, 12, 13, 14])
    blob = Graph([0, 1, 2], [(0, 1), (1, 2), (2, 10)] + list(k5.edges()))
    assert isinstance(menger(p5, {0}, {4}, 2), Separation)
    assert is_massed(blob, {0, 1, 2}, 1).m2_violator is not None
    monkeypatch.setattr(cyclelink.connectivity, "_separates", lambda g, xm, am, bm: False)
    with pytest.raises(CertificateError):
        menger(p5, {0}, {4}, 2)
    with pytest.raises(CertificateError):
        is_massed(blob, {0, 1, 2}, 1)


def test_m2_violator_density_is_rechecked():
    class InflatedRho(Graph):
        """Over-reports rho on the first query of each mask."""

        seen: set = set()

        def rho(self, xm):
            first = xm not in self.seen
            self.seen.add(xm)
            return super().rho(xm) + 100 * first

    # every component that avoids X has rho(C) <= 2|C|, so the first one
    # scanned only looks dense, and the violator's own check must see that
    p5 = InflatedRho(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert is_massed(path_graph(range(5)), {0, 1, 2}, 2).m2_holds
    with pytest.raises(CertificateError, match="violator"):
        is_massed(p5, {0, 1, 2}, 2)


@pytest.mark.parametrize(
    "paths, ok",
    [
        (((0, 2, 4), (1, 3, 5)), True),
        (((0, 2, 4), (1, 2, 5)), False),  # two paths share a vertex
        (((0, 2, 3, 2, 4),), False),  # a path repeats a vertex
        (((2, 4), (1, 3, 5)), False),  # starts outside the sources
        (((0, 2), (1, 3, 5)), False),  # ends outside the sinks
        (((0, 1, 3, 5),), False),  # passes through a source
        (((0, 4, 5),), False),  # passes through a sink
        (((0, 3, 4),), False),  # 0-3 is not an edge
    ],
)
def test_path_system_check(paths, ok):
    g = Graph(range(6), [(u, v) for u, v in complete_graph(range(6)).edges() if (u, v) != (0, 3)])
    adj = {v: g.adj_mask(v) for v in g.vertices()}
    assert cyclelink.connectivity._is_path_system(adj, 0b11, 0b110000, paths) == ok


def test_menger_rechecks_its_paths(monkeypatch):
    real = cyclelink.connectivity._residual_bfs

    def jump(*args):
        pred, end, entries, exits = real(*args)
        pred[2 * 3] = 2 * 0 + 1  # vertex 0's exit leads straight into 3
        return pred, end, entries, exits

    c6 = cycle_graph(list(range(6)))
    assert menger(c6, {0}, {3}, 1).paths == ((0, 1, 2, 3),)
    monkeypatch.setattr(cyclelink.connectivity, "_residual_bfs", jump)
    with pytest.raises(CertificateError):
        menger(c6, {0}, {3}, 1)


def test_massed_agrees_with_bruteforce():
    rng = random.Random(29)
    for _ in range(120):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        kx = rng.randint(1, min(4, n))
        x = set(rng.sample(range(n), kx))
        lam = Fraction(rng.randint(1, 8), rng.randint(1, 3))
        rep = is_massed(g, x, lam)
        m1, m2 = brute_force_massed(g, x, lam)
        assert rep.m1_holds == m1
        assert rep.m2_holds == m2
        if not m2:
            assert_tight_violator(g, x, rep)
    # five roots, the (M2) scan of order 4 that solve runs
    for _ in range(60):
        n = rng.randint(5, 8)
        g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        x = set(rng.sample(range(n), 5))
        lam = rng.choice([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)])
        rep = is_massed(g, x, lam)
        assert (rep.m1_holds, rep.m2_holds) == brute_force_massed(g, x, lam)
        if not rep.m2_holds:
            assert_tight_violator(g, x, rep)


def test_massed_resource_guard():
    g = random_graph(random.Random(0), 40, 0.2)
    big = Graph(range(120), g.edges())
    with pytest.raises(ResourceGuardError):
        is_massed(big, set(range(12)), 5)


def test_massed_rational_lambda():
    c5 = cycle_graph(list(range(5)))
    rep = is_massed(c5, {0}, "3/2")
    assert rep.lam == Fraction(3, 2)
    assert isinstance(rep, MassedReport)
