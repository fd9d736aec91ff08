import hashlib
import json
import random
from collections import Counter

import pytest

from cyclelink import minor
from cyclelink._oracle import naive_rooted_cycle_minor
from cyclelink.errors import GraphError, UnsupportedError
from cyclelink.extremal import generate
from cyclelink.graph import Graph, bits, complete_graph, cycle_graph, path_graph
from cyclelink.harness import random_graph
from cyclelink.minor import (
    MinorModel,
    _paths_between,
    _search,
    canonical_cyclic_orders,
    find_rooted_cycle_minor,
    is_cycle_linked,
    path_exists,
    verify_model,
)


def test_identity_embedding_on_cycle():
    c5 = cycle_graph([1, 2, 3, 4, 5])
    m = find_rooted_cycle_minor(c5, (1, 2, 3, 4, 5))
    assert m is not None
    assert m.branch_sets == tuple(frozenset({i}) for i in (1, 2, 3, 4, 5))


def test_long_cycle_routes_without_recursion_error():
    # the 0..2 demand is routed along a 1,497-vertex interior path
    g = cycle_graph(list(range(1500)))
    m = find_rooted_cycle_minor(g, (0, 1, 2))
    assert m is not None
    assert verify_model(g, (0, 1, 2), m)


def test_path_has_no_cycle_minor():
    p5 = path_graph([1, 2, 3, 4, 5])
    assert find_rooted_cycle_minor(p5, (1, 2, 3, 4, 5)) is None


def test_extremal_canonical_order_has_none(e1):
    g, roots = e1
    assert find_rooted_cycle_minor(g, roots) is None
    # oracle concurs (frozen cross-check for the obstruction family)
    assert naive_rooted_cycle_minor(g, roots) is None


def test_complete_graph_any_order():
    k7 = complete_graph(list(range(7)))
    for seq in [(0, 1, 2, 3, 4), (4, 2, 0, 6, 3)]:
        m = find_rooted_cycle_minor(k7, seq)
        assert m is not None and verify_model(k7, seq, m)


def test_engine_limits():
    k9 = complete_graph(list(range(9)))
    with pytest.raises(UnsupportedError):
        find_rooted_cycle_minor(k9, tuple(range(9)))
    with pytest.raises(GraphError):
        find_rooted_cycle_minor(k9, (0, 1))
    with pytest.raises(GraphError):
        find_rooted_cycle_minor(k9, (0, 1, 1))


def test_verify_model_diagnostics():
    c5 = cycle_graph([1, 2, 3, 4, 5])
    seq = (1, 2, 3, 4, 5)
    good = MinorModel(seq, tuple(frozenset({i}) for i in seq))
    assert verify_model(c5, seq, good)
    swapped = MinorModel(
        seq,
        (frozenset({1}), frozenset({3}), frozenset({2}), frozenset({4}), frozenset({5})),
    )
    check = verify_model(c5, seq, swapped)
    assert not check and "root" in check.reason
    overlapping = MinorModel(
        seq,
        (frozenset({1, 2}), frozenset({2}), frozenset({3}), frozenset({4}), frozenset({5})),
    )
    assert "overlap" in verify_model(c5, seq, overlapping).reason
    disconnected = MinorModel(
        seq,
        (frozenset({1, 3}), frozenset({2}), frozenset({3}), frozenset({4}), frozenset({5})),
    )
    assert not verify_model(c5, seq, disconnected)
    reordered = MinorModel((2, 1, 3, 4, 5), good.branch_sets)
    assert "roots do not match" in verify_model(c5, seq, reordered).reason
    short = MinorModel(seq, good.branch_sets[:4])
    assert "expected 5 branch sets" in verify_model(c5, seq, short).reason
    unknown = MinorModel(seq, (frozenset({1, 99}),) + good.branch_sets[1:])
    assert "unknown vertices" in verify_model(c5, seq, unknown).reason
    p5 = path_graph([1, 2, 3, 4, 5])
    assert "no edge between branch sets 4 and 0" in verify_model(p5, seq, good).reason


def test_path_exists():
    c5 = cycle_graph([1, 2, 3, 4, 5])
    assert path_exists(c5, 1, 3)
    two = Graph([], [(1, 2), (3, 4)])
    assert not path_exists(two, 1, 3)
    with pytest.raises(GraphError):
        path_exists(c5, 1, 1)


def test_canonical_orders_count():
    assert canonical_cyclic_orders([3, 1, 2]) == [(1, 2, 3)]
    orders = canonical_cyclic_orders([1, 2, 3, 4, 5])
    assert len(orders) == 12
    assert all(o[0] == 1 and o[1] < o[-1] for o in orders)
    # rotations/reflections of any order normalize into the list
    assert (1, 3, 5, 2, 4) in orders


def test_cycle_linked_k7():
    k7 = complete_graph(list(range(7)))
    rep = is_cycle_linked(k7, [0, 1, 2, 3, 4])
    assert rep.linked and len(rep.witnesses) == 12


def test_cycle_linked_c5_fails():
    c5 = cycle_graph([1, 2, 3, 4, 5])
    rep = is_cycle_linked(c5, [1, 2, 3, 4, 5])
    assert not rep.linked
    assert rep.failing_order is not None
    assert find_rooted_cycle_minor(c5, rep.failing_order) is None


def test_cycle_linked_small_sets():
    c5 = cycle_graph([1, 2, 3, 4, 5])
    assert is_cycle_linked(c5, [1, 3]).linked
    two = Graph([], [(1, 2), (3, 4)])
    assert not is_cycle_linked(two, [1, 3]).linked
    assert is_cycle_linked(c5, [2]).linked
    with pytest.raises(GraphError):
        is_cycle_linked(c5, [])
    with pytest.raises(GraphError):
        is_cycle_linked(c5, [1, 1, 3])
    with pytest.raises(UnsupportedError):
        is_cycle_linked(complete_graph(list(range(9))), range(9))


def test_extremal_not_linked_with_failing_canonical(e1):
    g, roots = e1
    rep = is_cycle_linked(g, roots)
    assert not rep.linked
    assert rep.failing_order == roots  # canonical order is enumerated first


def test_rotation_reflection_invariance():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, 7, 0.45)
        seq = tuple(rng.sample(range(7), 4))
        base = find_rooted_cycle_minor(g, seq) is not None
        rotated = seq[1:] + seq[:1]
        reflected = tuple(reversed(seq))
        assert (find_rooted_cycle_minor(g, rotated) is not None) == base
        assert (find_rooted_cycle_minor(g, reflected) is not None) == base


def test_soundness_sweep_random():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(5, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        k = rng.choice([3, 4, 5])
        seq = tuple(rng.sample(range(n), k))
        m = find_rooted_cycle_minor(g, seq)
        if m is not None:
            assert verify_model(g, seq, m)


def test_monotone_under_edge_addition():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, 7, 0.3)
        seq = tuple(rng.sample(range(7), 4))
        if find_rooted_cycle_minor(g, seq) is None:
            continue
        missing = [
            (u, v)
            for u in range(7)
            for v in range(u + 1, 7)
            if not g.adj_mask(u) >> v & 1
        ]
        if missing:
            g2 = Graph(g.vertices(), [*g.edges(), rng.choice(missing)])
            assert find_rooted_cycle_minor(g2, seq) is not None


def test_deleting_unused_vertex_preserves_yes():
    rng = random.Random(37)
    kept = 0
    for _ in range(60):
        g = random_graph(rng, 8, 0.5)
        seq = tuple(rng.sample(range(8), 4))
        m = find_rooted_cycle_minor(g, seq)
        if m is None:
            continue
        used = set().union(*m.branch_sets)
        outside = sorted(set(g.vertices()) - used)
        if not outside:
            continue
        kept += 1
        w = outside[0]
        g2 = Graph([v for v in g.vertices() if v != w], [e for e in g.edges() if w not in e])
        assert find_rooted_cycle_minor(g2, seq) is not None
    assert kept > 5


def test_agreement_with_oracle_exhaustive_tiny():
    # all graphs on 5 labeled vertices would be slow; sample densities instead
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(4, 7)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        k = rng.choice([3, 4])
        if n < k:
            continue
        seq = tuple(rng.sample(range(n), k))
        fast = find_rooted_cycle_minor(g, seq)
        slow = naive_rooted_cycle_minor(g, seq)
        assert (fast is None) == (slow is None)



def test_pruned_search_agrees_with_oracle_at_depth():
    # sparse graphs with k = 5, 6: demands past the first are routed along
    # paths, so the dominated cuts and the skipped repeat children decide
    # many answers, and "no" is common
    rng = random.Random(43)
    answers = set()
    for _ in range(120):
        n = rng.randint(9, 10)
        g = random_graph(rng, n, rng.uniform(0.3, 0.55))
        seq = tuple(rng.sample(range(n), rng.choice([5, 6])))
        fast = find_rooted_cycle_minor(g, seq)
        slow = naive_rooted_cycle_minor(g, seq)
        assert (fast is None) == (slow is None), (list(g.edges()), seq)
        answers.add(fast is None)
    assert answers == {True, False}


def test_oracle_agreement_on_connected_7_vertex_graphs():
    # every connected 7-vertex graph of the networkx atlas, one seeded root
    # set each for k = 4 and k = 5, every canonical order of both
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    rng = random.Random(7)
    graphs = pairs = 0
    answers = set()
    for G in graph_atlas_g():
        if G.number_of_nodes() != 7 or not nx.is_connected(G):
            continue
        graphs += 1
        g = Graph(range(7), list(G.edges()))
        for k in (4, 5):
            for order in canonical_cyclic_orders(rng.sample(range(7), k)):
                fast = find_rooted_cycle_minor(g, order)
                slow = naive_rooted_cycle_minor(g, order)
                assert (fast is None) == (slow is None), (list(g.edges()), order)
                answers.add(fast is None)
                pairs += 1
    assert (graphs, pairs) == (853, 12795)
    assert answers == {True, False}


def _reference_paths(g, a_set, b_set, free):
    """Every simple path inside ``free`` from a neighbour of ``a_set`` to a
    vertex adjacent to ``b_set``, lowest id first, as its prefix masks."""
    adj = {v: set() for v in g.vertices()}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    out = []

    def extend(path, nbrs):
        for v in sorted(nbrs & free - set(path)):
            path.append(v)
            if adj[v] & b_set:
                out.append([sum(1 << u for u in path[: i + 1]) for i in range(len(path))])
            extend(path, adj[v])
            path.pop()

    extend([], set().union(*(adj[x] for x in a_set)))
    return out


def _first_sets(paths):
    return list(dict.fromkeys(heads[-1] for heads in paths))


def test_paths_between_matches_a_reference_enumeration():
    # unguarded, the search yields exactly the reference's paths in order;
    # with ``distinct`` it yields some of them, and their vertex sets come
    # in the same first-appearance order
    rng = random.Random(13)
    total = 0
    for _ in range(300):
        n = rng.randint(6, 11)
        g = random_graph(rng, n, rng.uniform(2, 5) / n)
        vs = rng.sample(range(n), n)
        na, nb = rng.randint(1, 2), rng.randint(1, 2)
        a_set, b_set, free = set(vs[:na]), set(vs[na : na + nb]), set(vs[na + nb :])
        args = g, g.mask(a_set), g.mask(b_set), g.mask(free)
        want = _reference_paths(g, a_set, b_set, free)
        assert list(_paths_between(*args)) == want, (list(g.edges()), a_set, b_set)
        got = list(_paths_between(*args, distinct=True))
        assert all(heads in want for heads in got)
        assert _first_sets(got) == _first_sets(want), (list(g.edges()), a_set, b_set)
        total += len(want)
    assert total > 10000, total


def _routes(g, guards, left):
    return all(g.reach_mask(src & left, left) & near for src, near in guards)


def test_path_guards_drop_exactly_the_unroutable_paths():
    # the guarded search yields exactly the unguarded paths whose leftover
    # free set still routes every guard, in the same order (sparse graphs,
    # mean degree 2.5-5, keep the unguarded enumeration small)
    rng = random.Random(11)
    kept = dropped = 0
    for _ in range(300):
        n = rng.randint(8, 14)
        g = random_graph(rng, n, rng.uniform(2.5, 5) / n)
        vs = rng.sample(range(n), n)
        a, b, rest = vs[0], vs[1], vs[2:]
        guards = []
        for _ in range(rng.randint(1, 3)):
            x, y = rest.pop(), rest.pop()
            guards.append((g.nbr_mask(1 << x), g.nbr_mask(1 << y)))
        free = sum(1 << v for v in rest)
        for distinct in (False, True):
            plain = list(_paths_between(g, 1 << a, 1 << b, free, distinct=distinct))
            want = [heads for heads in plain if _routes(g, guards, free & ~heads[-1])]
            got = list(_paths_between(g, 1 << a, 1 << b, free, guards, distinct))
            assert got == want, (list(g.edges()), a, b, guards, free, distinct)
            kept += len(got)
            dropped += len(plain) - len(got)
    assert kept > 100 and dropped > 100


def _outside_nbrs(g, xm, out):
    nm = 0
    for v in bits(xm):
        nm |= g.adj_mask(v)
    return nm & out


def test_depth0_dominance_lemma():
    # the exchange argument behind skipping dominated depth-0 children,
    # checked by searching below every child: when an earlier child's key
    # (left, N(X_0) & out, N(X_1) & out) contains a later child's part by
    # part, a model below the later child means a model below the earlier
    rng = random.Random(12)
    covered = both = 0
    for _ in range(300):
        n = rng.randint(8, 12)
        g = random_graph(rng, n, rng.uniform(2.5, 4) / n)
        k = rng.randint(4, 6)
        seq = rng.sample(range(n), k)
        free = g.vertex_mask & ~g.mask(seq)
        x0, x1 = 1 << seq[0], 1 << seq[1]
        children = {}  # (head, path set) -> (key, a model exists below)
        for heads in _paths_between(g, x0, x1, free):
            pmask = heads[-1]
            for head in (0, *heads):
                if (head, pmask) in children:
                    continue
                sets = [x0 | head, x1 | pmask & ~head] + [1 << r for r in seq[2:]]
                left = free & ~pmask
                out = g.vertex_mask & ~(sets[0] | sets[1])
                key = (left, _outside_nbrs(g, sets[0], out), _outside_nbrs(g, sets[1], out))
                children[head, pmask] = key, _search(g, sets, left, 1, k) is not None
        found = list(children.values())
        for b, (kb, model_b) in enumerate(found):
            for ka, model_a in found[:b]:
                if not any(pb & ~pa for pa, pb in zip(ka, kb)):
                    covered += 1
                    both += model_b
                    assert model_a or not model_b, (list(g.edges()), seq, ka, kb)
    assert covered > 10000 and both > 1000, (covered, both)


ENGINE_MODELS_SHA256 = "3becaf145bdae50ce759b0efa248d4e5a551a76b57f4a409e47bf0423fbf0ff9"


def test_engine_models_pinned(e2):
    # the prunings skip only children that cannot succeed, so the first
    # model found (or None) must never change: a digest of 400 seeded
    # random instances and every order of the 13-vertex family member
    digest = hashlib.sha256()

    def record(g, seq):
        m = find_rooted_cycle_minor(g, seq)
        digest.update(json.dumps(m.to_json_dict() if m else None).encode() + b"\n")

    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(7, 13)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        record(g, tuple(rng.sample(range(n), rng.randint(3, 6))))
    g, roots = e2
    for order in canonical_cyclic_orders(roots):
        record(g, order)
    assert digest.hexdigest() == ENGINE_MODELS_SHA256


def _count_calls(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args):
        counts[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


def _no_proof_calls(e2, monkeypatch, owner, name):
    """Calls of owner.name over every order of the 13-vertex family member
    and over the canonical order of the 17-vertex one."""
    g17, roots17 = generate([(1, 3), (3, 4), (5, 3)])
    counts = Counter()
    _count_calls(monkeypatch, owner, name, counts)
    g, roots = e2
    for order in canonical_cyclic_orders(roots):
        find_rooted_cycle_minor(g, order)
    member = counts[name]
    counts.clear()
    assert find_rooted_cycle_minor(g17, roots17) is None
    return member, counts[name]


def test_no_proof_search_nodes_pinned(e2, monkeypatch):
    # a deterministic work count of the exhaustive "no" proof: _search
    # calls (5,328 and 1,297 before the dominated depth-0 children were
    # skipped)
    assert _no_proof_calls(e2, monkeypatch, minor, "_search") == (160, 25)


def test_no_proof_guard_routes_pinned(e2, monkeypatch):
    # a deterministic work count of the path guards: Graph.path_mask calls
    # (8,244 and 8,454 reach_mask calls before the guards kept one witness
    # route each; 3,052 and 2,884 before the starting state was checked,
    # which adds one route per demand, five per order, as the members'
    # roots are pairwise nonadjacent)
    assert _no_proof_calls(e2, monkeypatch, Graph, "path_mask") == (3112, 2889)


def _dead_demand_graph(shape, m=8):
    """A graph on the roots 0..4 and a clique K_m on 5..4+m in which some
    demand of the order (0, 1, 2, 3, 4) has no route from the start."""
    clique = list(complete_graph(range(5, 5 + m)).edges())
    if shape == "apart":  # x0 is joined to the clique and cannot reach x1
        edges = [(0, c) for c in range(5, 5 + m)] + [(1, 2), (2, 3), (3, 4)]
    elif shape == "hanging":  # x1 hangs off the clique, x2 only meets x3
        edges = [(0, c) for c in range(5, 5 + m)] + [(1, 5), (2, 3), (3, 4)]
    else:  # x0-x1 is an edge, x1 is joined to the clique, x2 only meets x3
        edges = [(1, c) for c in range(5, 5 + m)] + [(0, 1), (2, 3), (3, 4), (4, 0)]
    return Graph(range(5 + m), clique + edges)


@pytest.mark.parametrize("shape", ["apart", "hanging", "adjacent"])
def test_dead_demand_ends_before_the_search(shape, monkeypatch):
    # a search from the start enumerates the clique's paths, a count
    # exponential in m, before it finds that the dead demand fails every
    # child; the starting state's check ends the proof with no search
    g = _dead_demand_graph(shape)
    counts = Counter()
    _count_calls(monkeypatch, minor, "_search", counts)
    assert find_rooted_cycle_minor(g, (0, 1, 2, 3, 4)) is None
    assert counts["_search"] == 0


def test_minimal_certificates():
    k7 = complete_graph(list(range(7)))
    m = find_rooted_cycle_minor(k7, (0, 1, 2, 3, 4))
    assert all(len(bs) == 1 for bs in m.branch_sets)


def test_sparse_models_are_inclusion_minimal():
    # sparse graphs give long branch sets with cut vertices; no non-root
    # vertex may leave a set that stays connected and touches both neighbours
    rng = random.Random(5)
    removed_checks = 0
    for _ in range(150):
        n = rng.randint(10, 30)
        g = random_graph(rng, n, rng.uniform(1.2, 2.5) / n)
        seq = tuple(rng.sample(range(n), rng.randint(3, 5)))
        m = find_rooted_cycle_minor(g, seq)
        if m is None:
            continue
        masks = [g.mask(bs) for bs in m.branch_sets]
        k = len(seq)
        for i, bm in enumerate(masks):
            for v in m.branch_sets[i] - {seq[i]}:
                trial = bm & ~(1 << v)
                removed_checks += 1
                assert not (
                    g.is_connected_mask(trial)
                    and g.touches(trial, masks[i - 1])
                    and g.touches(trial, masks[(i + 1) % k])
                ), (list(g.edges()), seq, i, v)
    assert removed_checks > 100


def test_model_json_roundtrip():
    c5 = cycle_graph([1, 2, 3, 4, 5])
    m = find_rooted_cycle_minor(c5, (1, 2, 3, 4, 5))
    d = m.to_json_dict()
    assert list(d) == ["roots", "branch_sets"]
    assert MinorModel.from_json_dict(d) == m
