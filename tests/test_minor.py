import random

import pytest

from cyclelink._oracle import naive_rooted_cycle_minor
from cyclelink.errors import GraphError, UnsupportedError
from cyclelink.graph import Graph, complete_graph, cycle_graph, path_graph
from cyclelink.harness import random_graph
from cyclelink.minor import (
    MinorModel,
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
            if not g.has_edge(u, v)
        ]
        if missing:
            g2 = g.add_edges([rng.choice(missing)])
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
        g2 = g.delete({outside[0]})
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


def test_minimal_certificates():
    k7 = complete_graph(list(range(7)))
    m = find_rooted_cycle_minor(k7, (0, 1, 2, 3, 4))
    assert all(len(bs) == 1 for bs in m.branch_sets)


def test_model_json_roundtrip():
    c5 = cycle_graph([1, 2, 3, 4, 5])
    m = find_rooted_cycle_minor(c5, (1, 2, 3, 4, 5))
    d = m.to_json_dict()
    assert list(d) == ["roots", "branch_sets"]
    assert MinorModel.from_json_dict(d) == m
