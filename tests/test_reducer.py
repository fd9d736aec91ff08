import random

import pytest

import cyclelink.reducer
from cyclelink.connectivity import is_massed
from cyclelink.errors import (
    CertificateError,
    FalsifierError,
    GraphError,
    NotMassedError,
)
from cyclelink.extremal import ExtremalCertificate
from cyclelink.graph import Graph, complete_graph, cycle_graph
from cyclelink.harness import random_graph
from cyclelink.io6 import to_graph6
from cyclelink.minor import MinorModel, ModelCheck, find_rooted_cycle_minor, verify_model
from cyclelink.reducer import ReductionTrace, solve


# --- solve ---------------------------------------------------------------


def test_solve_dense_graph_returns_model():
    k8 = complete_graph(list(range(8)))
    trace = ReductionTrace()
    result = solve(k8, (0, 1, 2, 3, 4), trace)
    assert isinstance(result, MinorModel)
    assert verify_model(k8, (0, 1, 2, 3, 4), result)
    assert trace.steps == [{"rule": "fallback-search"}]


def test_solve_extremal_family(e0, e1, e2):
    for g, roots in (e0, e1, e2):
        trace = ReductionTrace()
        result = solve(g, roots, trace)
        assert isinstance(result, ExtremalCertificate)
        assert result.verify(g)
        assert any(s.get("rule") == "certificate" for s in trace.steps)


def test_solve_rejects_not_massed():
    c5 = cycle_graph(list(range(5)))
    with pytest.raises(NotMassedError) as exc:
        solve(c5, (0, 1, 2, 3, 4))
    assert not exc.value.report.massed


def test_solve_argument_validation():
    k8 = complete_graph(list(range(8)))
    with pytest.raises(GraphError):
        solve(k8, (0, 1))
    with pytest.raises(GraphError):
        solve(k8, (0, 1, 2, 3, 4, 5))
    with pytest.raises(GraphError):
        solve(k8, (0, 1, 1))


def test_solve_falsifier_when_gate_is_skipped(monkeypatch):
    # a tree has no cycle minor at all; with the massed gate forced open and
    # fewer than five roots there is no certificate either, so the solver
    # must surface a replayable falsifier artifact
    monkeypatch.setattr(cyclelink.reducer, "is_massed", lambda g, seq, lam: True)
    p5 = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
    trace = ReductionTrace()
    with pytest.raises(FalsifierError) as exc:
        solve(p5, (0, 2, 4), trace)
    art = exc.value.artifact
    assert art["order"] == [0, 2, 4] and art["graph6"] == to_graph6(p5)
    assert [s["rule"] for s in trace.steps] == ["fallback-search", "falsifier"]


def test_solve_raises_when_model_fails_recheck(monkeypatch):
    monkeypatch.setattr(
        cyclelink.reducer, "verify_model", lambda g, seq, m: ModelCheck(False, "forced")
    )
    with pytest.raises(CertificateError, match="forced"):
        solve(complete_graph(list(range(8))), (0, 1, 2, 3, 4))


def test_solve_agrees_with_engine_on_random_massed():
    rng = random.Random(51)
    seen = 0
    for _ in range(400):
        n = rng.randint(7, 10)
        g = random_graph(rng, n, rng.uniform(0.8, 0.97))
        k = rng.choice([3, 4, 5])
        seq = tuple(rng.sample(range(n), k))
        if not is_massed(g, seq, 5).massed:
            continue
        seen += 1
        engine = find_rooted_cycle_minor(g, seq)
        trace = ReductionTrace()
        try:
            result = solve(g, seq, trace)
        except FalsifierError:
            assert engine is None
            continue
        if isinstance(result, MinorModel):
            assert result == engine
            assert verify_model(g, seq, result)
            assert trace.steps == [{"rule": "fallback-search"}]
        else:
            assert engine is None
        if seen >= 40:
            break
    assert seen >= 20


def test_trace_records_rule_firings(e1):
    g, roots = e1
    trace = ReductionTrace()
    solve(g, roots, trace)
    rules = [s["rule"] for s in trace.steps]
    assert rules == ["fallback-search", "certificate"]
