import json
import random

import pytest

import cyclelink.minor
import cyclelink.reducer
from cyclelink.cli import EXIT_NO, EXIT_YES, main
from cyclelink.connectivity import is_massed
from cyclelink.errors import (
    CertificateError,
    FalsifierError,
    GraphError,
    NotMassedError,
)
from cyclelink.extremal import ExtremalCertificate
from cyclelink.graph import Graph, bits, complete_graph, cycle_graph
from cyclelink.harness import random_graph
from cyclelink.io6 import to_graph6
from cyclelink.minor import MinorModel, ModelCheck, find_rooted_cycle_minor, verify_model
from cyclelink.reducer import solve


# --- solve ---------------------------------------------------------------


def test_solve_dense_graph_returns_model():
    k8 = complete_graph(list(range(8)))
    result = solve(k8, (0, 1, 2, 3, 4))
    assert isinstance(result, MinorModel)
    assert verify_model(k8, (0, 1, 2, 3, 4), result)


def test_solve_extremal_family(e0, e1, e2):
    for g, roots in (e0, e1, e2):
        result = solve(g, roots)
        assert isinstance(result, ExtremalCertificate)
        assert result.verify(g)


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
    with pytest.raises(FalsifierError) as exc:
        solve(p5, (0, 2, 4))
    art = exc.value.artifact
    assert art["order"] == [0, 2, 4] and art["graph6"] == to_graph6(p5)


def test_falsifier_artifact_replays_on_an_edge_list(tmp_path, capsys, monkeypatch):
    # the artifact's order names the vertices of its graph6 string, which
    # relabels the ids 10..14 of the input to 0..4
    monkeypatch.setattr(cyclelink.reducer, "is_massed", lambda g, seq, lam: True)
    path = tmp_path / "p5.edges"
    path.write_text("10 11\n11 12\n12 13\n13 14\n")
    assert main(["solve", "--roots", "10,12,14", str(path)]) == EXIT_NO
    art = json.loads(capsys.readouterr().out)["artifact"]
    assert art["order"] == [0, 2, 4]
    replay = tmp_path / "falsifier.g6"
    replay.write_text(art["graph6"] + "\n")
    order = ",".join(map(str, art["order"]))
    assert main(["check", "--order", order, str(replay)]) == EXIT_NO
    assert json.loads(capsys.readouterr().out)["verdict"] == "no-model"


def test_solve_raises_when_model_fails_recheck(monkeypatch):
    # the engine checks its model once, and solve passes the failure on
    monkeypatch.setattr(
        cyclelink.minor, "_check_masks", lambda g, seq, masks: ModelCheck(False, "forced")
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
        try:
            result = solve(g, seq)
        except FalsifierError:
            assert engine is None
            continue
        if isinstance(result, MinorModel):
            assert result == engine
            assert verify_model(g, seq, result)
        else:
            assert engine is None
        if seen >= 40:
            break
    assert seen >= 20


def test_solve_explain_golden(tmp_path, capsys, monkeypatch, e1):
    # --explain writes the engine's search, then the rule that decided a
    # "no"; a not-massed instance stops at the gate and writes nothing
    p5 = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
    cases = [
        (complete_graph(list(range(8))), "0,1,2,3,4", False, EXIT_YES, "model",
         ['{"rule": "fallback-search"}']),
        # graph6 relabels e1 to 0..9: roots 0..4, apex pair 5, 6
        (e1[0], "0,1,2,3,4", False, EXIT_NO, "extremal",
         ['{"rule": "fallback-search"}',
          '{"common_root_neighbors": [5, 6], "rule": "certificate"}']),
        (p5, "0,2,4", True, EXIT_NO, "falsifier",
         ['{"rule": "fallback-search"}',
          '{"graph6": "DhC", "order": [0, 2, 4], "rule": "falsifier"}']),
        (cycle_graph(list(range(5))), "0,1,2,3,4", False, EXIT_NO, "not-massed", []),
    ]
    for g, roots, gate_open, code, verdict, lines in cases:
        path = tmp_path / "g.g6"
        path.write_text(to_graph6(g) + "\n")
        with monkeypatch.context() as m:
            if gate_open:
                m.setattr(cyclelink.reducer, "is_massed", lambda g, seq, lam: True)
            assert main(["solve", "--explain", "--roots", roots, str(path)]) == code
        out = capsys.readouterr()
        assert json.loads(out.out)["verdict"] == verdict
        assert out.err.splitlines() == lines


def test_apex_pair_is_the_common_root_neighborhood(e0, e1, e2):
    # --explain reports list(cert.apex_pair) as the roots' common neighbours
    rng = random.Random(11)
    for g, roots in (e0, e1, e2):
        vs = list(g.vertices())
        for _ in range(3):
            ids = dict(zip(vs, rng.sample(range(3 * len(vs)), len(vs))))
            h = Graph(ids.values(), [(ids[u], ids[v]) for u, v in g.edges()])
            seq = tuple(ids[x] for x in roots)
            common = h.vertex_mask
            for x in seq:
                common &= h.adj_mask(x)
            assert list(solve(h, seq).apex_pair) == list(bits(common))
