import json
import os
import subprocess
import sys

import pytest

import cyclelink.cli
import cyclelink.extremal
import cyclelink.minor
from cyclelink.cli import EXIT_CRASH, EXIT_ERROR, EXIT_NO, EXIT_YES, main
from cyclelink.extremal import generate, recognize
from cyclelink.graph import complete_graph, cycle_graph, path_graph
from cyclelink.io6 import load_graph, to_graph6
from cyclelink.minor import MinorModel, ModelCheck


def write_g6(tmp_path, g, name="g.g6"):
    p = tmp_path / name
    p.write_text(to_graph6(g) + "\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, json.loads(out.out), out.err


def test_check_yes(tmp_path, capsys):
    path = write_g6(tmp_path, cycle_graph(list(range(5))))
    code, payload, _ = run(capsys, "check", "--order", "0,1,2,3,4", path)
    assert code == EXIT_YES
    assert payload["verdict"] == "model"
    assert payload["model"]["roots"] == [0, 1, 2, 3, 4]


def test_check_no(tmp_path, capsys):
    path = write_g6(tmp_path, path_graph(list(range(5))))
    code, payload, _ = run(capsys, "check", "--order", "0,1,2,3,4", path)
    assert code == EXIT_NO
    assert payload["verdict"] == "no-model"


def test_cycle_linked(tmp_path, capsys):
    path = write_g6(tmp_path, complete_graph(list(range(7))))
    code, payload, _ = run(capsys, "cycle-linked", "--roots", "0,1,2,3,4", path)
    assert code == EXIT_YES and payload["linked"]
    assert len(payload["witnesses"]) == 12

    path = write_g6(tmp_path, cycle_graph(list(range(5))))
    code, payload, _ = run(capsys, "cycle-linked", "--roots", "0,1,2,3,4", path)
    assert code == EXIT_NO and not payload["linked"]
    assert payload["failing_order"] is not None


def test_massed(tmp_path, capsys):
    path = write_g6(tmp_path, complete_graph(list(range(4))))
    code, payload, _ = run(capsys, "massed", "--lambda", "1/2", "--roots", "0", path)
    assert code == EXIT_YES and payload["massed"]
    assert payload["lambda"] == "1/2"
    code, payload, _ = run(capsys, "massed", "--lambda", "2", "--roots", "0", path)
    assert code == EXIT_NO and not payload["m1_holds"]


def test_solve_model(tmp_path, capsys):
    path = write_g6(tmp_path, complete_graph(list(range(8))))
    code, payload, _ = run(capsys, "solve", "--roots", "0,1,2,3,4", path)
    assert code == EXIT_YES
    assert payload["verdict"] == "model"


def test_solve_extremal_with_explain(tmp_path, capsys, e1):
    g, roots = e1
    path = write_g6(tmp_path, g)  # the writer relabels vertices to 0..9
    code, payload, err = run(
        capsys, "solve", "--explain", "--roots", "0,1,2,3,4", path
    )
    assert code == EXIT_NO
    assert payload["verdict"] == "extremal"
    assert payload["certificate"]["apex_pair"] == [5, 6]
    steps = [json.loads(line) for line in err.splitlines()]
    assert any(s.get("rule") == "fallback-search" for s in steps)


def test_solve_not_massed(tmp_path, capsys):
    path = write_g6(tmp_path, cycle_graph(list(range(5))))
    code, payload, _ = run(capsys, "solve", "--roots", "0,1,2,3,4", path)
    assert code == EXIT_NO
    assert payload["verdict"] == "not-massed"
    assert payload["report"]["massed"] is False


def test_gen_extremal_writes_sidecar(tmp_path, capsys):
    out = str(tmp_path / "member.g6")
    code, payload, _ = run(capsys, "gen-extremal", "--spec", "1:3", "-o", out)
    assert code == EXIT_YES
    g, _ = generate([(1, 3)])
    assert payload["graph6"] == to_graph6(g)
    with open(out) as fh:
        assert fh.read().strip() == payload["graph6"]
    with open(out + ".json") as fh:
        assert json.load(fh) == payload
    # the sidecar names the vertices of the file, not the generator's ids
    h = load_graph(out)
    assert list(recognize(h, payload["roots"]).apex_pair) == payload["apex_pair"]


def test_gen_extremal_rejects_bad_spec(capsys):
    code, payload, _ = run(capsys, "gen-extremal", "--spec", "9:3")
    assert code == EXIT_ERROR and "error" in payload


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-extremal", "--spec", "1:x"],
        ["gen-extremal", "--spec", "1"],
        ["verify-theorem", "--connectivity", "3", "--n-range", "12", "--graphs", "1"],
        ["verify-theorem", "--connectivity", "3", "--n-range", "9:5", "--graphs", "1"],
        ["verify-theorem", "--connectivity", "3", "--n-range", "3:4", "--graphs", "1", "--k", "9"],
        ["verify-theorem", "--connectivity", "3", "--n-range", "5:6", "--graphs", "1", "--k=-1"],
        ["massed", "--lambda", "abc", "--roots", "0", "{graph}"],
        ["massed", "--lambda", "1/0", "--roots", "0", "{graph}"],
        ["oracle-sweep", "--k", "a", "--corpus", "{corpus}"],
        ["oracle-sweep", "--k=-1", "--corpus", "{corpus}"],
        ["oracle-sweep", "--limit", "-1", "--corpus", "{corpus}"],
        ["verify-theorem", "--connectivity", "3", "--n-range", "5:6", "--graphs", "-1"],
        ["verify-theorem", "--connectivity", "3", "--n-range", "5:6", "--graphs", "0"],
        ["verify-theorem", "--connectivity", "3", "--n-range", "5:6", "--subsets", "-2"],
        ["verify-theorem", "--connectivity", "x", "--n-range", "5:6"],
        ["verify-theorem", "--connectivity", "3", "--n-range", "-5:6"],
        ["check", "{graph}"],
        ["verify-theorem", "--connectivity", "0", "--n-range", "3:4", "--graphs", "1",
         "--subsets", "1", "--k", "3", "--seed", "1"],
        ["oracle-sweep", "--k", "7", "--corpus", "{corpus}"],
        ["oracle-sweep", "--k", "3,3", "--corpus", "{corpus}"],
        ["massed", "--lambda", "5", "--roots", "0,0,1", "{graph}"],
    ],
)
def test_malformed_values_are_input_errors(argv, tmp_path, capsys, corpus_path):
    graph = write_g6(tmp_path, complete_graph(list(range(4))))
    argv = [a.format(graph=graph, corpus=corpus_path) for a in argv]
    code, payload, _ = run(capsys, *argv)
    assert code == EXIT_ERROR
    assert set(payload) == {"error"}


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--order" in capsys.readouterr().out


def test_verify_theorem_smoke(tmp_path, capsys):
    out = str(tmp_path / "records.jsonl")
    code, payload, _ = run(
        capsys,
        "verify-theorem",
        "--connectivity", "6",
        "--n-range", "8:9",
        "--graphs", "3",
        "--subsets", "2",
        "--seed", "7",
        "--k", "4",
        "-o", out,
    )
    assert code == EXIT_YES
    assert payload["falsifiers"] == []
    assert payload["checks"] == 3 * 2 * 3  # 3 canonical orders for k=4
    with open(out) as fh:
        assert len(fh.read().splitlines()) == 6


def test_oracle_sweep_smoke(corpus_path, capsys):
    code, payload, _ = run(
        capsys, "oracle-sweep", "--corpus", corpus_path, "--k", "3", "--limit", "25"
    )
    assert code == EXIT_YES
    assert payload["disagreements"] == []
    assert payload["agreements"] == payload["pairs"] > 0


def test_malformed_graph6_reports_offset(tmp_path, capsys):
    p = tmp_path / "bad.g6"
    p.write_text("D?" + chr(30) + "\n")
    code, payload, _ = run(capsys, "check", "--order", "0,1,2", str(p))
    assert code == EXIT_ERROR
    assert payload["byte_offset"] == 2


def test_unknown_vertex_is_an_error(tmp_path, capsys):
    path = write_g6(tmp_path, cycle_graph(list(range(5))))
    code, payload, _ = run(capsys, "check", "--order", "0,1,99", path)
    assert code == EXIT_ERROR and "error" in payload


def test_missing_file_is_an_error(capsys):
    code, payload, _ = run(capsys, "check", "--order", "0,1,2", "/nonexistent.g6")
    assert code == EXIT_ERROR and "error" in payload


def test_crash_is_not_a_no(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("engine blew up")

    monkeypatch.setattr(cyclelink.cli, "cmd_check", broken)
    path = write_g6(tmp_path, cycle_graph(list(range(5))))
    code, payload, err = run(capsys, "check", "--order", "0,1,2,3,4", path)
    assert code == EXIT_CRASH
    assert payload == {"error": "RuntimeError: engine blew up"}
    assert "Traceback" in err and "engine blew up" in err


def test_failed_self_check_is_a_crash(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cyclelink.minor, "_check_masks", lambda g, seq, masks: ModelCheck(False, "forced")
    )
    path = write_g6(tmp_path, complete_graph(list(range(8))))
    code, payload, _ = run(capsys, "solve", "--roots", "0,1,2,3,4", path)
    assert code == EXIT_CRASH
    assert payload["error"].startswith("CertificateError")


@pytest.mark.parametrize(
    "name, fake",
    [
        ("recognize", lambda g, seq: None),
        ("find_rooted_cycle_minor", lambda g, seq: MinorModel(tuple(seq), ())),
    ],
)
def test_gen_extremal_failed_self_check_is_a_crash(capsys, monkeypatch, name, fake):
    # a member that fails the recognizer, or has a model for its canonical
    # order, is the generator's fault, not a bad spec
    monkeypatch.setattr(cyclelink.extremal, name, fake)
    code, payload, _ = run(capsys, "gen-extremal", "--spec", "1:3")
    assert code == EXIT_CRASH
    assert payload["error"].startswith("CertificateError")


def test_cli_import_skips_multiprocessing():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = "import sys, cyclelink.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
