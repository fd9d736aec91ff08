"""End-to-end acceptance checks.

Each test exercises one advertised guarantee at its full advertised scale
and records a single PASS/FAIL line (echoed in the terminal summary).
"""

import json
import random
import time

from cyclelink._oracle import (
    brute_force_has_separation,
    brute_force_massed,
    naive_rooted_cycle_minor,
)
from cyclelink.cli import main
from cyclelink.connectivity import PathSystem, is_massed, menger
from cyclelink.errors import FalsifierError
from cyclelink.extremal import ExtremalCertificate, generate, recognize
from cyclelink.harness import oracle_sweep, random_graph, verify_theorem
from cyclelink.minor import MinorModel, find_rooted_cycle_minor, verify_model
from cyclelink.reducer import solve


def test_criterion_1_oracle_agreement(criterion, corpus_path):
    t0 = time.perf_counter()
    report = oracle_sweep([corpus_path], [3, 4])
    corpus_ok = report["agreements"] == report["pairs"] > 0

    rng = random.Random(20260823)
    mism = 0
    for _ in range(1000):
        n = rng.randint(7, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        seq = tuple(rng.sample(range(n), 5))
        fast = find_rooted_cycle_minor(g, seq) is not None
        slow = naive_rooted_cycle_minor(g, seq) is not None
        if fast != slow:
            mism += 1
    elapsed = time.perf_counter() - t0
    criterion(
        1,
        corpus_ok and mism == 0 and elapsed < 600,
        f"{report['pairs']} corpus pairs agreed, 1000 random k=5 instances "
        f"with {mism} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_highly_connected_k5(criterion):
    report = verify_theorem(
        connectivity=10, n_low=12, n_high=16, graphs=50, subsets=3, seed=2, k=5
    )
    criterion(
        2,
        report["checks"] == 50 * 3 * 12 and not report["falsifiers"],
        f"{report['checks']} order checks on 10-connected graphs, "
        f"{len(report['falsifiers'])} falsifiers",
    )


def test_criterion_3_six_connected_k4(criterion):
    report = verify_theorem(
        connectivity=6, n_low=8, n_high=12, graphs=50, subsets=5, seed=3, k=4
    )
    criterion(
        3,
        report["checks"] == 50 * 5 * 3 and not report["falsifiers"],
        f"{report['checks']} order checks on 6-connected graphs, "
        f"{len(report['falsifiers'])} falsifiers",
    )


def test_criterion_4_extremal_members(criterion, e0, e1, e2):
    # fixtures cover the empty, one- and two-component members; the last
    # spec adds a larger component so both spec readings are represented
    members = [e0, e1, e2, generate([(1, 3), (2, 4)])]
    failures = []
    for g, roots in members:
        rest = g.vertex_mask & ~g.mask(roots)
        if g.rho(rest) != 5 * rest.bit_count() + 1:
            failures.append((g.n, "density"))
        if not is_massed(g, roots, 5).massed:
            failures.append((g.n, "massed"))
        cert = recognize(g, roots)
        if cert is None or not cert.verify(g):
            failures.append((g.n, "recognizer"))
        if find_rooted_cycle_minor(g, roots) is not None:
            failures.append((g.n, "unexpected model"))
    criterion(
        4,
        not failures,
        f"{len(members)} family members (n={[g.n for g, _ in members]}) "
        f"verified, failures={failures}",
    )


def test_criterion_5_massed_against_bruteforce(criterion):
    rng = random.Random(55)
    mism = 0
    for _ in range(500):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.uniform(0.15, 0.85))
        x = set(rng.sample(range(n), rng.randint(1, min(5, n))))
        lam = rng.choice([1, 2, 5, "3/2", "5/2"])
        rep = is_massed(g, x, lam)
        m1, m2 = brute_force_massed(g, x, lam)
        if rep.m1_holds != m1 or rep.m2_holds != m2:
            mism += 1
    criterion(5, mism == 0, f"500 random massed checks, {mism} disagreements")


def test_criterion_6_menger_duality(criterion):
    rng = random.Random(66)
    bad = 0
    for _ in range(500):
        n = rng.randint(4, 12)
        g = random_graph(rng, n, rng.uniform(0.15, 0.7))
        src = set(rng.sample(range(n), rng.randint(1, 3)))
        snk = set(rng.sample(range(n), rng.randint(1, 3)))
        if src & snk:
            continue
        k = rng.randint(1, 4)
        res = menger(g, src, snk, k)
        if isinstance(res, PathSystem):
            seen = set()
            for p in res.paths:
                if p[0] not in src or p[-1] not in snk:
                    bad += 1
                inner = set(p[1:-1])
                if inner & (seen | src | snk):
                    bad += 1
                seen |= inner | {p[0], p[-1]}
            if len(res.paths) != k:
                bad += 1
            # small instances: certify no smaller separator exists
            if n <= 9 and brute_force_has_separation(g, src, snk, k):
                bad += 1
        else:
            if res.order >= k or not (src <= res.a_side and snk <= res.b_side):
                bad += 1
            if n <= 9 and brute_force_has_separation(g, src, snk, res.order):
                bad += 1  # returned separation was not minimum
    criterion(6, bad == 0, f"500 menger runs, {bad} duality violations")


def test_criterion_7_solver_agrees_with_engine(criterion):
    rng = random.Random(77)
    checked = 0
    bad = 0
    while checked < 200:
        n = rng.randint(7, 12)
        g = random_graph(rng, n, rng.uniform(0.78, 0.97))
        k = rng.choice([3, 4, 5])
        seq = tuple(rng.sample(range(n), k))
        if not is_massed(g, seq, 5).massed:
            continue
        checked += 1
        engine_yes = find_rooted_cycle_minor(g, seq) is not None
        try:
            result = solve(g, seq)
        except FalsifierError:
            if engine_yes:
                bad += 1
            continue
        if isinstance(result, MinorModel):
            if not engine_yes or not verify_model(g, seq, result):
                bad += 1
        else:
            assert isinstance(result, ExtremalCertificate)
            if engine_yes or not result.verify(g):
                bad += 1
    criterion(7, bad == 0, f"200 massed instances solved, {bad} disagreements")


def test_criterion_8_determinism(criterion, capsys, tmp_path):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        payload = json.loads(out)
        payload.pop("timing", None)
        return code, payload

    argv = [
        "verify-theorem", "--connectivity", "6", "--n-range", "8:10",
        "--graphs", "5", "--subsets", "2", "--seed", "8", "--k", "4",
    ]
    c1, p1 = run(argv)
    c2, p2 = run(argv)

    g6 = tmp_path / "one.g6"
    member, _ = generate([(1, 3)])
    from cyclelink.io6 import to_graph6

    g6.write_text(to_graph6(member) + "\n")
    s_argv = ["solve", "--roots", "0,1,2,3,4", str(g6)]  # graph6 relabels to 0..9
    s1 = run(s_argv)
    s2 = run(s_argv)
    same = (c1, p1) == (c2, p2) and s1 == s2
    criterion(
        8,
        same,
        "identical seeded commands produced identical JSON "
        "(verify-theorem and solve, each run twice)",
    )
