"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from walklang import (
    CoinAssignment,
    WalkState,
    classify,
    dense_step_matrix,
    evolve,
    initial_state,
    jaro,
    machine_for_length,
    member_word,
    sequential_ab,
    sequential_word,
    spatial_ab,
    spatial_eq,
    vertex_probability,
    word_acceptance,
)
from walklang import coins as coinlib
from walklang.cli import run_qinput, run_simulate, run_sweep

from helpers import all_words, closed_form_acceptance, graph_from_edges, haar_unitary

from test_metrics import brute_force_jaro


def note(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def accept_probability_at(machine, word, steps):
    state = initial_state(machine, word)
    evolved = evolve(state, machine.coins, steps)
    return sum(vertex_probability(evolved, v) for v in machine.accepting)


def test_criterion_1_spatial_eq_membership_certainty():
    started = time.perf_counter()
    for m in range(1, 9):
        machine = spatial_eq(m)
        word = "a" * m + "b" * m
        assert machine.steps == 3
        assert accept_probability_at(machine, word, 3) == pytest.approx(1.0, abs=1e-12)
        assert accept_probability_at(machine, word, 2) == pytest.approx(0.0, abs=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    note(1, f"a^m b^m accepted with certainty at step 3 for m=1..8 ({elapsed:.2f}s)")


def test_criterion_2_spatial_ab_membership_certainty():
    for m in range(1, 9):
        machine = spatial_ab(m)
        word = "ab" * m
        assert machine.steps == 3
        assert accept_probability_at(machine, word, 3) == pytest.approx(1.0, abs=1e-12)
    note(2, "(ab)^m accepted with certainty at step 3 for m=1..8")


def test_criterion_3_bounded_error_exhaustive():
    started = time.perf_counter()
    checked = 0
    for family, builder in (("spatial-eq", spatial_eq), ("spatial-ab", spatial_ab)):
        for m in range(1, 5):
            machine = builder(m)
            member = member_word(family, 2 * m)
            bound = 1 - 1 / (2 * m)
            for word in all_words(2 * m):
                p = word_acceptance(machine, word)
                verdict = classify(p, 0.9, 0.05)
                checked += 1
                if word == member:
                    assert verdict == "accept"
                    continue
                assert p < 1.0
                assert verdict == "reject", (family, m, word, p)
                off_by_one = sum(x != y for x, y in zip(word, member)) == 1
                if off_by_one:
                    assert p <= bound + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    note(3, f"bounded error and clean cut-point verdicts over {checked} words ({elapsed:.2f}s)")


def test_criterion_4_one_symbol_off_constant():
    values = {}
    for m in range(2, 9):
        word = "a" * m + "b" * (m - 1) + "a"
        first = word_acceptance(spatial_eq(m), word)
        again = word_acceptance(spatial_eq(m), word)  # fresh rebuild
        assert first == again
        assert first == pytest.approx(1 - 3 / (4 * m), abs=1e-12)
        assert first == pytest.approx(closed_form_acceptance(spatial_eq(m), word), abs=1e-12)
        assert first <= 1 - 1 / (2 * m) + 1e-12
        values[m] = first
    note(4, "a^m b^(m-1) a constant per build, documented, and within 1 - 1/(2m): "
            + ", ".join(f"m={m}: {v:.4f}" for m, v in sorted(values.items())))


def test_criterion_5_sequential_machines():
    for m in range(1, 5):
        machine = sequential_ab(2 * m)
        assert word_acceptance(machine, "ab" * m) == pytest.approx(1.0, abs=1e-12)

    machine4 = sequential_ab(4)
    assert accept_probability_at(machine4, "abab", 5) == pytest.approx(1.0, abs=1e-12)

    word_machine = sequential_word("abab")
    assert word_machine.steps == 6
    assert word_machine.graph.num_vertices - word_machine.word_length == 8
    assert word_acceptance(word_machine, "abab") == pytest.approx(1.0, abs=1e-12)

    flat, raised = 0, 0
    for word in all_words(4):
        if word == "abab":
            continue
        p = word_acceptance(machine4, word)
        assert p >= 0.5 - 1e-9
        assert p == pytest.approx(closed_form_acceptance(machine4, word), abs=1e-12)
        if p == pytest.approx(0.5, abs=1e-9):
            flat += 1
        else:
            raised += 1
    assert flat == 5 and raised == 10
    note(5, "sequential machines: members certain, abab at 5 steps, word machine "
            "8 vertices/6 steps, non-members >= 1/2 (5 at exactly 1/2, "
            "10 raised by documented ab-substring bonus)")


def test_criterion_6_sweep_reproduction(tmp_path):
    started = time.perf_counter()
    targets = {
        "spatial-eq": {"ab", "aabb", "aaabbb"},
        "seq-ab": {"ab", "abab", "ababab"},
    }
    for family, members in targets.items():
        out = tmp_path / f"{family}.csv"
        run_sweep(family, 7, out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:201]]
        assert len(rows) == 200
        winners = {w for _, w, acc, _ in rows if abs(float(acc) - 1) < 1e-9}
        assert winners == members, (family, winners)
        for _, w, acc, score in rows:
            if w in members:
                assert float(acc) == pytest.approx(1.0, abs=1e-9)
                assert float(score) == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    note(6, f"first-200-word sweeps peak at exactly the member words ({elapsed:.2f}s)")


def test_criterion_7_quantum_input_four_families(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "qinput.csv"
    run_qinput("aabb", "spatial-eq", 101, out)
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("w2")
    ]
    by_eta: dict[str, dict[int, list[float]]] = {}
    for w2, eta, fid, match_count in rows:
        by_eta.setdefault(eta, {}).setdefault(int(match_count), []).append(float(fid))
    assert len(by_eta) == 101
    for eta, groups in by_eta.items():
        assert set(groups) == {0, 1, 2, 3}
        for values in groups.values():
            assert max(values) - min(values) <= 1e-9
    for w2, eta, fid, _ in rows:
        if eta == "1":
            assert float(fid) == pytest.approx(1.0, abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    note(7, f"fidelity curves collapse to exactly 4 match-count families ({elapsed:.2f}s)")


def test_criterion_8_engine_correctness():
    rng = np.random.default_rng(8)
    worst = 0.0
    produced = 0
    while produced < 100:
        n = int(rng.integers(2, 8))
        edges = [
            (int(rng.integers(n)), int(rng.integers(n)))
            for _ in range(int(rng.integers(n - 1, 3 * n)))
        ]
        graph = graph_from_edges(n, edges)
        if graph.num_ports > 64:
            continue
        produced += 1
        cs = CoinAssignment(
            graph, [haar_unitary(rng, graph.degree(v)) for v in graph.vertices]
        )
        u = dense_step_matrix(graph, cs)
        steps = int(rng.integers(1, 10))
        amps = rng.normal(size=graph.num_ports) + 1j * rng.normal(size=graph.num_ports)
        amps /= np.linalg.norm(amps)
        state = WalkState(graph, amps)
        expected = np.linalg.matrix_power(u, steps) @ amps
        got = evolve(state, cs, steps).amplitudes
        worst = max(worst, float(np.max(np.abs(got - expected))))
    assert worst < 1e-12

    machine = sequential_ab(4)
    state = initial_state(machine, "abba")
    drift = abs(evolve(state, machine.coins, 10_000).norm() - 1.0)
    assert drift < 1e-12

    for d in (2, 4, 6, 8):
        g = coinlib.grover(d)
        vec = np.zeros(d, dtype=np.complex128)
        vec[: d // 2] = 1 / np.sqrt(d // 2)
        out = g @ vec
        assert np.max(np.abs(out[: d // 2])) < 1e-12
        assert np.max(np.abs(out[d // 2 :] - vec[0])) < 1e-12
    note(8, f"oracle equivalence on 100 random graphs (max defect {worst:.2e}), "
            f"norm drift {drift:.2e} at 10^4 steps, Grover transfer d=2,4,6,8")


def test_criterion_9_jaro_oracle():
    assert jaro("aabb", "abab").distance == pytest.approx(11 / 12, abs=1e-12)
    pairs = 0
    lengths = [w for n in range(1, 9) for w in all_words(n)]
    for w1 in lengths:
        for w2 in lengths:
            assert jaro(w1, w2).distance == pytest.approx(
                brute_force_jaro(w1, w2), abs=1e-12
            )
            pairs += 1
    note(9, f"jaro agrees with the brute-force matcher on all {pairs} pairs to length 8")


def test_criterion_10_cli_determinism(tmp_path):
    first, second = tmp_path / "s1.csv", tmp_path / "s2.csv"
    run_sweep("spatial-ab", 5, first)
    run_sweep("spatial-ab", 5, second)
    assert first.read_bytes() == second.read_bytes()

    q1, q2 = tmp_path / "q1.csv", tmp_path / "q2.csv"
    run_qinput("aabb", "spatial-eq", 21, q1)
    run_qinput("aabb", "spatial-eq", 21, q2)
    assert q1.read_bytes() == q2.read_bytes()

    from walklang import export_machine
    from walklang.walk import state_to_text

    machine = spatial_eq(1)
    paths = export_machine(machine, tmp_path)
    state_path = tmp_path / "state.txt"
    state_path.write_text(state_to_text(initial_state(machine, "ab")))
    out1 = run_simulate(paths["graph"], paths["coins"], state_path, 3)
    out2 = run_simulate(paths["graph"], paths["coins"], state_path, 3)
    assert out1 == out2
    note(10, "sweep, qinput and simulate outputs are byte-identical across runs")
