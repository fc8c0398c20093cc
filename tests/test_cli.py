import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from walklang import (
    WalkState,
    evolve,
    export_machine,
    initial_state,
    jaro,
    machine_for_length,
    member_word,
    sequential_word,
    spatial_eq,
    vertex_probability,
    word_acceptance,
)
from walklang import cli, fidelity
from walklang.cli import _fmt_each, _refuse_nan, main, run_verify
from walklang.encoding import symbols, words_of_length
from walklang.machines import FAMILIES, final_amplitudes
from walklang.walk import state_to_text

from helpers import basis_state, hadamard_line_coins, line_graph


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_sweep_matches_library(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--family", "spatial-eq", "--max-len", "3", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2 + 4 + 8
    assert rows[3]["word"] == "ab"
    assert float(rows[3]["acceptance"]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[3]["jaro"]) == 1.0
    machine = machine_for_length("spatial-eq", 2)
    for row in rows[2:6]:
        assert float(row["acceptance"]) == pytest.approx(
            word_acceptance(machine, row["word"]), abs=1e-12
        )
    # length-1 rows have no reference word of length >= 2 to compare against
    assert rows[0]["jaro"] == "0"
    ba = rows[4]
    assert ba["word"] == "ba" and float(ba["acceptance"]) < 1
    assert float(ba["jaro"]) == jaro("ba", member_word("spatial-eq", 2))


def test_sweep_seq_ab_floor(tmp_path):
    out = tmp_path / "seq.csv"
    assert main(["sweep", "--family", "seq-ab", "--max-len", "4", "--out", str(out)]) == 0
    rows = read_rows(out)
    for row in rows:
        assert float(row["acceptance"]) >= 0.5 - 1e-12
    winners = [r["word"] for r in rows if abs(float(r["acceptance"]) - 1) < 1e-9]
    assert winners == ["ab", "abab"]


def test_sweep_seq_eq_winners(tmp_path):
    out = tmp_path / "seqeq.csv"
    assert main(["sweep", "--family", "seq-eq", "--max-len", "4", "--out", str(out)]) == 0
    rows = read_rows(out)
    winners = [r["word"] for r in rows if abs(float(r["acceptance"]) - 1) < 1e-9]
    assert winners == ["ab", "aabb"]


def test_sweep_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--family", "seq-eq", "--max-len", "4", "--out", str(a)])
    main(["sweep", "--family", "seq-eq", "--max-len", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rejects_oversized_length(tmp_path, capsys):
    code = main(
        ["sweep", "--family", "seq-ab", "--max-len", "17", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_qinput_output(tmp_path):
    out = tmp_path / "q.csv"
    assert main(["qinput", "--eta-points", "5", "--out", str(out)]) == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("# eta-grid=amplitude-linear")
    rows = read_rows(out)
    assert len(rows) == 15 * 5
    for row in rows:
        if row["eta"] == "1":
            assert float(row["fidelity"]) == pytest.approx(1.0, abs=1e-12)
        assert row["match_count"] == str(
            sum(1 for x, y in zip("aabb", row["w2"]) if x == y)
        )
    # all-b word shares no symbols with the base; at eta=0 fidelity is
    # the squared overlap of the two classical finals
    bbaa0 = [r for r in rows if r["w2"] == "bbaa" and r["eta"] == "0"]
    assert float(bbaa0[0]["fidelity"]) == pytest.approx(0.0, abs=1e-12)


def test_qinput_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["qinput", "--eta-points", "11", "--out", str(a)])
    main(["qinput", "--eta-points", "11", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_qinput_builds_no_state_per_row(tmp_path, monkeypatch):
    built = []
    init = WalkState.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WalkState, "__init__", counting_init)
    counts = []
    for points in ("2", "11"):
        built.clear()
        assert main(["qinput", "--eta-points", points, "--out", str(tmp_path / "q.csv")]) == 0
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


def test_qinput_rejects_non_member_base(tmp_path):
    code = main(["qinput", "--base", "abab", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_qinput_rejects_a_base_longer_than_the_sweep_cap(tmp_path, capsys, monkeypatch):
    out = tmp_path / "x.csv"
    # a^9 b^9 is a member, but its 2^18 words are rejected before any is built
    assert main(["qinput", "--base", "a" * 9 + "b" * 9, "--eta-points", "2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "walklang: error: --base must have at most 16 symbols, got 18\n")
    assert not out.exists()
    # the cap is the sweep's own constant
    monkeypatch.setattr(cli, "MAX_SWEEP_LEN", 4)
    assert main(["qinput", "--base", "aabb", "--eta-points", "2", "--out", str(out)]) == 0
    assert main(["qinput", "--base", "aaabbb", "--eta-points", "2", "--out", str(out)]) == 2
    assert "--base must have at most 4 symbols, got 6" in capsys.readouterr().err


def test_qinput_rejects_a_grid_over_the_row_cap(tmp_path, capsys, monkeypatch):
    out = tmp_path / "x.csv"

    def no_machine(*args):
        raise AssertionError("a machine was built for a grid over the cap")

    # so that a missing cap fails here, before a billion-row grid is allocated
    monkeypatch.setattr(cli.machines, "machine_for_length", no_machine)
    tracemalloc.start()
    try:
        assert main(["qinput", "--eta-points", "1000000000", "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # rejected before a machine, a word list or a grid is built
    assert peak < 2**20
    assert capsys.readouterr().err == ("walklang: error: --eta-points 1000000000 makes more "
                                       "than 8388608 rows for a base of 4 symbols\n")
    assert not out.exists()
    monkeypatch.undo()
    # a 16-symbol base fits at the default 101 points
    assert (2**16 - 1) * 101 <= cli.MAX_QINPUT_ROWS
    # the 15 other words of aabb at 3 points are 45 rows
    monkeypatch.setattr(cli, "MAX_QINPUT_ROWS", 45)
    assert main(["qinput", "--eta-points", "3", "--out", str(out)]) == 0
    assert main(["qinput", "--eta-points", "4", "--out", str(out)]) == 2


# a header and the 2 + 4 + ... + 32 words to length 5; two header lines and 15 w2 at 3 etas
@pytest.mark.parametrize("argv, lines", [
    (["sweep", "--family", "seq-eq", "--max-len", "5"], 1 + 62),
    (["qinput", "--base", "aabb", "--eta-points", "3"], 2 + 15 * 3),
])
def test_a_failed_run_keeps_the_old_output_and_leaves_no_temporary_file(
        tmp_path, capsys, monkeypatch, argv, lines):
    build = cli.machines.machine_for_length

    def fails_from_length_3(family, n):
        if n >= 3:
            raise ValueError(f"no machine for length {n}")
        return build(family, n)

    # sweep fails at n = 3, after writing the header and lengths 1 and 2; qinput at its n = 4
    monkeypatch.setattr(cli.machines, "machine_for_length", fails_from_length_3)
    out = tmp_path / "out.csv"
    out.write_bytes(b"old,bytes\n")
    assert main([*argv, "--out", str(out)]) == 2
    assert "no machine for length" in capsys.readouterr().err
    assert out.read_bytes() == b"old,bytes\n"
    assert main([*argv, "--out", str(tmp_path / "new.csv")]) == 2
    assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]
    # a run that succeeds replaces the old bytes, again leaving no other file
    monkeypatch.undo()
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text().count("\n") == lines
    assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]


def test_a_symlinked_out_keeps_its_link_and_replaces_the_file_it_names(tmp_path):
    (tmp_path / "links").mkdir()
    (tmp_path / "files").mkdir()
    real, link = tmp_path / "files" / "real.csv", tmp_path / "links" / "link.csv"
    real.write_bytes(b"old,bytes\n")
    link.symlink_to(Path("..", "files", "real.csv"))
    argv = ["sweep", "--family", "seq-eq", "--max-len", "4"]
    assert main([*argv, "--out", str(link)]) == 0
    assert main([*argv, "--out", str(tmp_path / "direct.csv")]) == 0
    assert link.is_symlink() and real.read_bytes() == (tmp_path / "direct.csv").read_bytes()
    # the temporary file was made beside real.csv, and renamed onto it
    assert [path.name for path in (tmp_path / "links").iterdir()] == ["link.csv"]
    assert [path.name for path in (tmp_path / "files").iterdir()] == ["real.csv"]


@pytest.mark.parametrize("make", [os.mkfifo, os.mkdir], ids=["fifo", "directory"])
def test_an_out_that_is_not_a_regular_file_is_refused(tmp_path, capsys, make):
    out = tmp_path / "out"
    make(out)
    for argv in (["sweep", "--family", "seq-eq", "--max-len", "2"], ["qinput"]):
        assert main([*argv, "--out", str(out)]) == 2
        assert "is not a regular file" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["out"] and not out.is_file()


def test_qinput_reference_is_the_evolved_member():
    built = [machine_for_length(family, n) for family in FAMILIES for n in (2, 4, 6, 8)]
    for machine in [*built, sequential_word("abba")]:
        base, n = machine.member, machine.word_length
        row = symbols(machine, [base])
        final = next(final_amplitudes(machine, row, row, etas=[1.0]))[0]
        evolved = evolve(initial_state(machine, base), machine.coins, machine.steps).amplitudes
        assert np.array_equal(final, evolved), (machine.family, n)
        # only the sign of a zero outside the forward cone may differ
        differ = final.view(np.uint64) != evolved.view(np.uint64)
        assert not final.view(np.float64)[differ].any()
        # qinput's rows for five etas: the fidelities against either are the same bits
        others = [w for w in words_of_length(n) if w != base]
        second = symbols(machine, others)
        first = np.broadcast_to(row, second.shape)
        etas = np.linspace(0.0, 1.0, 5)
        rows = np.concatenate(list(final_amplitudes(machine, first, second, etas=etas)))
        assert len(rows) == 5 * len(others)
        expected = fidelity(WalkState(machine.graph, evolved), rows)
        assert fidelity(WalkState(machine.graph, final), rows).tobytes() == expected.tobytes()


def test_simulate_replays_exported_machine(tmp_path, capsys):
    machine = spatial_eq(1)
    paths = export_machine(machine, tmp_path)
    state = initial_state(machine, "ab")
    state_path = tmp_path / "state.txt"
    state_path.write_text(state_to_text(state))
    code = main([
        "simulate",
        "--graph", str(paths["graph"]),
        "--coins", str(paths["coins"]),
        "--state", str(state_path),
        "--steps", "3",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    probs = {int(l.split()[0]): float(l.split()[1]) for l in lines}
    (accept,) = machine.accepting
    assert probs[accept] == pytest.approx(1.0, abs=1e-12)
    assert "1.000000000000" in lines[accept].split()[1]


def test_simulate_zero_steps_returns_input(tmp_path, capsys):
    machine = spatial_eq(1)
    paths = export_machine(machine, tmp_path)
    state = initial_state(machine, "ba")
    (tmp_path / "state.txt").write_text(state_to_text(state))
    main([
        "simulate",
        "--graph", str(paths["graph"]),
        "--coins", str(paths["coins"]),
        "--state", str(tmp_path / "state.txt"),
        "--steps", "0",
    ])
    lines = capsys.readouterr().out.splitlines()
    probs = [float(l.split()[1]) for l in lines]
    a0, b0 = machine.input_slots[0]
    assert probs[b0] == pytest.approx(0.5, abs=1e-12)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_simulate_line_walk_against_dense_oracle(tmp_path, capsys):
    from walklang import dense_step_matrix

    g = line_graph(5)
    cs = hadamard_line_coins(g)
    (tmp_path / "graph.txt").write_text(g.to_edge_lines())
    (tmp_path / "coins.txt").write_text(cs.to_text())
    start = basis_state(g, 2, 0)
    (tmp_path / "state.txt").write_text(state_to_text(start))
    main([
        "simulate",
        "--graph", str(tmp_path / "graph.txt"),
        "--coins", str(tmp_path / "coins.txt"),
        "--state", str(tmp_path / "state.txt"),
        "--steps", "2",
    ])
    got = [float(l.split()[1]) for l in capsys.readouterr().out.splitlines()]
    u = dense_step_matrix(cs)
    expected = np.linalg.matrix_power(u, 2) @ start.amplitudes
    for v in g.vertices:
        lo, hi = g.offset(v), g.offset(v) + g.degree(v)
        assert got[v] == pytest.approx(float(np.sum(np.abs(expected[lo:hi]) ** 2)), abs=1e-12)


def test_simulate_reports_parse_errors(tmp_path):
    (tmp_path / "graph.txt").write_text("0 1\n")
    (tmp_path / "coins.txt").write_text("garbage\n")
    (tmp_path / "state.txt").write_text("1.0,0.0\n0.0,0.0\n")
    code = main([
        "simulate",
        "--graph", str(tmp_path / "graph.txt"),
        "--coins", str(tmp_path / "coins.txt"),
        "--state", str(tmp_path / "state.txt"),
        "--steps", "1",
    ])
    assert code == 2


def test_verify_passes_clean(capsys):
    assert run_verify() == 0
    report = capsys.readouterr().out
    assert "FAIL" not in report
    assert "all checks passed" in report


def test_verify_fails_when_no_graph_is_compared(capsys):
    assert run_verify(oracle_limit=0) == 1
    report = capsys.readouterr().out
    assert "FAIL oracle-equivalence" in report
    assert report.endswith("1 check(s) failed\n")


@pytest.mark.parametrize("margin", ["nan", "inf"])
def test_verify_rejects_margin_that_is_not_finite(capsys, margin):
    assert main(["verify", "--epsilon", margin]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # rejected before the first check runs
    assert "margin must be positive and finite" in err


@pytest.mark.parametrize("cutpoint", ["1.5", "-0.1", "nan"])
def test_verify_rejects_cutpoint_outside_the_unit_interval(capsys, cutpoint):
    assert main(["verify", "--lambda", cutpoint]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"cutpoint must be in [0, 1), got {cutpoint}" in err


@pytest.mark.parametrize("limit", ["-1", "257"])
def test_verify_rejects_oracle_limit_outside_its_range(capsys, limit):
    assert main(["verify", "--oracle-limit", limit]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--oracle-limit must be in 0..256, got {limit}" in err


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--family", "nope", "--out", "x.csv"])
    assert err.value.code == 2


@pytest.mark.parametrize("coins_text,state_text,message", [
    ("v 0 1\n1,0\nv 1 1\n1,0\n", "nan,0\n0,0\n", "normalised"),
    ("v 0 1\n1,0\nv 0 1\n1,0\nv 1 1\n1,0\n", "1,0\n0,0\n", "line 3"),
    ("v 0 1\n1,0\nv 1 1\n1,0\nv 7 1\n1,0\n", "1,0\n0,0\n", "line 5"),
    ("v 0 1\n1,0\nv 1 -2\n", "1,0\n0,0\n", "line 3"),
    # rejected at the header, before a 3,000,000 x 3,000,000 block is allocated
    ("v 0 3000000\n", "1,0\n0,0\n", "line 1"),
    ("v 0 1\nnan,0\nv 1 1\n1,0\n", "1,0\n0,0\n", "coin at vertex 0 is not unitary (defect nan)"),
    ("v 0 1\n1,0\nv 1 1\ninf,0\n", "1,0\n0,0\n", "coin at vertex 1 is not unitary (defect inf)"),
], ids=["nan-state", "duplicate-block", "unknown-vertex", "negative-degree", "oversized-degree",
        "nan-coin", "inf-coin"])
def test_simulate_rejects_bad_values_and_blocks(tmp_path, capsys, coins_text, state_text, message):
    (tmp_path / "graph.txt").write_text("0 1\n")
    (tmp_path / "coins.txt").write_text(coins_text)
    (tmp_path / "state.txt").write_text(state_text)
    code = main([
        "simulate",
        "--graph", str(tmp_path / "graph.txt"),
        "--coins", str(tmp_path / "coins.txt"),
        "--state", str(tmp_path / "state.txt"),
        "--steps", "1",
    ])
    assert code == 2
    assert message in capsys.readouterr().err


def test_simulate_rejects_empty_graph_file(tmp_path, capsys):
    for name in ("graph.txt", "coins.txt", "state.txt"):
        (tmp_path / name).write_text("")
    code = main([
        "simulate",
        "--graph", str(tmp_path / "graph.txt"),
        "--coins", str(tmp_path / "coins.txt"),
        "--state", str(tmp_path / "state.txt"),
        "--steps", "1",
    ])
    assert code == 2
    assert capsys.readouterr().err == "walklang: error: graph has no edges\n"


def test_simulate_rejects_graph_with_portless_vertex(tmp_path, capsys):
    (tmp_path / "graph.txt").write_text("0 2\n")
    (tmp_path / "coins.txt").write_text("v 0 1\n1,0\nv 2 1\n1,0\n")
    (tmp_path / "state.txt").write_text("1,0\n0,0\n")
    code = main([
        "simulate",
        "--graph", str(tmp_path / "graph.txt"),
        "--coins", str(tmp_path / "coins.txt"),
        "--state", str(tmp_path / "state.txt"),
        "--steps", "1",
    ])
    assert code == 2
    assert "vertex 1 has no ports" in capsys.readouterr().err


def test_simulate_reads_utf8_files_whatever_the_locale(tmp_path):
    # a non-ASCII digit in a coin cell: the files are UTF-8 in an ASCII locale too
    (tmp_path / "graph.txt").write_text("0 1\n", encoding="utf-8")
    (tmp_path / "coins.txt").write_text("v 0 1\n\u0661,0\nv 1 1\n1,0\n", encoding="utf-8")
    (tmp_path / "state.txt").write_text("1,0\n0,0\n", encoding="utf-8")
    args = [sys.executable, "-m", "walklang", "simulate", "--steps", "1"]
    for name in ("graph", "coins", "state"):
        args += [f"--{name}", str(tmp_path / f"{name}.txt")]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for locale in ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
                   {"PYTHONUTF8": "1"}):
        env = {**os.environ, "PYTHONPATH": path, **locale}
        done = subprocess.run(args, env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] == b"0 0.000000000000000\n1 1.000000000000000\n"


SIMULATE_FILES = {
    "graph": b"0 1\n1 2\n",
    "coins": b"v 0 1\n1,0\nv 1 2\n1,0 0,0\n0,0 1,0\nv 2 1\n1,0\n",
    "state": b"1,0\n0,0\n0,0\n0,0\n",
}


def simulate_bytes(tmp_path, capsys, files):
    """``simulate --steps 3`` on the given file bytes: exit code, stdout and stderr."""
    args = ["simulate", "--steps", "3"]
    for name, data in files.items():
        (tmp_path / f"{name}.txt").write_bytes(data)
        args += [f"--{name}", str(tmp_path / f"{name}.txt")]
    code = main(args)
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("name,data,message", [
    ("graph", b"0 1\n1 2\xff\n", r"line 2: vertex ids must be integers, got '1 2\udcff'"),
    ("coins", b"v 0 1\xff\n1,0\n", r"line 1: bad block header 'v 0 1\udcff'"),
    ("coins", b"v 0 1\n1,0\nv 1 2\n1\xff,0 0,0\n0,0 1,0\nv 2 1\n1,0\n",
     r"line 4: bad complex entry '1\udcff,0'"),
    ("state", b"1,0\n\xff0,0\n0,0\n0,0\n", r"line 2: bad amplitude '\udcff0,0'"),
], ids=["graph", "coin-header", "coin-cell", "state"])
def test_simulate_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, name, data,
                                                            message):
    code, out, err = simulate_bytes(tmp_path, capsys, {**SIMULATE_FILES, name: data})
    assert (code, out, err) == (2, "", f"walklang: error: {message}\n")


@pytest.mark.parametrize("name", sorted(SIMULATE_FILES))
def test_simulate_skips_a_byte_that_is_not_utf8_in_a_comment(tmp_path, capsys, name):
    clean = simulate_bytes(tmp_path, capsys, SIMULATE_FILES)
    assert clean[0] == 0 and clean[1].count("\n") == 3
    commented = {**SIMULATE_FILES, name: b"# \xff\xfe\xc3\n" + SIMULATE_FILES[name]}
    assert simulate_bytes(tmp_path, capsys, commented) == clean


# sha256 of each output as the per-vertex coin loop wrote it; the compiled
# coin kernel must reproduce them byte for byte
PINNED_DIGESTS = {
    "sweep-spatial-eq-8": "58c828aa8e6908917478144f2cdf8c8d40d530a9b65410ef97523854d0042256",
    "sweep-spatial-ab-8": "28cbb26a23339dbbbaf4585fb3ec07d4543301ba209cbb4733683420f5feeff0",
    "sweep-seq-ab-8": "eca9d85ffa64f3516071fdb135465aeae408fc952fcc9f86407a69f417c3c496",
    "sweep-seq-eq-8": "8be7d566aa1d36ec7d6da35be47aca09287f35657c1e4f50ac5fd83aa64f6594",
    "qinput-default": "a96986d58c8568c75fb62730f37968f912f84829ec0a47b69b172c66b18888bf",
    "qinput-seq-eq-aaabbb-11": "c9cec4df9e3f9cb67f0c8a21ea3cd68e129c9737e6e88a5f151ba6ffe04a23a2",
    "sweep-seq-eq-12": "9505b73b5e7774d2d44b0ef6c148b7d664c39be942ee1fe1caf8c3fca45b57ae",
    "qinput-aaaabbbb-101": "c5891d09441df47de573beb2a23174916ce25c8b16553091ca61ab11a8ec66ec",
}
PINNED_ARGS = {
    **{f"sweep-{f}-8": ["sweep", "--family", f, "--max-len", "8"]
       for f in ("spatial-eq", "spatial-ab", "seq-ab", "seq-eq")},
    "qinput-default": ["qinput"],
    "qinput-seq-eq-aaabbb-11": ["qinput", "--family", "seq-eq", "--base", "aaabbb",
                                "--eta-points", "11"],
    "sweep-seq-eq-12": ["sweep", "--family", "seq-eq", "--max-len", "12"],
    "qinput-aaaabbbb-101": ["qinput", "--base", "aaaabbbb", "--eta-points", "101"],
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_output_bytes_are_pinned(tmp_path, name):
    out = tmp_path / "out.csv"
    assert main([*PINNED_ARGS[name], "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_DIGESTS[name]


def test_verify_stdout_is_pinned(capsys):
    assert main(["verify"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "ee381ca7745e76eb3de1f0666bd5771378b0f44241c977ce8fe2da9abaa0dc67"


def test_refuse_nan_rejects_nan_and_passes_the_rest_unchanged():
    graph = line_graph(2)
    holds_nan = WalkState(graph, np.array([np.nan, 0.0]), _checked=True)
    p = vertex_probability(holds_nan, 0)
    with pytest.raises(ValueError, match="NaN"):
        _refuse_nan(p)
    with pytest.raises(ValueError, match="NaN"):
        _refuse_nan(np.array([0.5, p, 1.0]))
    # a probability rounded a hair above 1 is reported as it is, not clipped
    above = np.array([0.0, 0.25, 1 + 2.2e-16])
    assert _refuse_nan(above).tobytes() == above.tobytes()
    assert _refuse_nan(1 + 2.2e-16) == 1 + 2.2e-16 > 1.0
    assert cli._fmt(1 + 2.2e-16) == "1"


def test_fmt_each_formats_by_bits():
    assert _fmt_each(np.array([0.0, -0.0, 0.1, 0.0])) == ["0", "-0", "0.1", "0"]
    assert _fmt_each(np.array([1 / 3, 0.5, 1 / 3])) == [cli._fmt(1 / 3), "0.5", cli._fmt(1 / 3)]
    assert _fmt_each(np.empty(0)) == []
    # each value as the per-entry _fmt writes it, -0.0, NaN bits and infinities included
    special = np.append([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e308, 1 / 3],
                        np.array([0x7FF8_0000_0000_0001], np.int64).view(np.float64))
    assert _fmt_each(np.tile(special, 3)) == [cli._fmt(x) for x in np.tile(special, 3).tolist()]
