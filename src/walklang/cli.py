"""Command-line harness: deterministic sweep datasets and machine replay.

Subcommands
-----------
sweep      acceptance probability and Jaro score for every word up to a
           length, one CSV row per word in enumeration order
qinput     fidelity of quantum-input runs against the member word's final
           state, over a grid of superposition weights
simulate   replay an exported graph + coin file from a state file
verify     run the engine's self-checks; exit 1 on any failure

All outputs are plain text with platform-independent newlines; rerunning
a command with the same flags reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from . import coins as coinlib
from . import encoding, machines, metrics
from .graph import PortGraph
from .walk import (
    CoinAssignment,
    WalkState,
    _format_each,
    all_vertex_probabilities,
    dense_step_matrix,
    evolve,
    state_from_text,
)

MAX_SWEEP_LEN = 16
# qinput rows, (2**n - 1) * eta_points: a 16-symbol base at 101 points is 6,618,935
MAX_QINPUT_ROWS = 2**23


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _fmt_each(values: np.ndarray) -> list[str]:
    """:func:`_fmt` of every float64, each distinct bit pattern once (-0.0 is "-0")."""
    return _format_each(values, _fmt).tolist()


def _write_blocks(out_path: Path, blocks: Iterable[str]) -> None:
    """Write the blocks to a new file beside ``out_path``, renamed onto it, or removed on error."""
    if out_path.exists() and not out_path.is_file():  # such as /dev/stdout or a FIFO
        raise ValueError(f"--out {out_path} exists and is not a regular file")
    out_path = out_path.resolve()  # a symlink stays, and the file it names is replaced
    part = out_path.with_name(f".{out_path.name}.{os.urandom(4).hex()}.tmp")
    f = open(part, "x", encoding="utf-8", newline="\n")
    try:
        with f:
            f.writelines(blocks)
        os.replace(part, out_path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _refuse_nan(p):
    """The probabilities, one or an array, unchanged; NaN is an error, not a number."""
    if np.isnan(p).any():
        raise ValueError("acceptance probability is NaN")
    return p


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def run_sweep(family: str, max_len: int, out_path: Path) -> None:
    if max_len < 1 or max_len > MAX_SWEEP_LEN:
        raise ValueError(f"--max-len must be in 1..{MAX_SWEEP_LEN}, got {max_len}")
    _write_blocks(out_path, _sweep_blocks(family, max_len))


def _sweep_blocks(family: str, max_len: int) -> Iterator[str]:
    """The sweep CSV, one block of rows per length; a length's words are freed after it."""
    yield "index,word,acceptance,jaro\n"
    for n in range(1, max_len + 1):
        machine = machines.machine_for_length(family, n)
        words = encoding.words_of_length(n)
        # odd lengths compare against the member one symbol shorter; length 1 has none
        reference = machines.member_word(family, n - n % 2)
        probs = _refuse_nan(machines.acceptances(machine, words))
        scores = np.zeros(len(words)) if reference is None else metrics.jaro(words, reference)
        texts = zip(words, _fmt_each(probs), _fmt_each(scores))
        # the 2**n - 2 rows of the shorter lengths come first
        yield "".join(f"{i},{w},{p},{s}\n" for i, (w, p, s) in enumerate(texts, 2**n - 1))


# ---------------------------------------------------------------------------
# qinput
# ---------------------------------------------------------------------------

def run_qinput(base: str, family: str, eta_points: int, out_path: Path) -> None:
    if eta_points < 2:
        raise ValueError(f"--eta-points must be >= 2, got {eta_points}")
    encoding.check_word(base)
    n = len(base)
    # every other word of the base's length is a row, so the length is capped as in sweep
    if n > MAX_SWEEP_LEN:
        raise ValueError(f"--base must have at most {MAX_SWEEP_LEN} symbols, got {n}")
    if (2**n - 1) * eta_points > MAX_QINPUT_ROWS:
        raise ValueError(f"--eta-points {eta_points} makes more than {MAX_QINPUT_ROWS} rows "
                         f"for a base of {n} symbols")
    if machines.member_word(family, n) != base:
        raise ValueError(f"{base!r} is not the member word of length {n} for {family}")
    _write_blocks(out_path, _qinput_blocks(base, family, eta_points))


def _qinput_blocks(base: str, family: str, eta_points: int) -> Iterator[str]:
    """The qinput CSV, one block of rows per w2, after the whole grid is measured."""
    n = len(base)
    machine = machines.machine_for_length(family, n)
    row = encoding.symbols(machine, [base])
    # the base's final state, from the same program as every row below
    final = next(machines.final_amplitudes(machine, row, row, etas=[1.0]))
    reference = WalkState(machine.graph, final[0])
    etas = np.linspace(0.0, 1.0, eta_points)
    eta_text = [_fmt(eta) for eta in etas.tolist()]
    others = [w2 for w2 in encoding.words_of_length(n) if w2 != base]
    # the base against each w2, by every eta: w2-major rows, evolved a chunk at a time
    second = encoding.symbols(machine, others)
    finals = machines.final_amplitudes(machine, np.broadcast_to(row, second.shape), second,
                                       etas=etas)
    # the grid repeats few values, and a chunk's are almost all distinct
    fidelities = iter(_fmt_each(np.concatenate(
        [metrics.fidelity(reference, final) for final in finals])))
    yield f"# eta-grid=amplitude-linear points={eta_points}\n"
    yield "w2,eta,fidelity,match_count\n"
    for w2, match_count in zip(others, (second == row).sum(axis=1).tolist()):
        # zip stops at the end of eta_text without taking the next w2's first fidelity
        yield "".join(f"{w2},{eta},{f},{match_count}\n" for eta, f in zip(eta_text, fidelities))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def run_simulate(
    graph_path: Path, coins_path: Path, state_path: Path, steps: int
) -> str:
    # a byte that is not UTF-8 reads as a lone surrogate, which every parser refuses by line
    graph = PortGraph.from_edge_lines(graph_path.read_text("utf-8", "surrogateescape"))
    coin_set = CoinAssignment.from_text(graph, coins_path.read_text("utf-8", "surrogateescape"))
    state = state_from_text(graph, state_path.read_text("utf-8", "surrogateescape"))
    final = evolve(state, coin_set, steps)
    probs = all_vertex_probabilities(final)
    return "".join(f"{v} {float(p):.15f}\n" for v, p in enumerate(probs))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _random_port_graph(rng: np.random.Generator, max_ports: int) -> PortGraph:
    n = int(rng.integers(2, 8))
    count = int(rng.integers(n - 1, max(n, max_ports // 2 - n)))
    edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(count)]
    # give each port-less vertex an edge, in vertex order; an edge drawn
    # for one vertex may already give a later one its port
    used = {w for edge in edges for w in edge}
    for v in range(n):
        if v not in used:
            edges.append((v, int(rng.integers(n))))
            used.update(edges[-1])
    return PortGraph(edges)

def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * np.exp(-1j * np.angle(np.diag(r)))[None, :]


def run_verify(oracle_limit: int = 64, cutpoint: float = 0.9, margin: float = 0.05) -> int:
    """Run the self-check suite, one line per check on stdout; return 0 when all pass."""
    # the random graphs draw up to oracle_limit / 2 edges and a dense matrix of that size
    if not 0 <= oracle_limit <= 256:
        raise ValueError(f"--oracle-limit must be in 0..256, got {oracle_limit}")
    machines.check_cut(cutpoint, margin)
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        sys.stdout.write(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}\n")

    rng = np.random.default_rng(20250810)

    # evolve against the dense step matrix on random graphs and coins
    worst, compared = 0.0, 0
    for _ in range(100):
        graph = _random_port_graph(rng, oracle_limit)
        if graph.num_ports > oracle_limit:
            continue
        compared += 1
        coin_set = CoinAssignment(
            graph, [_haar_unitary(rng, graph.degree(v)) for v in graph.vertices]
        )
        u = dense_step_matrix(coin_set, max_ports=oracle_limit)
        steps = int(rng.integers(1, 12))
        amps = rng.normal(size=graph.num_ports) + 1j * rng.normal(size=graph.num_ports)
        amps /= np.linalg.norm(amps)
        state = WalkState(graph, amps)
        direct = evolve(state, coin_set, steps).amplitudes
        expected = np.linalg.matrix_power(u, steps) @ amps
        worst = max(worst, float(np.max(np.abs(direct - expected))))
    if compared:
        report("oracle-equivalence", worst < 1e-12, f"max defect {worst:.3e}")
    else:
        report("oracle-equivalence", False, f"no random graph fits {oracle_limit} ports")

    # norm conservation over a long run of an exact-coin machine
    machine = machines.sequential_ab(4)
    state = encoding.initial_state(machine, "abba")
    drift = abs(evolve(state, machine.coins, 10_000).norm() - 1.0)
    report("norm-conservation", drift < 1e-12, f"|norm - 1| = {drift:.3e} at 10^4 steps")

    # Grover transfer: equal amplitude on half the ports moves to the other half
    worst = 0.0
    for d in (2, 4, 6, 8):
        g = coinlib.grover(d)
        half = d // 2
        vec = np.zeros(d, dtype=np.complex128)
        vec[:half] = 1.0 / np.sqrt(half)
        out = g @ vec
        defect = max(
            float(np.max(np.abs(out[:half]))),
            float(np.max(np.abs(out[half:] - vec[0]))),
        )
        worst = max(worst, defect)
    report("grover-transfer", worst < 1e-12, f"max defect {worst:.3e}")

    # coin unitarity across the built-in machines
    worst = 0.0
    builds = [
        machines.spatial_eq(2),
        machines.spatial_ab(2),
        machines.sequential_ab(4),
        machines.sequential_eq(2),
        machines.sequential_word("abab"),
    ]
    for built in builds:
        for block in built.coins.matrices:
            worst = max(worst, coinlib.unitarity_defect(block))
    report("coin-unitarity", worst < 1e-12, f"max defect {worst:.3e}")

    # machine determinism: rebuilding reproduces serialized bytes
    same = (
        machines.spatial_eq(3).graph.to_edge_lines()
        == machines.spatial_eq(3).graph.to_edge_lines()
        and machines.sequential_eq(3).coins.to_text()
        == machines.sequential_eq(3).coins.to_text()
    )
    report("determinism", same, "rebuilt machines serialize identically")

    # membership and bounded error at the default cut-point
    bad = checked = 0
    for family in machines.FAMILIES:
        for n in (2, 4):
            machine = machines.machine_for_length(family, n)
            words = encoding.words_of_length(n)
            for word, p in zip(words, machines.acceptances(machine, words).tolist()):
                accepted = machines.classify(p, cutpoint, margin) == "accept"
                bad += accepted != (word == machine.member)
            checked += len(words)
    report(
        "classification",
        bad == 0,
        f"{bad} bad verdicts over {checked} words at cutpoint {cutpoint}",
    )

    # Jaro against a direct quadratic rescan of the definition
    worst = 0.0
    for w2 in encoding.enumerate_words(5):
        for words in map(encoding.words_of_length, range(1, 6)):
            for w1, got in zip(words, metrics.jaro(words, w2).tolist()):
                worst = max(worst, abs(got - _jaro_rescan(w1, w2)))
    report("jaro-oracle", worst < 1e-12, f"max defect {worst:.3e} over words to length 5")

    sys.stdout.write("all checks passed\n" if failures == 0 else f"{failures} check(s) failed\n")
    return 0 if failures == 0 else 1


def _jaro_rescan(w1: str, w2: str) -> float:
    # deliberately plain re-derivation, kept separate from metrics.jaro
    window = max(max(len(w1), len(w2)) // 2 - 1, 0)
    take1, take2 = [], []
    used = set()
    for i in range(len(w1)):
        for j in range(len(w2)):
            if j in used or abs(i - j) > window:
                continue
            if w1[i] == w2[j]:
                used.add(j)
                take1.append(i)
                break
    s = len(take1)
    if s == 0:
        return 0.0
    kept2 = [j for j in range(len(w2)) if j in used]
    t = sum(1 for i, j in zip(take1, kept2) if w1[i] != w2[j]) / 2.0
    return (s / len(w1) + s / len(w2) + (s - t) / s) / 3.0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklang",
        description="coined quantum-walk language machines and experiment sweeps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="acceptance/Jaro CSV over all words")
    sweep.add_argument("--family", choices=machines.FAMILIES, required=True)
    sweep.add_argument("--max-len", type=int, default=7)
    sweep.add_argument("--out", type=Path, required=True)

    qinput = sub.add_parser("qinput", help="quantum-input fidelity CSV")
    qinput.add_argument("--base", default="aabb")
    qinput.add_argument("--family", choices=machines.FAMILIES, default="spatial-eq")
    qinput.add_argument("--eta-points", type=int, default=101)
    qinput.add_argument("--out", type=Path, required=True)

    simulate = sub.add_parser("simulate", help="replay exported graph and coins")
    simulate.add_argument("--graph", type=Path, required=True)
    simulate.add_argument("--coins", type=Path, required=True)
    simulate.add_argument("--state", type=Path, required=True)
    simulate.add_argument("--steps", type=int, required=True)

    verify = sub.add_parser("verify", help="run the self-check suite")
    verify.add_argument("--oracle-limit", type=int, default=64)
    verify.add_argument("--lambda", dest="cutpoint", type=float, default=0.9)
    verify.add_argument("--epsilon", dest="margin", type=float, default=0.05)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            run_sweep(args.family, args.max_len, args.out)
        elif args.command == "qinput":
            run_qinput(args.base, args.family, args.eta_points, args.out)
        elif args.command == "simulate":
            if args.steps < 0:
                raise ValueError("--steps must be non-negative")
            sys.stdout.write(
                run_simulate(args.graph, args.coins, args.state, args.steps)
            )
        elif args.command == "verify":
            return run_verify(args.oracle_limit, args.cutpoint, args.margin)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
