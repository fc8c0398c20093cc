"""Language-accepting walk machines.

Two machine shapes are built here, both reading words over {a, b} and
reporting acceptance as the probability of finding the walker on a
designated accepting vertex after a fixed number of steps.

Spatial machines load the whole word at once across dual-rail input
vertices and finish in three steps regardless of word length.  Sequential
machines load the word along a chain and feed it one symbol per step into
a fixed interference gadget, so the step count grows with the word.

The accepted languages:

* eq: the equal-run words a^m b^m,
* ab: the alternating words (ab)^m,
* single fixed words (sequential only, swap coins throughout).

Connect-order contracts
-----------------------
Port labels, and with them every amplitude vector, are fixed by the order
of ``connect`` calls.  Each constructor documents its order below and
never varies it, so rebuilding a machine reproduces states bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from . import coins as coinlib
from . import encoding
from .graph import PortGraph
from .metrics import reference_word
from .walk import CoinAssignment, WalkState, evolve, vertex_probability

__all__ = [
    "Machine",
    "AcceptanceVerdict",
    "FAMILIES",
    "spatial_eq",
    "spatial_ab",
    "sequential_ab",
    "sequential_eq",
    "sequential_word",
    "machine_for_length",
    "member_word",
    "acceptance_probability",
    "word_acceptance",
    "classify",
    "empirical_error_margin",
    "export_machine",
]

FAMILIES = ("spatial-eq", "spatial-ab", "seq-ab", "seq-eq")


@dataclass(frozen=True, eq=False)
class Machine:
    """A built walk machine: graph, coins, input layout and schedule.

    ``input_slots`` maps 0-based symbol positions to the pair of input
    rail vertices (spatial) or the chain vertex (sequential) that carries
    the symbol.  ``steps`` is the measurement time for this machine's
    word length.  ``notes`` is a read-only record of layout facts such as
    vertex counts and the closed-form acceptance rule of the construction.
    ``slot_indices`` is derived once from ``input_slots``: per position,
    the flat state indices of its a-slot and b-slot.
    """

    family: str
    kind: str
    word_length: int
    graph: PortGraph
    coins: CoinAssignment
    input_slots: tuple
    accepting: frozenset[int]
    rejecting: frozenset[int]
    steps: int
    notes: Mapping[str, object] = field(default_factory=dict)
    slot_indices: tuple[tuple[int, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.accepting & self.rejecting:
            raise ValueError("accepting and rejecting sets overlap")
        inputs = set()
        for slot in self.input_slots:
            inputs.update(slot if isinstance(slot, tuple) else (slot,))
        if (self.accepting | self.rejecting) & inputs:
            raise ValueError("accepting/rejecting sets contain input vertices")
        index = self.graph.state_index
        if self.kind == "spatial":
            table = tuple((index(a, 0), index(b, 0)) for a, b in self.input_slots)
        else:
            table = tuple((index(v, 0), index(v, 1)) for v in self.input_slots)
        object.__setattr__(self, "slot_indices", table)
        object.__setattr__(self, "notes", MappingProxyType(dict(self.notes)))

    @property
    def vertex_count(self) -> int:
        return self.graph.num_vertices

    def symbol_state_indices(self, position: int) -> tuple[int, int]:
        """Flat indices of the a-slot and b-slot for a 0-based position."""
        return self.slot_indices[position]


# ---------------------------------------------------------------------------
# spatial machines
# ---------------------------------------------------------------------------

def _build_spatial(family: str, pairs: int, surplus: bool) -> Machine:
    """Shared spatial builder.

    Layout: one Grover hub of degree 4 per symbol pair, connected to the
    pair's two populated rails and, through one pass-through wire vertex
    per edge, to the single accepting vertex.  Equal amplitude entering a
    hub's two rail ports is moved entirely onto its wire ports, so member
    amplitude reaches the accepting vertex on step three exactly.  The
    never-populated rails of each pair share a sink vertex and have no
    path to the accepting vertex.  Every coin is a Grover coin sized to
    the vertex degree (degree 1 gives the 1x1 identity, degree 2 the
    swap).

    Connect order: per pair, a-rail hub edge, b-rail hub edge, the two
    hub wire edges; then every wire accepting-vertex edge in pair order;
    then the off-rail sink edges in pair order; then the surplus pair's
    sink edges; for a machine with no pairs, one self-loop on the
    accepting vertex.

    A machine for even word length n = 2m uses 4n + 1 vertices:
    2n rails, m hubs, 2m wires, m sinks and the accepting vertex.
    """
    if pairs < 0 or (pairs == 0 and not surplus):
        raise ValueError("spatial machines need at least one symbol pair")
    n = 2 * pairs + (1 if surplus else 0)

    graph = PortGraph()
    rails = [(graph.add_vertex(), graph.add_vertex()) for _ in range(n)]
    hubs = []
    wires = []
    for _ in range(pairs):
        hubs.append(graph.add_vertex())
        wires.append((graph.add_vertex(), graph.add_vertex()))
    accept = graph.add_vertex()
    sinks = [graph.add_vertex() for _ in range(pairs)]
    surplus_sink = graph.add_vertex() if surplus else None

    if family == "spatial-eq":
        pairing = [(j, pairs + j) for j in range(pairs)]
    elif family == "spatial-ab":
        pairing = [(2 * j, 2 * j + 1) for j in range(pairs)]
    else:
        raise ValueError(f"unknown spatial family {family!r}")

    for j, (a_pos, b_pos) in enumerate(pairing):
        graph.connect(rails[a_pos][0], hubs[j])
        graph.connect(rails[b_pos][1], hubs[j])
        graph.connect(hubs[j], wires[j][0])
        graph.connect(hubs[j], wires[j][1])
    for j in range(pairs):
        graph.connect(wires[j][0], accept)
        graph.connect(wires[j][1], accept)
    for j, (a_pos, b_pos) in enumerate(pairing):
        graph.connect(rails[a_pos][1], sinks[j])
        graph.connect(rails[b_pos][0], sinks[j])
    if surplus:
        graph.connect(rails[n - 1][0], surplus_sink)
        graph.connect(rails[n - 1][1], surplus_sink)
    if pairs == 0:
        graph.connect(accept, accept)
    graph.freeze()

    coin_set = CoinAssignment.by_degree(graph, coinlib.grover)

    m = pairs
    notes: dict[str, object] = {
        "vertex_count": graph.num_vertices,
        "vertex_count_formula": "4n + 1 for even word length n"
        + (" plus 2 rails and 1 sink for the surplus symbol" if surplus else ""),
        "acceptance_rule": (
            "sum over pairs: 1/m when both rails are populated, "
            "1/(4m) when exactly one is, 0 otherwise"
        ),
    }
    if family == "spatial-eq":
        notes["vertex_count_design_target"] = "4n + 3 for even word length n"
        notes["vertex_count_deviation"] = (
            "-2: off-rail pairs share one sink vertex and no separate "
            "reject gadget is used"
        )
    else:
        notes["vertex_count_design_target"] = "4n + 1 for even word length n"
    if m >= 1:
        notes["one_symbol_off_acceptance"] = 1.0 - 3.0 / (4.0 * m)
        notes["one_symbol_off_bound"] = 1.0 - 1.0 / (2.0 * m)

    return Machine(
        family=family,
        kind="spatial",
        word_length=n,
        graph=graph,
        coins=coin_set,
        input_slots=tuple(rails),
        accepting=frozenset({accept}),
        rejecting=frozenset(),
        steps=3,
        notes=notes,
    )


def spatial_eq(pairs: int) -> Machine:
    """Spatial machine accepting a^m b^m with certainty in three steps.

    The j-th hub joins the a-rail of position j with the b-rail of
    position m + j, so only the unique length-2m member word populates
    both ports of every hub.
    """
    if pairs < 1:
        raise ValueError("spatial_eq needs at least one symbol pair")
    return _build_spatial("spatial-eq", pairs, surplus=False)


def spatial_ab(pairs: int) -> Machine:
    """Spatial machine accepting (ab)^m with certainty in three steps.

    The j-th hub joins the rails of adjacent positions 2j - 1 and 2j.
    """
    if pairs < 1:
        raise ValueError("spatial_ab needs at least one symbol pair")
    return _build_spatial("spatial-ab", pairs, surplus=False)


# ---------------------------------------------------------------------------
# sequential machines
# ---------------------------------------------------------------------------

def _rotation(d: int) -> np.ndarray:
    """Cyclic permutation coin: port i to port i + 1 (mod d)."""
    return coinlib.permutation([(i + 1) % d for i in range(d)])


def _holding_vertex_coin(degree: int) -> np.ndarray:
    return coinlib.identity(1) if degree == 1 else _rotation(degree)


def _sequential_machine(
    family: str, chain_coins: list[np.ndarray], middle_coins: list[np.ndarray],
    wire: Callable, hold: int, steps: int, notes: dict,
) -> Machine:
    """Shared frame of every sequential machine.

    Vertex ids: the n chain vertices (input position k is vertex k), the
    two chain-head stubs, one middle vertex per entry of ``middle_coins``,
    then the accepting and the rejecting holder.

    Chain vertices have ports [arrive-a, arrive-b, leave-a, leave-b]; the
    stubs give the far end of the chain its two arriving ports.  Both
    holders park arriving amplitude in a ring of ``hold`` self-loops long
    enough that nothing leaves before measurement.

    Connect order: the two chain-head stubs, the chain double links from
    the far end down (a link then b link), then the edges ``wire`` adds
    (called with the graph, chain vertex 0, the middle vertices and the
    two holders), then the accepting holder's self-loops and the
    rejecting holder's self-loops.
    """
    n = len(chain_coins)
    graph = PortGraph()
    chain = graph.add_vertices(n)
    stubs = graph.add_vertices(2)
    middle = graph.add_vertices(len(middle_coins))
    accept = graph.add_vertex()
    reject = graph.add_vertex()

    for stub in stubs:
        graph.connect(stub, chain[n - 1])
    for k in range(n - 1, 0, -1):
        graph.connect(chain[k], chain[k - 1])
        graph.connect(chain[k], chain[k - 1])
    wire(graph, chain[0], middle, accept, reject)
    for holder in (accept, reject):
        for _ in range(hold):
            graph.connect(holder, holder)
    graph.freeze()

    stub = coinlib.identity(1)
    holders = [_holding_vertex_coin(graph.degree(v)) for v in (accept, reject)]
    coin_set = CoinAssignment(graph, [*chain_coins, stub, stub, *middle_coins, *holders])
    notes.setdefault("vertex_count", graph.num_vertices)
    notes.setdefault("non_input_vertex_count", graph.num_vertices - n)
    return Machine(
        family=family,
        kind="sequential",
        word_length=n,
        graph=graph,
        coins=coin_set,
        input_slots=tuple(chain),
        accepting=frozenset({accept}),
        rejecting=frozenset({reject}),
        steps=steps,
        notes=notes,
    )


def _finish_sequential(
    family: str, n: int, delay: int, steps: int, hold: int, notes: dict
) -> Machine:
    """Chain, delay path and interference vertex of the ab and eq machines.

    Every chain vertex has a swap-pair coin, so each step moves every
    symbol one vertex toward the gadget; position 1 sits next to it and
    exits first.  The a amplitude detours through ``delay`` pass-through
    vertices while the b amplitude enters the interference vertex
    directly, so the a part of symbol k meets the b part of symbol
    k + delay.  Their sum lands on the accepting holder, their difference
    on the rejecting holder.

    Middle vertices: the delay path, then the interference vertex.  Its
    connect order (after the chain): leave-a to the delay path, the delay
    path, delay to the interference vertex, leave-b to the interference
    vertex, its accept edge, its reject edge.
    """
    def wire(graph, head, middle, accept, reject):
        path = [head, *middle]  # the delay path, then the interference vertex
        for u, v in zip(path, path[1:]):
            graph.connect(u, v)
        mixer = middle[-1]
        graph.connect(head, mixer)
        graph.connect(mixer, accept)
        graph.connect(mixer, reject)

    pass_through = coinlib.tensor(coinlib.pauli_x(), coinlib.identity(2))
    mixer_coin = coinlib.tensor(coinlib.pauli_x(), coinlib.hadamard())
    middle_coins = [coinlib.pauli_x()] * delay + [mixer_coin]
    return _sequential_machine(
        family, [pass_through] * n, middle_coins, wire, hold, steps, notes
    )


def sequential_ab(n: int) -> Machine:
    """Sequential machine accepting (ab)^{n/2} with certainty.

    Runs n + 2 steps so that even the last symbol's delayed a amplitude
    is processed; members already sit fully on the accepting vertex one
    step earlier, so (ab)^2 is accepted at step five as well.  Every word
    scores at least one half.
    """
    if n < 1:
        raise ValueError("sequential_ab needs word length >= 1")
    notes = {
        "acceptance_formula": "1/2 + (number of 'ab' substrings) / n",
        "non_member_floor": 0.5,
        "schedule_note": (
            "n + 2 steps; members are complete after n + 1 but the final "
            "a amplitude of other words is still in flight then"
        ),
    }
    return _finish_sequential("seq-ab", n, delay=1, steps=n + 2, hold=n, notes=notes)


def sequential_eq(pairs: int, length: int | None = None) -> Machine:
    """Sequential machine accepting a^m b^m with certainty.

    The a amplitude is held back by an m-vertex delay path, so it
    interferes with the b amplitude arriving m symbols later; the walk
    runs n + m + 1 steps.  ``length`` overrides the chain length for
    sweep machines over words with no member of their length.
    """
    if pairs < 1:
        raise ValueError("sequential_eq needs at least one symbol pair")
    n = 2 * pairs if length is None else length
    if n < 1:
        raise ValueError("sequential_eq needs word length >= 1")
    notes = {
        "acceptance_formula": (
            "1/2 + (number of positions k with symbol a at k and symbol b "
            "at k + m) / n"
        ),
        "non_member_floor": 0.5,
        "delay_vertices": pairs,
    }
    return _finish_sequential(
        "seq-eq", n, delay=pairs, steps=n + pairs + 1, hold=n + pairs, notes=notes
    )


def sequential_word(word: str) -> Machine:
    """Swap-only machine accepting exactly one fixed word.

    The chain's double links are logically crossed wherever consecutive
    symbols of the target differ: those chain vertices use the rail-swap
    coin instead of the rail-preserving one, so every correct symbol's
    amplitude leaves the chain on the target's first-symbol rail and
    every incorrect one on the opposite rail.  The two rails then run
    through two-vertex paths onto the accepting and rejecting holders.
    Acceptance equals (number of matching positions) / n, reaching 1 only
    for the target word, after n + 2 steps.

    Connect order: the two chain-head stubs, the chain double links from
    the far end down, the two rail paths (accepting side first when the
    target starts with a, rejecting side first otherwise), their holder
    edges, then the holders' self-loops.

    Non-input vertices: two stubs, two path vertices per side and the two
    holders, eight in total.
    """
    encoding.check_word(word)
    n = len(word)

    def wire(graph, head, middle, accept, reject):
        keep_path, drop_path = middle[:2], middle[2:]
        # leave-a, then leave-b: the target's first symbol goes to the accepting side
        rails = [keep_path, drop_path] if word[0] == "a" else [drop_path, keep_path]
        for rail in rails:
            graph.connect(head, rail[0])
        for (first, last), holder in ((keep_path, accept), (drop_path, reject)):
            graph.connect(first, last)
            graph.connect(last, holder)

    straight = coinlib.tensor(coinlib.pauli_x(), coinlib.identity(2))
    crossed = coinlib.tensor(coinlib.pauli_x(), coinlib.pauli_x())
    chain_coins = [
        crossed if k >= 1 and word[k] != word[k - 1] else straight
        for k in range(n)
    ]
    notes = {
        "acceptance_formula": "(number of positions matching the target) / n",
        "target": word,
    }
    return _sequential_machine(
        "seq-word", chain_coins, [coinlib.pauli_x()] * 4, wire, n - 1, n + 2, notes
    )


# ---------------------------------------------------------------------------
# family helpers
# ---------------------------------------------------------------------------

def member_word(family: str, n: int) -> str | None:
    """The member word of length n for a family, or None when there is none."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if n < 2 or n % 2:
        return None
    # every family name ends in its language, "eq" or "ab"
    return reference_word(family.split("-")[1], n)


def machine_for_length(family: str, n: int) -> Machine:
    """Build the family's machine for words of length n.

    Spatial machines for odd n get a surplus input pair wired only to a
    sink, so the extra symbol's amplitude never reaches the accepting
    vertex.  Sequential machines take any chain length directly.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if n < 1:
        raise ValueError(f"word length must be >= 1, got {n}")
    if family == "spatial-eq" or family == "spatial-ab":
        return _build_spatial(family, n // 2, surplus=bool(n % 2))
    if family == "seq-ab":
        return sequential_ab(n)
    return sequential_eq(max(1, n // 2), length=n)


# ---------------------------------------------------------------------------
# acceptance
# ---------------------------------------------------------------------------

def acceptance_probability(machine: Machine, state: WalkState) -> float:
    """Evolve the machine's schedule and measure the accepting set."""
    final = evolve(state, machine.coins, machine.steps)
    return sum(vertex_probability(final, v) for v in machine.accepting)


def word_acceptance(machine: Machine, word: str) -> float:
    return acceptance_probability(machine, encoding.initial_state(machine, word))


@dataclass(frozen=True)
class AcceptanceVerdict:
    """Cut-point decision for one run.

    accept when probability > cutpoint + margin, reject when it is below
    cutpoint - margin, within-margin otherwise.
    """

    probability: float
    cutpoint: float
    margin: float
    verdict: str


def classify(
    machine: Machine, state: WalkState, cutpoint: float = 0.9, margin: float = 0.05
) -> AcceptanceVerdict:
    if not 0.0 <= cutpoint < 1.0:
        raise ValueError(f"cutpoint must be in [0, 1), got {cutpoint}")
    if margin <= 0.0:
        raise ValueError(f"margin must be positive, got {margin}")
    p = acceptance_probability(machine, state)
    if p > cutpoint + margin:
        verdict = "accept"
    elif p < cutpoint - margin:
        verdict = "reject"
    else:
        verdict = "within-margin"
    return AcceptanceVerdict(p, cutpoint, margin, verdict)


def empirical_error_margin(machine: Machine) -> float:
    """Max acceptance probability over the non-member words of the machine's length.

    Exhaustive over all 2^n words, so only feasible for short lengths.
    """
    n = machine.word_length
    member = member_word(machine.family, n) if machine.family in FAMILIES else None
    if machine.family == "seq-word":
        member = machine.notes.get("target")
    worst = 0.0
    for word in encoding.words_of_length(n):
        if word == member:
            continue
        worst = max(worst, word_acceptance(machine, word))
    return worst


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_machine(machine: Machine, directory: str | Path) -> dict[str, Path]:
    """Write graph.txt, coins.txt and machine.txt into ``directory``.

    The graph and coin files replay through the ``simulate`` CLI command;
    machine.txt names the input slots, accepting/rejecting sets and the
    step schedule.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "graph": out / "graph.txt",
        "coins": out / "coins.txt",
        "machine": out / "machine.txt",
    }
    paths["graph"].write_text(machine.graph.to_edge_lines())
    paths["coins"].write_text(machine.coins.to_text())
    if machine.kind == "spatial":
        slots = " ".join(f"{a},{b}" for a, b in machine.input_slots)
    else:
        slots = " ".join(str(v) for v in machine.input_slots)
    header = (
        f"family {machine.family}\n"
        f"kind {machine.kind}\n"
        f"length {machine.word_length}\n"
        f"steps {machine.steps}\n"
        f"accepting {' '.join(str(v) for v in sorted(machine.accepting))}\n"
        f"rejecting {' '.join(str(v) for v in sorted(machine.rejecting))}\n"
        f"slots {slots}\n"
    )
    paths["machine"].write_text(header)
    return paths
