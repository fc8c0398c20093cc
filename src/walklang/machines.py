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

:func:`member_word` states each family's member word of a length.

Edge-order contracts
--------------------
Port labels, and with them every amplitude vector, are fixed by the order
of the edge list a graph is built from.  Each constructor documents its
order below and never varies it, so rebuilding a machine reproduces states
bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import coins as coinlib
from . import encoding
from .graph import PortGraph
from .walk import CoinAssignment, Program, evolve, vertex_masses
from .walk import vertex_probability

__all__ = [
    "Machine",
    "FAMILIES",
    "spatial_eq",
    "spatial_ab",
    "sequential_ab",
    "sequential_eq",
    "sequential_word",
    "machine_for_length",
    "member_word",
    "word_acceptance",
    "final_amplitudes",
    "acceptances",
    "check_cut",
    "classify",
    "export_machine",
]

FAMILIES = ("spatial-eq", "spatial-ab", "seq-ab", "seq-eq")


@dataclass(frozen=True, eq=False)
class Machine:
    """A built walk machine: coins (and with them the graph), input layout and schedule.

    ``input_slots`` is a tuple mapping 0-based symbol positions, at least one, to the
    ``(a-rail, b-rail)`` pair of input vertices (spatial) or the chain vertex (sequential)
    that carries the symbol; every position has the same form, and ``kind`` reports which.
    ``steps`` is the measurement time for this machine's word length.  ``member`` is the
    word of ``word_length`` that the machine accepts with certainty, or None when that
    length has none; construction checks that it does, within 1e-12.  ``graph`` is
    ``coins.graph``, ``word_length`` is ``len(input_slots)`` and ``kind`` follows the form
    of the slots, so none can disagree with what it derives from.  ``accepting`` and
    ``rejecting`` are frozensets, and every id in them and in ``input_slots`` is an ``int``
    vertex of the graph.  ``slot_indices`` is derived once from ``input_slots``: per
    position, the flat state indices of its a-slot and b-slot, port 0 of each rail, or
    ports 0 and 1 of a chain vertex, which must have two.  From them the machine's one
    :class:`Program`, ``_final_walk``, is compiled at construction: the one check that
    ``steps`` is a non-negative int and that no two slots share a port.  A machine holds
    no lazy state.
    """

    family: str
    coins: CoinAssignment
    input_slots: tuple
    accepting: frozenset[int]
    rejecting: frozenset[int]
    steps: int
    member: str | None = None
    slot_indices: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    _final_walk: Program = field(init=False, repr=False)

    graph = property(lambda self: self.coins.graph)
    word_length = property(lambda self: len(self.input_slots))
    kind = property(
        lambda self: "spatial" if isinstance(self.input_slots[0], tuple) else "sequential"
    )

    def __post_init__(self):
        if not (isinstance(self.accepting, frozenset) and isinstance(self.rejecting, frozenset)):
            raise ValueError("accepting and rejecting must be frozensets of vertex ids")
        if not (isinstance(self.input_slots, tuple) and self.input_slots):
            raise ValueError("input_slots must be a tuple of at least one input position")
        spatial = self.kind == "spatial"
        # a chain vertex v is read as the pair (v, v), whose b-slot is port 1
        pairs = self.input_slots if spatial else tuple(zip(self.input_slots, self.input_slots))
        if not all(isinstance(p, tuple) and len(p) == 2 for p in pairs):
            raise ValueError("input positions must be all (a-rail, b-rail) pairs or all ids")
        inputs = [v for pair in pairs for v in pair]
        vertices = range(self.graph.num_vertices)
        ids = self.accepting | self.rejecting
        # checked on the list: a set would merge True into 1
        stray = [v for v in (*ids, *inputs) if type(v) is not int or v not in vertices]
        if stray:
            raise ValueError(f"machine id {stray[0]!r} is not a vertex of the graph")
        if self.accepting & self.rejecting:
            raise ValueError("accepting and rejecting sets overlap")
        if not ids.isdisjoint(inputs):
            raise ValueError("accepting/rejecting sets contain input vertices")
        short = [] if spatial else [v for v in self.input_slots if self.graph.degree(v) < 2]
        if short:
            raise ValueError(f"sequential input vertex {short[0]} has fewer than two ports")
        offset = self.graph.offset
        table = tuple((offset(a), offset(b) + (not spatial)) for a, b in pairs)
        object.__setattr__(self, "slot_indices", table)
        object.__setattr__(self, "_final_walk", Program(self.coins, self.steps, np.ravel(table)))
        if self.member is not None:
            p = word_acceptance(self, self.member)
            if not abs(p - 1.0) <= 1e-12:
                raise ValueError(
                    f"member word {self.member!r} is accepted with probability {p}, not 1"
                )


# ---------------------------------------------------------------------------
# spatial machines
# ---------------------------------------------------------------------------

def _check_size(n) -> None:
    """Raise unless a builder's size ``n`` is an ``int`` of at least 1; a ``bool`` is not one."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"machine size must be an int >= 1, got {n!r}")


def _build_spatial(family: str, n: int) -> Machine:
    """The spatial machine of a family for words of length n.

    Layout: one Grover hub of degree 4 per symbol pair, connected to the
    pair's two populated rails and, through one pass-through wire vertex
    per edge, to the single accepting vertex.  Equal amplitude entering a
    hub's two rail ports is moved entirely onto its wire ports, so member
    amplitude reaches the accepting vertex on step three exactly.  The
    never-populated rails of each pair share a sink vertex and have no
    path to the accepting vertex.  Every coin is a Grover coin sized to
    the vertex degree (degree 1 gives the 1x1 identity, degree 2 the
    swap).  A word of length n therefore scores, summed over the hubs,
    2/n for a hub with both rails populated, 1/(2n) for a hub with one,
    and 0 otherwise; the surplus symbol of an odd n, whose rails lead
    only to a sink, just dilutes this.

    Edge order: per pair, a-rail hub edge, b-rail hub edge, the two
    hub wire edges; then every wire accepting-vertex edge in pair order;
    then the off-rail sink edges in pair order; then the surplus pair's
    sink edges; for a machine with no pairs, one self-loop on the
    accepting vertex.

    A machine for even word length n = 2m uses 4n + 1 vertices:
    2n rails, m hubs, 2m wires, m sinks and the accepting vertex.  Odd n
    adds 2 rails and 1 sink for the surplus symbol.
    """
    pairs, surplus = divmod(n, 2)

    ids = itertools.count()
    rails = [(next(ids), next(ids)) for _ in range(n)]
    hubs, wires = [], []
    for _ in range(pairs):
        hubs.append(next(ids))
        wires.append((next(ids), next(ids)))
    accept = next(ids)
    sinks = [next(ids) for _ in range(pairs)]
    surplus_sink = next(ids)  # a vertex only when its edges are added below

    if family == "spatial-eq":
        pairing = [(j, pairs + j) for j in range(pairs)]
    else:
        pairing = [(2 * j, 2 * j + 1) for j in range(pairs)]

    edges = []
    for (a_pos, b_pos), hub, (w0, w1) in zip(pairing, hubs, wires):
        edges += [(rails[a_pos][0], hub), (rails[b_pos][1], hub), (hub, w0), (hub, w1)]
    edges += [(w, accept) for pair in wires for w in pair]
    for (a_pos, b_pos), sink in zip(pairing, sinks):
        edges += [(rails[a_pos][1], sink), (rails[b_pos][0], sink)]
    if surplus:
        edges += [(rails[n - 1][0], surplus_sink), (rails[n - 1][1], surplus_sink)]
    if pairs == 0:
        edges.append((accept, accept))
    graph = PortGraph(edges)

    return Machine(
        family=family,
        coins=CoinAssignment.by_degree(graph, coinlib.grover),
        input_slots=tuple(rails),
        accepting=frozenset({accept}),
        rejecting=frozenset(),
        steps=3,
        member=member_word(family, n),
    )


def spatial_eq(pairs: int) -> Machine:
    """Spatial machine accepting a^m b^m with certainty in three steps.

    The j-th hub joins the a-rail of position j with the b-rail of
    position m + j, so only the unique length-2m member word populates
    both ports of every hub.  The one-symbol-off word a^m b^(m-1) a scores
    1 - 3/(4m), within the bounded-error limit 1 - 1/(2m).  The design
    target of 4n + 3 vertices is undercut by 2: off-rail pairs share one
    sink vertex and no separate reject gadget is used.
    """
    _check_size(pairs)
    return _build_spatial("spatial-eq", 2 * pairs)


def spatial_ab(pairs: int) -> Machine:
    """Spatial machine accepting (ab)^m with certainty in three steps.

    The j-th hub joins the rails of adjacent positions 2j - 1 and 2j.
    """
    _check_size(pairs)
    return _build_spatial("spatial-ab", 2 * pairs)


# ---------------------------------------------------------------------------
# sequential machines
# ---------------------------------------------------------------------------

def _rotation(d: int) -> np.ndarray:
    """Cyclic permutation coin: port i to port i + 1 (mod d); the 1x1 identity for d = 1."""
    return coinlib.permutation([(i + 1) % d for i in range(d)])


def _sequential_machine(
    family: str, chain_coins: list[np.ndarray], middle_coins: list[np.ndarray],
    wire: Callable, hold: int, steps: int, member: str | None,
) -> Machine:
    """Shared frame of every sequential machine.

    Vertex ids: the n chain vertices (input position k is vertex k), the
    two chain-head stubs, one middle vertex per entry of ``middle_coins``,
    then the accepting and the rejecting holder.

    Chain vertices have ports [arrive-a, arrive-b, leave-a, leave-b]; the
    stubs give the far end of the chain its two arriving ports.  Both
    holders park arriving amplitude in a ring of ``hold`` self-loops long
    enough that nothing leaves before measurement.

    Edge order: the two chain-head stubs, the chain double links from
    the far end down (a link then b link), then the edges ``wire`` returns
    (called with chain vertex 0, the middle vertices and the two
    holders), then the accepting holder's self-loops and the rejecting
    holder's self-loops.
    """
    n = len(chain_coins)
    middle = range(n + 2, n + 2 + len(middle_coins))
    accept, reject = middle.stop, middle.stop + 1

    edges = [(stub, n - 1) for stub in (n, n + 1)]
    for k in range(n - 1, 0, -1):
        edges += [(k, k - 1)] * 2
    edges += wire(0, middle, accept, reject)
    edges += [(accept, accept)] * hold + [(reject, reject)] * hold
    graph = PortGraph(edges)

    stub = coinlib.identity(1)
    holders = [_rotation(graph.degree(v)) for v in (accept, reject)]
    coin_set = CoinAssignment(graph, [*chain_coins, stub, stub, *middle_coins, *holders])
    return Machine(
        family=family,
        coins=coin_set,
        input_slots=tuple(range(n)),
        accepting=frozenset({accept}),
        rejecting=frozenset({reject}),
        steps=steps,
        member=member,
    )


def _finish_sequential(family: str, n: int) -> Machine:
    """The seq-ab or seq-eq machine for words of length n.

    Every chain vertex has a swap-pair coin, so each step moves every
    symbol one vertex toward the gadget; position 1 sits next to it and
    exits first.  The a amplitude detours through ``delay`` pass-through
    vertices while the b amplitude enters the interference vertex
    directly, so the a part of symbol k meets the b part of symbol
    k + delay.  Their sum lands on the accepting holder, their difference
    on the rejecting holder.

    Schedule: seq-ab has delay 1 and n holding self-loops, seq-eq delay
    m = max(1, n // 2) and n + m; the walk runs n + delay + 1 steps.

    Middle vertices: the delay path, then the interference vertex.  Its
    edge order (after the chain): leave-a to the delay path, the delay
    path, delay to the interference vertex, leave-b to the interference
    vertex, its accept edge, its reject edge.
    """
    def wire(head, middle, accept, reject):
        path = [head, *middle]  # the delay path, then the interference vertex
        mixer = middle[-1]
        return [*zip(path, path[1:]), (head, mixer), (mixer, accept), (mixer, reject)]

    delay = 1 if family == "seq-ab" else max(1, n // 2)
    hold = n if family == "seq-ab" else n + delay
    pass_through = coinlib.tensor(coinlib.pauli_x(), coinlib.identity(2))
    mixer_coin = coinlib.tensor(coinlib.pauli_x(), coinlib.hadamard())
    middle_coins = [coinlib.pauli_x()] * delay + [mixer_coin]
    return _sequential_machine(
        family, [pass_through] * n, middle_coins, wire, hold, n + delay + 1,
        member_word(family, n),
    )


def sequential_ab(n: int) -> Machine:
    """Sequential machine accepting (ab)^{n/2} with certainty.

    A word scores 1/2 + (number of 'ab' substrings) / n.  The walk runs
    n + 2 steps: members already sit fully on the accepting vertex after
    n + 1, so (ab)^2 is accepted at step five as well, but the last
    symbol's delayed a amplitude of other words is still in flight then.
    """
    _check_size(n)
    return _finish_sequential("seq-ab", n)


def sequential_eq(pairs: int) -> Machine:
    """Sequential machine accepting a^m b^m with certainty.

    The a amplitude is held back by an m-vertex delay path, so it
    interferes with the b amplitude arriving m symbols later; the walk
    runs n + m + 1 steps.  A word scores 1/2 + (number of positions k with
    a at k and b at k + m) / n.  Other word lengths n keep the delay
    m = max(1, n // 2): see :func:`_finish_sequential`.
    """
    _check_size(pairs)
    return _finish_sequential("seq-eq", 2 * pairs)


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

    Edge order: the two chain-head stubs, the chain double links from
    the far end down, the two rail paths (accepting side first when the
    target starts with a, rejecting side first otherwise), their holder
    edges, then the holders' self-loops.

    Non-input vertices: two stubs, two path vertices per side and the two
    holders, eight in total.
    """
    encoding.check_word(word)
    n = len(word)

    def wire(head, middle, accept, reject):
        keep_path, drop_path = middle[:2], middle[2:]
        # leave-a, then leave-b: the target's first symbol goes to the accepting side
        rails = [keep_path, drop_path] if word[0] == "a" else [drop_path, keep_path]
        edges = [(head, rail[0]) for rail in rails]
        for (first, last), holder in ((keep_path, accept), (drop_path, reject)):
            edges += [(first, last), (last, holder)]
        return edges

    straight = coinlib.tensor(coinlib.pauli_x(), coinlib.identity(2))
    crossed = coinlib.tensor(coinlib.pauli_x(), coinlib.pauli_x())
    chain_coins = [
        crossed if k >= 1 and word[k] != word[k - 1] else straight
        for k in range(n)
    ]
    return _sequential_machine(
        "seq-word", chain_coins, [coinlib.pauli_x()] * 4, wire, n - 1, n + 2, word
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
    m = n // 2
    # every family name ends in its language, "eq" or "ab"
    return "a" * m + "b" * m if family.endswith("eq") else "ab" * m


def machine_for_length(family: str, n: int) -> Machine:
    """Build the family's machine for words of length n >= 1.

    :func:`_build_spatial` and :func:`_finish_sequential` set each length's
    layout and schedule.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    _check_size(n)
    if family.startswith("spatial"):
        return _build_spatial(family, n)
    return _finish_sequential(family, n)


# ---------------------------------------------------------------------------
# acceptance
# ---------------------------------------------------------------------------

def word_acceptance(machine: Machine, word: str) -> float:
    """Load one word, evolve the machine's schedule and measure the accepting set."""
    final = evolve(encoding.initial_state(machine, word), machine.coins, machine.steps)
    return sum(vertex_probability(final, v) for v in machine.accepting)


def final_amplitudes(machine: Machine, first, second, *, etas) -> Iterator[np.ndarray]:
    """Run each chunk of :func:`encoding.encode_chunks` through the machine's one program.

    The ``(W, n)`` word pairs by the E ``etas`` are checked before the first
    chunk.  Yields, for each chunk of the w-major grid in order, the
    C-contiguous ``(rows, ports)`` amplitudes of every port after ``machine.steps``.
    """
    for amps in encoding.encode_chunks(machine, first, second, etas=etas):
        yield machine._final_walk(amps)


def acceptances(machine: Machine, words: Sequence[str]) -> np.ndarray:
    """:func:`word_acceptance` of every word, in order, bit for bit.

    Each word, paired with itself at the one eta 1, runs through
    :func:`final_amplitudes`, the program qinput runs.  Each accepting vertex
    is measured on every row through its port range, and the rows are summed
    from 0 in ``accepting`` order, as :func:`word_acceptance` does.
    """
    graph, rows = machine.graph, encoding.symbols(machine, words)
    ranges = [(graph.offset(v), graph.offset(v) + graph.degree(v)) for v in machine.accepting]
    finals = final_amplitudes(machine, rows, rows, etas=[1.0])
    return np.concatenate([sum((vertex_masses(final[:, a:b]) for a, b in ranges),
                               np.zeros(len(final))) for final in finals])


def check_cut(cutpoint: float, margin: float) -> None:
    """Reject a cut-point outside [0, 1) or a margin that is not positive and finite."""
    if not 0.0 <= cutpoint < 1.0:
        raise ValueError(f"cutpoint must be in [0, 1), got {cutpoint}")
    if not 0.0 < margin < math.inf:
        raise ValueError(f"margin must be positive and finite, got {margin}")


def classify(p: float, cutpoint: float = 0.9, margin: float = 0.05) -> str:
    """Cut-point verdict for an acceptance probability.

    "accept" when p > cutpoint + margin, "reject" when p < cutpoint - margin,
    "within-margin" otherwise.  A ``p`` that is NaN or outside [0, 1], beyond
    the 1e-12 of rounding the member check allows, is not a probability.
    """
    check_cut(cutpoint, margin)
    if not 0.0 <= p <= 1.0 + 1e-12:
        raise ValueError(f"acceptance probability must be in [0, 1], got {p}")
    if p > cutpoint + margin:
        return "accept"
    if p < cutpoint - margin:
        return "reject"
    return "within-margin"


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
    paths = {name: out / f"{name}.txt" for name in ("graph", "coins", "machine")}
    paths["graph"].write_text(machine.graph.to_edge_lines(), encoding="utf-8")
    paths["coins"].write_text(machine.coins.to_text(), encoding="utf-8")
    spatial = machine.kind == "spatial"
    slots = " ".join(",".join(map(str, s)) if spatial else str(s) for s in machine.input_slots)
    header = (
        f"family {machine.family}\n"
        f"kind {machine.kind}\n"
        f"length {machine.word_length}\n"
        f"steps {machine.steps}\n"
        f"accepting {' '.join(str(v) for v in sorted(machine.accepting))}\n"
        f"rejecting {' '.join(str(v) for v in sorted(machine.rejecting))}\n"
        f"slots {slots}\n"
    )
    paths["machine"].write_text(header, encoding="utf-8")
    return paths
