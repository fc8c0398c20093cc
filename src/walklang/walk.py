"""State vectors and the U = SC evolution of a coined walk.

A walk state is a dense complex vector with one amplitude per
``(vertex, port)`` basis state, laid out vertex block by vertex block in
the order fixed by the graph.  One step applies the per-vertex coin
blocks and then the shift permutation; ``T`` steps of a walk starting
from ``psi`` are ``evolve(psi, coins, T)``, the one-row call of a
:class:`Program`, which steps a batch of rows, each read on the input
ports, at once: the steps compiled once into gemvs over the forward light
cone of the input ports, moves as renames that end with port p in column p.

Everything here is pure: state amplitudes and coin blocks are arrays over
immutable buffers and each operation returns a new state, so walks over a
shared graph can run concurrently.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .coins import UNITARY_TOL, check_unitary, unitarity_defect
from .graph import PortGraph, _frozen, _records

__all__ = [
    "WalkState",
    "CoinAssignment",
    "step",
    "evolve",
    "Program",
    "vertex_probability",
    "vertex_masses",
    "all_vertex_probabilities",
    "dense_step_matrix",
]

# Loose guard against grossly broken states; exact 1e-12 bounds are
# asserted by the test suite where required.
NORM_GUARD = 1e-9
TEXT_PANEL = 1 << 12  # cells formatted at a time by _cells_text


class WalkState:
    """Normalised amplitude vector over the ports of a graph."""

    __slots__ = ("_graph", "_amplitudes")
    graph = property(lambda self: self._graph)
    amplitudes = property(lambda self: self._amplitudes, doc="Read-only amplitudes.")

    def __init__(self, graph: PortGraph, amplitudes: np.ndarray, _checked: bool = False):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (graph.num_ports,):
            raise ValueError(
                f"state has {amps.shape} amplitudes, graph has {graph.num_ports} ports"
            )
        if not _checked:
            _check_norm(amps)
        self._graph = graph
        self._amplitudes = _frozen(amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:
        return f"<WalkState over {self.graph.num_ports} ports>"


class CoinAssignment:
    """One unitary per vertex, sized to the vertex degree.

    The global coin is the direct sum of the per-vertex blocks; its matrix
    form is produced on demand by :func:`dense_step_matrix`.  The blocks
    are held as one read-only ``(k, d, d)`` stack per degree class of the
    graph, in its order, and ``matrices[v]`` is a view into its stack.  A
    block whose d nonzero entries are all exactly 1 is a permutation, so coin
    and shift only move its ports' amplitudes: the permutation ``route``
    gives, for every port, the port it reads from in one step (through the
    shift alone at a mixing vertex).  A :class:`Program` multiplies only the
    mixing blocks, through one kernel ``(idx, stack)`` per mixing class: the
    class itself, or a copy of its mixing rows if some of its blocks route.
    """

    __slots__ = ("_graph", "_matrices", "_route", "_kernel")
    graph = property(lambda self: self._graph)
    matrices = property(lambda self: self._matrices, doc="Read-only coin blocks.")

    def __init__(self, graph: PortGraph, matrices: Sequence[np.ndarray]):
        if len(matrices) != graph.num_vertices:
            raise ValueError(
                f"{len(matrices)} coin blocks for {graph.num_vertices} vertices"
            )
        blocks = []
        for v, (m, d) in enumerate(zip(matrices, graph.degrees())):
            block = np.asarray(m, dtype=np.complex128)
            if block.shape != (d, d):
                for u, lower in enumerate(blocks):  # a lower non-unitary block is named first
                    check_unitary(lower, f"coin at vertex {u}")
                raise ValueError(f"coin at vertex {v} has shape {block.shape}, degree is {d}")
            blocks.append(np.ascontiguousarray(block))
        # the shift is self-inverse, so a mixing vertex's ports read through it alone
        shift = graph.shift_permutation()
        route, views, kernel = np.array(shift), {}, []
        for vs, idx in graph.degree_classes():
            d = idx.shape[1]
            # the class's blocks in immutable bytes, in graph order
            stack = np.ndarray((*idx.shape, d), np.complex128,
                               b"".join(blocks[v] for v in vs.tolist()))
            if not unitarity_defect(stack) <= UNITARY_TOL:  # name the lowest failing vertex
                for u, block in enumerate(blocks):  # of any class, not of this one
                    check_unitary(block, f"coin at vertex {u}")
                check_unitary(stack, f"stack of degree-{d} coins")
            # a unitary block whose only nonzero entries are d ones is a permutation
            routed = (np.count_nonzero(stack, axis=(1, 2)) == d) & ((stack == 1).sum((1, 2)) == d)
            # P[i, j] = 1 sends port o + j through port o + i to shift[o + i]
            route[shift[idx[routed]]] = np.take_along_axis(
                idx[routed], stack[routed].real.argmax(axis=2), 1)
            if not routed.all():  # the mixing rows: the class itself, or a copy if some route
                kernel.append((_frozen(idx[~routed]), _frozen(stack[~routed])) if routed.any()
                              else (idx, stack))
            views.update(zip(vs.tolist(), stack))
        self._graph = graph
        self._matrices = tuple(views[v] for v in graph.vertices)
        self._route = _frozen(route)
        self._kernel = tuple(kernel)

    @classmethod
    def by_degree(
        cls, graph: PortGraph, factory: Callable[[int], np.ndarray]
    ) -> "CoinAssignment":
        """Assign ``factory(d)`` to every vertex of degree d, calling ``factory`` once per
        distinct degree, in order of first appearance; vertices of one degree share a block."""
        made = {d: factory(d) for d in dict.fromkeys(graph.degrees())}
        return cls(graph, [made[d] for d in graph.degrees()])

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Per-vertex blocks in vertex order, rows of ``re,im`` pairs, by :func:`_cells_text`."""
        cells = np.frombuffer(b"".join(self._matrices), np.complex128)
        d = np.array(self._graph.degrees())
        ends = np.zeros(len(cells), dtype=bool)
        ends[np.cumsum(np.repeat(d, d)) - 1] = True
        heads = np.array([f"v {v} {k}\n" for v, k in enumerate(d.tolist())], dtype=object)
        return _cells_text(cells, ends, np.cumsum(d * d) - d * d, heads)

    @classmethod
    def from_text(cls, graph: PortGraph, text: str) -> "CoinAssignment":
        """Parse :meth:`to_text` output: exactly one block per graph vertex."""
        blocks = _coin_blocks(graph, text)
        # huge entries overflow U†U to inf or nan, which the unitarity check rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(graph, blocks)


def _check_norm(amps: np.ndarray) -> None:
    """Raise unless the amplitude vector has norm 1 within ``NORM_GUARD``."""
    norm = np.linalg.norm(amps)
    # written so that a NaN or infinite norm fails too
    if not abs(norm - 1.0) <= NORM_GUARD:
        raise ValueError(f"state is not normalised (norm {float(norm)})")


def _check_steps(steps) -> None:
    """Raise unless ``steps`` is a non-negative ``int``; a ``bool`` is not a step count."""
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 0:
        raise ValueError(f"step count must be a non-negative int, got {steps!r}")


def step(state: WalkState, coins: CoinAssignment) -> WalkState:
    """One application of U = SC: coin blocks, then the shift permutation."""
    return evolve(state, coins, 1)


def evolve(state: WalkState, coins: CoinAssignment, steps: int) -> WalkState:
    """Apply ``steps`` full SC steps; ``steps = 0`` returns an equal state.

    The one-row call of the :class:`Program` that inputs every port, so
    every mixing vertex is multiplied at every step.
    """
    graph = state.graph
    if coins.graph is not graph and coins.graph != graph:
        raise ValueError("coin assignment was built for a different graph")
    amps = Program(coins, steps, np.arange(graph.num_ports))(state.amplitudes[None])[0]
    return WalkState(graph, amps, _checked=True)


class Program:
    """``steps`` SC steps compiled into gemvs over the forward light cone of ``inputs``.

    Called on ``(B, len(inputs))`` rows, column j port ``inputs[j]`` (no port
    twice), it returns the C-contiguous ``(B, P)`` amplitudes of every port.
    Each port lives in a register, a column of a ``(B, P)`` zero workspace
    that the rows are scattered into, and a permutation move renames them,
    once; the registers are numbered so that the moves end with port p in
    column p.  A mixing vertex is one ``(d, d) @ (d,)`` gemv per row, written
    back into its registers, at each step where the inputs reach one of its
    ports.  A port outside that cone may hold ``+0.0`` where a step-by-step
    walk holds ``-0.0`` (equal under ``np.array_equal``).  Once the inputs
    reach every port, the steps left are one stored step, repeated: every
    mixing gemv on the port columns, then one gather for the moves.  Until
    then a program keeps one event set per step, so its size grows with
    ``steps`` as long as the inputs have not reached every port.
    """

    __slots__ = ("_ports", "_inputs", "_events", "_loops", "_steady")

    def __init__(self, coins: CoinAssignment, steps: int, inputs):
        _check_steps(steps)
        route, kernel, ports = coins._route, coins._kernel, coins.graph.num_ports
        inputs = np.arange(ports)[inputs]  # port ids: a negative one counts from the end
        reach, events, loops = np.zeros(ports, dtype=bool), [], 0
        reach[inputs] = True
        if np.count_nonzero(reach) < len(inputs):
            raise ValueError(f"program inputs repeat port {np.bincount(inputs).argmax()}")
        reg = np.arange(ports)
        for t in range(steps):
            if reach.all():  # and so at every later step
                loops = steps - t
                break
            for idx, stack in kernel:
                keep = reach[idx].any(axis=1).nonzero()[0]
                if len(keep):
                    # a run of blocks is a view: a coin alone in its class is never copied
                    run = len(keep) == keep[-1] + 1 - keep[0]
                    events.append((reg[idx[keep]], stack[keep[0]:keep[-1] + 1] if run
                                   else stack[keep]))
                    reach[idx[keep]] = True
            reg, reach = reg[route], reach[route]
        # number the registers once so that port p ends in column p
        column = np.argsort(reg)
        self._ports, self._inputs, self._loops = ports, column[inputs], loops
        self._events = tuple((column[regs], blocks) for regs, blocks in events)
        self._steady = kernel, route

    def __call__(self, amplitudes: np.ndarray) -> np.ndarray:
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[1] != len(self._inputs):
            raise ValueError(f"amplitudes have shape {amps.shape}, "
                             f"program reads {len(self._inputs)} input ports")
        work = np.zeros((len(amps), self._ports), dtype=np.complex128)
        work[:, self._inputs] = amps
        for regs, blocks in self._events:
            work[:, regs] = (blocks @ work.take(regs, axis=1)[..., None])[..., 0]
        kernel, route = self._steady
        for _ in range(self._loops):
            for idx, stack in kernel:
                work[:, idx] = (stack @ work.take(idx, axis=1)[..., None])[..., 0]
            work = work.take(route, axis=1)
        return work


def vertex_probability(state: WalkState, v: int) -> float:
    """Probability of finding the walker at ``v``: sum of |amplitude|^2 over its ports."""
    lo = state.graph.offset(v)
    return float(vertex_masses(state.amplitudes[None, lo:lo + state.graph.degree(v)])[0])


def vertex_masses(block: np.ndarray) -> np.ndarray:
    """``|row|^2`` for every row of a ``(B, d)`` block of one vertex's port amplitudes.

    One ``np.vecdot`` over the rows, copied to C-contiguous memory first:
    on contiguous rows it rounds as a per-row ``np.vdot`` does (both are
    BLAS ``zdotc``), on strided rows it does not.
    """
    rows = np.ascontiguousarray(block)
    return np.vecdot(rows, rows).real


def all_vertex_probabilities(state: WalkState) -> np.ndarray:
    """Every vertex's probability, one :func:`vertex_masses` call per degree class."""
    out = np.empty(state.graph.num_vertices)
    for vs, idx in state.graph.degree_classes():
        out[vs] = vertex_masses(state.amplitudes[idx])
    return out


def dense_step_matrix(coins: CoinAssignment, max_ports: int = 64) -> np.ndarray:
    """Explicit SC matrix over the flat port basis of ``coins.graph``.

    Intended as an independent cross-check of :func:`evolve` on small
    graphs; refuses spaces larger than ``max_ports``.
    """
    graph = coins.graph
    n = graph.num_ports
    if n > max_ports:
        raise ValueError(f"graph has {n} ports, dense matrix limited to {max_ports}")
    coin = np.zeros((n, n), dtype=np.complex128)
    for v in graph.vertices:
        lo = graph.offset(v)
        hi = lo + graph.degree(v)
        coin[lo:hi, lo:hi] = coins.matrices[v]
    perm = graph.shift_permutation()
    shift = np.zeros((n, n), dtype=np.complex128)
    shift[perm, np.arange(n)] = 1.0
    return shift @ coin


# -- state file format -------------------------------------------------------

def state_to_text(state: WalkState) -> str:
    """One ``re,im`` line per (vertex, port) basis state, in flat order."""
    amps = state.amplitudes
    return _cells_text(amps, np.ones(len(amps), bool), np.empty(0, np.intp), np.empty(0, object))


def _format_each(values: np.ndarray, fmt: Callable[[float], str]) -> np.ndarray:
    """``fmt`` of each float64, as an object array, formatting each distinct int64 bit pattern
    (-0.0 apart from 0.0, each NaN its own) once: ``np.unique``'s inverse is an argsort."""
    bits, inverse = np.unique(np.asarray(values, np.float64).view(np.int64), return_inverse=True)
    return np.array(list(map(fmt, bits.view(np.float64).tolist())), dtype=object)[inverse]


def _cells_text(cells: np.ndarray, ends: np.ndarray, starts: np.ndarray, heads: np.ndarray) -> str:
    """``re,im`` per complex cell, then a newline where ``ends`` holds, else a space, with
    ``heads[j]`` before cell ``starts[j]`` (ascending).  Parts are formatted ``TEXT_PANEL``
    cells at a time, so an all-distinct coin never holds the texts of all its cells."""
    parts = cells.view(np.float64).reshape(-1, 2)
    out = []
    for lo in range(0, len(parts), TEXT_PANEL):
        panel = parts[lo:lo + TEXT_PANEL]
        texts = np.empty((len(panel), 4), dtype=object)
        texts[:, 0::2] = _format_each(panel, repr).reshape(-1, 2)
        texts[:, 1], texts[:, 3] = ",", " "
        texts[ends[lo:lo + TEXT_PANEL], 3] = "\n"
        j = slice(*np.searchsorted(starts, (lo, lo + TEXT_PANEL)))
        texts[starts[j] - lo, 0] = heads[j] + texts[starts[j] - lo, 0]
        out.append("".join(texts.ravel().tolist()))
    return "".join(out)


def state_from_text(graph: PortGraph, text: str) -> WalkState:
    records = list(_records(enumerate(text.splitlines(), start=1)))
    amps = _parse_cells([line for _, _, line in records],
                        lambda k: f"line {records[k][0]}: bad amplitude {records[k][1]!r}")
    if len(amps) != graph.num_ports:
        raise ValueError(
            f"state file has {len(amps)} amplitudes, graph has {graph.num_ports} ports"
        )
    # huge amplitudes overflow the norm to inf, which the norm check rejects
    with np.errstate(over="ignore"):
        return WalkState(graph, amps)


# every byte but the comma and the newline, which mark where cells split
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b",\n")))


def _read_cells(cells: list[str]) -> np.ndarray | None:
    """The ``re,im`` cells as one complex128 vector, or None if one is bad.

    A cell is one comma with a ``float`` literal on each side and no newline.
    The commas and newlines of the n distinct cells, joined, must alternate; ``float`` reads
    their 2n sides into float64 pairs viewed as complex, so no bit changes, and copies each back.
    """
    distinct = dict.fromkeys(cells)
    flat = "\n".join(distinct)
    marks = flat.encode("utf-8", "surrogatepass").translate(None, _NOT_MARKS)
    if marks != (b",\n" * len(distinct))[:-1]:
        return None
    sides = map(float, flat.replace(",", "\n").split("\n"))
    try:
        values = np.fromiter(sides, np.float64, 2 * len(distinct)).view(np.complex128)
    except ValueError:
        return None
    if len(distinct) == len(cells):  # the map back is the identity
        return values
    index = dict(zip(distinct, range(len(distinct))))
    return values[np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))]


def _parse_cells(cells: list[str], error: Callable[[int], str]) -> np.ndarray:
    """:func:`_read_cells`, raising ``ValueError(error(k))`` at the first bad cell k."""
    values = _read_cells(cells)
    if values is None:
        # an error report, not a second parser: the first cell failing on its own
        bad = next(k for k, cell in enumerate(cells) if _read_cells([cell]) is None)
        raise ValueError(error(bad))
    return values


def _coin_blocks(graph: PortGraph, text: str) -> list[np.ndarray]:
    """The blocks of a coin file in vertex order; each row is one :func:`_parse_cells`."""
    matrices: dict[int, np.ndarray] = {}
    lines = enumerate(text.splitlines(), start=1)
    for i, _, line in _records(lines):  # a header; its d rows follow, blank or not
        parts = line.split()
        if parts[0] != "v" or len(parts) != 3:
            raise ValueError(f"line {i}: expected 'v <id> <degree>', got {line!r}")
        try:
            v, d = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {i}: bad block header {line!r}") from None
        if not 0 <= v < graph.num_vertices:
            raise ValueError(f"line {i}: graph has no vertex {v}")
        if v in matrices:
            raise ValueError(f"line {i}: second coin block for vertex {v}")
        if d < 0:
            raise ValueError(f"line {i}: negative degree {d} for vertex {v}")
        if d != graph.degree(v):
            raise ValueError(
                f"line {i}: coin block {v} has degree {d}, vertex has {graph.degree(v)}"
            )
        block = np.empty((d, d), dtype=np.complex128)
        for r in range(d):
            i, raw = next(lines, (i, None))
            if raw is None:
                raise ValueError(f"line {i}: unexpected end of coin block {v}")
            row = raw.split()
            if len(row) != d:
                raise ValueError(
                    f"line {i}: coin block {v} row has {len(row)} entries, wanted {d}"
                )
            block[r] = _parse_cells(row, lambda k: f"line {i}: bad complex entry {row[k]!r}")
        matrices[v] = block
    missing = [v for v in graph.vertices if v not in matrices]
    if missing:
        raise ValueError(f"coin file is missing blocks for vertices {missing}")
    return [matrices[v] for v in graph.vertices]
