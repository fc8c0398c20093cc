"""State vectors and the U = SC evolution of a coined walk.

A walk state is a dense complex vector with one amplitude per
``(vertex, port)`` basis state, laid out vertex block by vertex block in
the order fixed by the graph.  One step applies the per-vertex coin
blocks and then the shift permutation; ``T`` steps of a walk starting
from ``psi`` are ``evolve(psi, coins, T)``, the one-row case of
``evolve_batch``, which steps a ``(B, P)`` array of amplitude rows at once.

Everything here is pure: state amplitudes and coin blocks are arrays over
immutable buffers and each operation returns a new state, so walks over a
shared graph can run concurrently.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .coins import check_unitary
from .graph import PortGraph, _frozen

__all__ = [
    "WalkState",
    "CoinAssignment",
    "step",
    "evolve",
    "evolve_batch",
    "vertex_probability",
    "vertex_masses",
    "all_vertex_probabilities",
    "dense_step_matrix",
]

# Loose guard against grossly broken states; exact 1e-12 bounds are
# asserted by the test suite where required.
NORM_GUARD = 1e-9


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

    @classmethod
    def from_basis(cls, graph: PortGraph, v: int, c: int) -> "WalkState":
        """All amplitude on the single basis state ``(v, c)``."""
        amps = np.zeros(graph.num_ports, dtype=np.complex128)
        amps[graph.state_index(v, c)] = 1.0
        return cls(graph, amps, _checked=True)

    def amplitude(self, v: int, c: int) -> complex:
        return complex(self.amplitudes[self.graph.state_index(v, c)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:
        return f"<WalkState over {self.graph.num_ports} ports>"


class CoinAssignment:
    """One unitary per vertex, sized to the vertex degree.

    The global coin is the direct sum of the per-vertex blocks; its matrix
    form is produced on demand by :func:`dense_step_matrix`.  The blocks
    are stored once, as one read-only ``(k, d, d)`` stack per degree class
    of the graph, and ``matrices[v]`` is a view into its stack.  A block
    whose d nonzero entries are all exactly 1 is a permutation, so coin and
    shift only move its ports' amplitudes: ``route`` gives, for every port,
    the port it reads from in one step.  Each stack holds its mixing blocks
    first; :func:`evolve` multiplies only those, through the flat indices
    ``idx`` of their ports and ``dst``, where the shift sends each of them.
    """

    __slots__ = ("_graph", "_matrices", "_route", "_kernel")
    graph = property(lambda self: self._graph)
    matrices = property(lambda self: self._matrices, doc="Read-only coin blocks.")

    def __init__(self, graph: PortGraph, matrices: Sequence[np.ndarray]):
        if len(matrices) != graph.num_vertices:
            raise ValueError(
                f"{len(matrices)} coin blocks for {graph.num_vertices} vertices"
            )
        degrees = graph.degrees()
        blocks, routed = [], np.zeros(graph.num_vertices, dtype=bool)
        for v, m in enumerate(matrices):
            block = np.asarray(m, dtype=np.complex128)
            d = degrees[v]
            if block.shape != (d, d):
                raise ValueError(
                    f"coin at vertex {v} has shape {block.shape}, degree is {d}"
                )
            check_unitary(block, f"coin at vertex {v}")
            # a unitary block whose only nonzero entries are d ones is a permutation
            routed[v] = np.count_nonzero(block) == d == np.count_nonzero(block == 1)
            blocks.append(np.ascontiguousarray(block))
        route = np.arange(graph.num_ports)
        views, kernel = {}, []
        for vs, idx in graph.degree_classes():
            order = np.argsort(routed[vs], kind="stable")
            m = len(vs) - int(np.count_nonzero(routed[vs]))
            vs, idx = vs[order].tolist(), idx[order]
            dst = graph.shift_permutation()[idx]
            # the class's blocks, copied once into immutable bytes
            stack = np.ndarray((*idx.shape, idx.shape[1]), np.complex128,
                               b"".join(blocks[v] for v in vs))
            # P[i, j] = 1 sends port o + j through port o + i to shift[o + i]
            route[dst[m:]] = np.take_along_axis(idx[m:], stack[m:].real.argmax(axis=2), 1)
            if m:
                kernel.append((_frozen(idx[:m]), _frozen(dst[:m]), stack[:m]))
            views.update(zip(vs, stack))
        self._graph = graph
        self._matrices = tuple(views[v] for v in graph.vertices)
        self._route = _frozen(route)
        self._kernel = tuple(kernel)

    @classmethod
    def by_degree(
        cls, graph: PortGraph, factory: Callable[[int], np.ndarray]
    ) -> "CoinAssignment":
        """Assign ``factory(degree(v))`` to every vertex."""
        return cls(graph, [factory(graph.degree(v)) for v in graph.vertices])

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Per-vertex blocks in vertex order, rows of ``re,im`` pairs."""
        out = []
        for v, m in enumerate(self.matrices):
            out.append(f"v {v} {m.shape[0]}\n")
            for row in m:
                out.append(
                    " ".join(f"{float(x.real)!r},{float(x.imag)!r}" for x in row) + "\n"
                )
        return "".join(out)

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

    The one-row case of :func:`evolve_batch`.
    """
    graph = state.graph
    if coins.graph is not graph and coins.graph != graph:
        raise ValueError("coin assignment was built for a different graph")
    amps = evolve_batch(state.amplitudes[None], coins, steps)[0]
    return WalkState(graph, amps, _checked=True)


def evolve_batch(amplitudes: np.ndarray, coins: CoinAssignment, steps: int) -> np.ndarray:
    """Apply ``steps`` full SC steps to every row of a ``(B, P)`` amplitude array.

    Each step gathers every port of every row along the route, then
    multiplies the mixing ports of each degree class by its coin stack and
    scatters the products straight to their shifted positions.  That is
    still one gemv per vertex per row, so a row evolves bit for bit as it
    would alone.  The rows of the result are not contiguous in general.
    """
    _check_steps(steps)
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 2 or amps.shape[1] != coins.graph.num_ports:
        raise ValueError(
            f"amplitudes have shape {amps.shape}, graph has {coins.graph.num_ports} ports"
        )
    for _ in range(steps):
        out = amps[:, coins._route]
        for idx, dst, stack in coins._kernel:
            out[:, dst] = (stack @ amps[:, idx][..., None])[..., 0]
        amps = out
    return amps


def vertex_probability(state: WalkState, v: int) -> float:
    """Probability of finding the walker at ``v``: sum of |amplitude|^2 over its ports."""
    return float(vertex_masses(state.graph, state.amplitudes[None], v)[0])


def vertex_masses(graph: PortGraph, amplitudes: np.ndarray, v: int) -> np.ndarray:
    """:func:`vertex_probability` of ``v`` for every row of a ``(B, P)`` amplitude array.

    The block is copied to contiguous rows first: ``vdot`` rounds a strided
    row differently, and :func:`evolve_batch` leaves its rows strided.
    """
    lo = graph.offset(v)
    block = np.ascontiguousarray(amplitudes[:, lo:lo + graph.degree(v)])
    return np.array([np.vdot(row, row).real for row in block], dtype=np.float64)


def all_vertex_probabilities(state: WalkState) -> np.ndarray:
    probs = np.abs(state.amplitudes) ** 2
    out = np.empty(state.graph.num_vertices)
    for vs, idx in state.graph.degree_classes():
        out[vs] = probs[idx].sum(axis=1)
    return out


def dense_step_matrix(
    graph: PortGraph, coins: CoinAssignment, max_ports: int = 64
) -> np.ndarray:
    """Explicit SC matrix over the flat port basis.

    Intended as an independent cross-check of :func:`evolve` on small
    graphs; refuses spaces larger than ``max_ports``.
    """
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
    return "".join(
        f"{float(a.real)!r},{float(a.imag)!r}\n" for a in state.amplitudes
    )


def state_from_text(graph: PortGraph, text: str) -> WalkState:
    lines = text.splitlines()
    cells = [line.strip() for line in lines]
    kept = [n for n, cell in enumerate(cells) if cell and not cell.startswith("#")]
    amps = _parse_cells([cells[n] for n in kept],
                        lambda k: f"line {kept[k] + 1}: bad amplitude {lines[kept[k]]!r}")
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
    The commas and newlines of the joined cells must alternate, then ``float``
    reads the 2n sides into float64 pairs, viewed as complex so no bit changes.
    """
    flat = "\n".join(cells)
    marks = flat.encode("utf-8", "surrogatepass").translate(None, _NOT_MARKS)
    if marks != (b",\n" * len(cells))[:-1]:
        return None
    sides = map(float, flat.replace(",", "\n").split("\n"))
    try:
        return np.fromiter(sides, np.float64, 2 * len(cells)).view(np.complex128)
    except ValueError:
        return None


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
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
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
            if i >= len(lines):
                raise ValueError(f"line {i}: unexpected end of coin block {v}")
            row = lines[i].split()
            i += 1
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
