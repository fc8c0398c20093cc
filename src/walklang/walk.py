"""State vectors and the U = SC evolution of a coined walk.

A walk state is a dense complex vector with one amplitude per
``(vertex, port)`` basis state, laid out vertex block by vertex block in
the order fixed by the graph.  One step applies the per-vertex coin
blocks and then the shift permutation; ``T`` steps of a walk starting
from ``psi`` are ``evolve(psi, coins, T)``.

Everything here is pure: state amplitudes and coin blocks are read-only
arrays and each operation returns a new state, so walks over a shared
frozen graph can run concurrently.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .coins import check_unitary
from .graph import PortGraph

__all__ = [
    "WalkState",
    "CoinAssignment",
    "step",
    "evolve",
    "vertex_probability",
    "all_vertex_probabilities",
    "inner_product",
    "dense_step_matrix",
]

# Loose guard against grossly broken states; exact 1e-12 bounds are
# asserted by the test suite where required.
NORM_GUARD = 1e-9


class WalkState:
    """Normalised amplitude vector over the ports of a frozen graph."""

    __slots__ = ("_graph", "_amplitudes")
    graph = property(lambda self: self._graph)
    amplitudes = property(lambda self: self._amplitudes, doc="Read-only amplitudes.")

    def __init__(self, graph: PortGraph, amplitudes: np.ndarray, _checked: bool = False):
        if not graph.frozen:
            raise ValueError("a walk state needs a frozen graph")
        amps = np.array(amplitudes, dtype=np.complex128, copy=True)
        if amps.shape != (graph.num_ports,):
            raise ValueError(
                f"state has {amps.shape} amplitudes, graph has {graph.num_ports} ports"
            )
        if not _checked:
            norm = np.linalg.norm(amps)
            # written so that a NaN or infinite norm fails too
            if not abs(norm - 1.0) <= NORM_GUARD:
                raise ValueError(f"state is not normalised (norm {norm!r})")
        amps.flags.writeable = False
        self._graph = graph
        self._amplitudes = amps

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
        if not graph.frozen:
            raise ValueError("a coin assignment needs a frozen graph")
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
            blocks.append(block)
        route = np.arange(graph.num_ports)
        views, kernel = {}, []
        for vs, idx in graph.degree_classes():
            order = np.argsort(routed[vs], kind="stable")
            m = len(vs) - int(np.count_nonzero(routed[vs]))
            vs, idx = vs[order].tolist(), idx[order]
            dst = graph.shift_permutation()[idx]
            stack = np.stack([blocks[v] for v in vs])
            stack.flags.writeable = False
            # P[i, j] = 1 sends port o + j through port o + i to shift[o + i]
            route[dst[m:]] = np.take_along_axis(idx[m:], stack[m:].real.argmax(axis=2), 1)
            if m:
                kernel.append((idx[:m], dst[:m], stack[:m]))
            views.update(zip(vs, stack))
        self._graph = graph
        self._matrices = tuple(views[v] for v in graph.vertices)
        self._route = route
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
            block = np.zeros((d, d), dtype=np.complex128)
            for r in range(d):
                if i >= len(lines):
                    raise ValueError(f"line {i}: unexpected end of coin block {v}")
                row = lines[i].strip().split()
                i += 1
                if len(row) != d:
                    raise ValueError(
                        f"line {i}: coin block {v} row has {len(row)} entries, wanted {d}"
                    )
                for cidx, cell in enumerate(row):
                    try:
                        re_s, im_s = cell.split(",")
                        block[r, cidx] = complex(float(re_s), float(im_s))
                    except ValueError:
                        raise ValueError(
                            f"line {i}: bad complex entry {cell!r}"
                        ) from None
            matrices[v] = block
        missing = [v for v in graph.vertices if v not in matrices]
        if missing:
            raise ValueError(f"coin file is missing blocks for vertices {missing}")
        # huge entries overflow U†U to inf or nan, which the unitarity check rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(graph, [matrices[v] for v in graph.vertices])


def step(state: WalkState, coins: CoinAssignment) -> WalkState:
    """One application of U = SC: coin blocks, then the shift permutation."""
    return evolve(state, coins, 1)


def evolve(state: WalkState, coins: CoinAssignment, steps: int) -> WalkState:
    """Apply ``steps`` full SC steps; ``steps = 0`` returns an equal state.

    Each step gathers every port along the route, then multiplies the mixing
    ports of each degree class by its coin stack and scatters the products
    straight to their shifted positions.
    """
    if steps < 0:
        raise ValueError(f"step count must be non-negative, got {steps}")
    graph = state.graph
    if coins.graph is not graph and coins.graph != graph:
        raise ValueError("coin assignment was built for a different graph")
    amps = state.amplitudes
    for _ in range(steps):
        out = amps[coins._route]
        for idx, dst, stack in coins._kernel:
            out[dst] = (stack @ amps[idx][..., None])[..., 0]
        amps = out
    return WalkState(graph, amps, _checked=True)


def vertex_probability(state: WalkState, v: int) -> float:
    """Probability of finding the walker at ``v``: sum of |amplitude|^2 over its ports."""
    lo = state.graph.offset(v)
    hi = lo + state.graph.degree(v)
    block = state.amplitudes[lo:hi]
    return float(np.real(np.vdot(block, block)))


def all_vertex_probabilities(state: WalkState) -> np.ndarray:
    probs = np.abs(state.amplitudes) ** 2
    out = np.empty(state.graph.num_vertices)
    for vs, idx in state.graph.degree_classes():
        out[vs] = probs[idx].sum(axis=1)
    return out


def inner_product(s1: WalkState, s2: WalkState) -> complex:
    """<s1|s2> over a shared basis."""
    if s1.graph is not s2.graph and s1.graph != s2.graph:
        raise ValueError("states live on different graphs")
    return complex(np.vdot(s1.amplitudes, s2.amplitudes))


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
    amps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            re_s, im_s = line.split(",")
            amps.append(complex(float(re_s), float(im_s)))
        except ValueError:
            raise ValueError(f"line {lineno}: bad amplitude {raw!r}") from None
    if len(amps) != graph.num_ports:
        raise ValueError(
            f"state file has {len(amps)} amplitudes, graph has {graph.num_ports} ports"
        )
    # huge amplitudes overflow the norm to inf, which the norm check rejects
    with np.errstate(over="ignore"):
        return WalkState(graph, np.array(amps, dtype=np.complex128))
