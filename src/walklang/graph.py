"""Undirected graphs with per-vertex port labels.

Every edge end carries a local label (a "port") at its vertex, numbered
``0 .. degree-1``.  The walk's basis states are ``(vertex, port)`` pairs,
and the shift step of a coined walk moves amplitude from each port to the
paired port at the other end of the edge.

Port numbers are assigned by append order: each :meth:`PortGraph.connect`
call appends one new port at each endpoint (two at the same vertex for a
self-loop).  Rebuilding a graph with the same sequence of calls therefore
reproduces the port layout, and with it every state vector, bit for bit.

Parallel edges and self-loops are allowed.  A self-loop occupies two
distinct ports on its vertex, paired with each other.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PortGraph"]


class PortGraph:
    """Mutable-until-frozen port graph.

    Build with :meth:`add_vertex` and :meth:`connect`, then call
    :meth:`freeze` before running walks on it.  Frozen graphs reject
    further mutation and may be shared freely between threads.  The flat
    state layout (:meth:`offset`, :meth:`state_index`, :meth:`shift_target`,
    :meth:`shift_permutation`, :meth:`degree_classes`) exists only on
    frozen graphs.
    """

    __slots__ = ("_degrees", "_edges", "_frozen", "_offsets", "_shift", "_classes")

    def __init__(self) -> None:
        self._degrees: list[int] = []
        self._edges: list[tuple[int, int]] = []
        self._frozen = False
        self._offsets: np.ndarray | None = None
        self._shift: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    def add_vertex(self) -> int:
        """Append a new vertex with no ports and return its id."""
        if self._frozen:
            raise RuntimeError("graph is frozen")
        self._degrees.append(0)
        return len(self._degrees) - 1

    def add_vertices(self, count: int) -> list[int]:
        return [self.add_vertex() for _ in range(count)]

    def connect(self, u: int, v: int) -> tuple[int, int]:
        """Add an edge between ``u`` and ``v``; return the new port indices.

        For ``u == v`` the edge is a self-loop and the returned ports are
        two consecutive ports on that vertex, paired together.
        """
        if self._frozen:
            raise RuntimeError("graph is frozen")
        for w in (u, v):
            if not 0 <= w < len(self._degrees):
                raise ValueError(f"unknown vertex id {w}")
        cu = self._degrees[u]
        self._degrees[u] += 1
        cv = self._degrees[v]
        self._degrees[v] += 1
        self._edges.append((u, v))
        return cu, cv

    def freeze(self) -> "PortGraph":
        """Lock the graph and precompute the flat state layout.

        Every vertex must carry at least one port: a port-less vertex has
        no basis state and cannot be written to the edge-list format.  The
        port pairing is derived here from the edge order: the ends
        ``u0 v0 u1 v1 ...`` sorted stably by vertex are the flat ports in
        order, and the two ends of each edge are paired.
        """
        if not self._frozen:
            for v, d in enumerate(self._degrees):
                if d == 0:
                    raise ValueError(f"vertex {v} has no ports")
            self._frozen = True
            offsets = np.zeros(len(self._degrees) + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=offsets[1:])
            self._offsets = offsets
            ends = np.array(self._edges, dtype=np.int64).reshape(-1)
            port = np.empty_like(ends)
            port[np.argsort(ends, kind="stable")] = np.arange(len(ends))
            shift = np.empty_like(port)
            shift[port[0::2]] = port[1::2]
            shift[port[1::2]] = port[0::2]
            self._shift = shift
            degrees = np.array(self._degrees)
            classes = []
            for d in dict.fromkeys(self._degrees):
                vs = np.flatnonzero(degrees == d)
                idx = offsets[vs][:, None] + np.arange(d)
                vs.flags.writeable = idx.flags.writeable = False
                classes.append((vs, idx))
            self._classes = tuple(classes)
        return self

    # -- inspection --------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def num_vertices(self) -> int:
        return len(self._degrees)

    @property
    def num_ports(self) -> int:
        return 2 * len(self._edges)

    @property
    def vertices(self) -> range:
        return range(len(self._degrees))

    def degree(self, v: int) -> int:
        if not 0 <= v < len(self._degrees):
            raise ValueError(f"unknown vertex id {v}")
        return self._degrees[v]

    def degrees(self) -> tuple[int, ...]:
        return tuple(self._degrees)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges in insertion order (the order that fixes port labels)."""
        return tuple(self._edges)

    # -- flat state layout ---------------------------------------------------

    def offset(self, v: int) -> int:
        """Start of vertex ``v``'s block in the flat amplitude vector."""
        if self._offsets is None:
            raise RuntimeError("graph is not frozen")
        if not 0 <= v < len(self._degrees):
            raise ValueError(f"unknown vertex id {v}")
        return int(self._offsets[v])

    def state_index(self, v: int, c: int) -> int:
        if not 0 <= c < self.degree(v):
            raise ValueError(f"invalid port ({v}, {c})")
        return self.offset(v) + c

    def shift_target(self, v: int, c: int) -> tuple[int, int]:
        """Return the port paired with ``(v, c)``."""
        target = int(self._shift[self.state_index(v, c)])
        w = int(np.searchsorted(self._offsets, target, side="right")) - 1
        return w, target - int(self._offsets[w])

    def shift_permutation(self) -> np.ndarray:
        """Self-inverse permutation of flat indices realising the shift."""
        if self._shift is None:
            raise RuntimeError("graph is not frozen")
        return self._shift

    def degree_classes(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per degree d, in order of first appearance: the class's vertex ids,
        shape ``(k,)``, and row by row their flat port indices, ``(k, d)``."""
        if not self._frozen:
            raise RuntimeError("graph is not frozen")
        return self._classes

    # -- serialization -------------------------------------------------------

    def to_edge_lines(self) -> str:
        """One line per edge, ``u v``, in insertion order.

        Port labels are implied by line order, so parsing the output with
        :meth:`from_edge_lines` reproduces any graph that can be frozen
        exactly, vertex count included.
        """
        return "".join(f"{u} {v}\n" for u, v in self._edges)

    @classmethod
    def from_edge_lines(cls, text: str) -> "PortGraph":
        """Parse the edge-list format written by :meth:`to_edge_lines`.

        The result is frozen.  Vertex ids run from 0 to the largest id in
        the file, and each of them must appear in some edge.
        """
        graph = cls()
        pending: list[tuple[int, int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: vertex ids must be integers, got {raw!r}"
                ) from None
            if u < 0 or v < 0:
                raise ValueError(f"line {lineno}: vertex ids must be non-negative")
            pending.append((u, v))
        # the ids in use are 0 .. n-1 exactly when the smallest unused one is n
        seen = {w for edge in pending for w in edge}
        gap = next(w for w in range(len(seen) + 1) if w not in seen)
        if gap < len(seen):
            raise ValueError(f"vertex {gap} has no ports")
        graph.add_vertices(len(seen))
        for u, v in pending:
            graph.connect(u, v)
        return graph.freeze()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortGraph):
            return NotImplemented
        return self._degrees == other._degrees and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((tuple(self._degrees), tuple(self._edges)))

    def __repr__(self) -> str:
        return (
            f"<PortGraph |V|={self.num_vertices} |E|={len(self._edges)}"
            f"{' frozen' if self._frozen else ''}>"
        )
