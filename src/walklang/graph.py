"""Undirected graphs with per-vertex port labels.

Every edge end carries a local label (a "port") at its vertex, numbered
``0 .. degree-1``.  The walk's basis states are ``(vertex, port)`` pairs,
and the shift step of a coined walk moves amplitude from each port to the
paired port at the other end of the edge.

A graph is its ordered edge list.  Port numbers follow that order: each
edge takes the next free port at each endpoint (two consecutive ports at
the same vertex for a self-loop).  Building a graph from the same edge
list therefore reproduces the port layout, and with it every state
vector, bit for bit.

Parallel edges and self-loops are allowed.  A self-loop occupies two
distinct ports on its vertex, paired with each other.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np

__all__ = ["PortGraph"]


def _is_id(v) -> bool:
    """Whether ``v`` can name a vertex: a Python or numpy integer, not a ``bool``."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _frozen(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` over immutable bytes: no view of it can be made writeable."""
    return np.ndarray(array.shape, array.dtype, array.tobytes())


def _records(lines: Iterable[tuple[int, str]]) -> Iterator[tuple[int, str, str]]:
    """``(number, raw, stripped)`` per data line of a file: not blank, not a ``#`` comment."""
    for number, raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            yield number, raw, line


class PortGraph:
    """Immutable port graph, built in one call from its ordered edge list.

    The vertices are ``0 .. n-1``, n being the largest id + 1, and each of
    them must carry a port.  The flat state layout (:meth:`offset`,
    :meth:`shift_permutation`, :meth:`degree_classes`) is derived once, into
    read-only arrays, so a graph may be shared freely between threads; port
    c of vertex v is flat index ``offset(v) + c``.
    """

    __slots__ = ("_degrees", "_edges", "_offsets", "_shift", "_classes")

    def __init__(self, edges: Iterable[tuple[int, int]]):
        """Build the graph of ``edges``, a sequence of ``(u, v)`` pairs.

        Raises ``ValueError`` for an empty list, an edge that is not a pair
        of integer ids (a ``bool`` is not one), a negative id, or an id
        below the largest that no edge uses (a vertex with no ports has no
        basis state and cannot be written to the edge-list format).
        """
        self._edges = tuple(map(tuple, edges))
        if not self._edges:
            raise ValueError("graph has no edges")
        # checked on the flat list: a set would merge True into 1
        ends = list(chain.from_iterable(self._edges))
        if any(len(e) != 2 for e in self._edges) or not all(map(_is_id, ends)):
            raise ValueError("every edge must be a (u, v) pair of integer ids")
        # the ids are 0 .. n-1 exactly when n distinct ids span 0 .. n-1;
        # checked on the ids as given, before a huge id reaches numpy
        seen = set(ends)
        n = len(seen)
        if min(seen) < 0:
            raise ValueError(f"vertex ids must be non-negative, got {min(seen)}")
        if max(seen) != n - 1:
            gap = next(w for w in range(n) if w not in seen)
            raise ValueError(f"vertex {gap} has no ports")
        ends = np.array(ends, dtype=np.int64)
        degrees = np.bincount(ends, minlength=n)
        self._degrees = tuple(degrees.tolist())
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        # the ends u0 v0 u1 v1 ... sorted stably by vertex are the flat ports
        # in order, and the two ends of each edge are paired
        port = np.empty_like(ends)
        port[np.argsort(ends, kind="stable")] = np.arange(len(ends))
        shift = np.empty_like(port)
        shift[port[0::2]] = port[1::2]
        shift[port[1::2]] = port[0::2]
        classes = []
        for d in dict.fromkeys(self._degrees):
            vs = np.flatnonzero(degrees == d)
            idx = offsets[vs][:, None] + np.arange(d)
            classes.append((_frozen(vs), _frozen(idx)))
        self._offsets, self._shift = _frozen(offsets), _frozen(shift)
        self._classes = tuple(classes)

    # -- inspection --------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._degrees)

    @property
    def num_ports(self) -> int:
        return 2 * len(self._edges)

    @property
    def vertices(self) -> range:
        return range(len(self._degrees))

    def _vertex(self, v: int) -> int:
        if not (_is_id(v) and 0 <= v < len(self._degrees)):
            raise ValueError(f"unknown vertex id {v}")
        return v

    def degree(self, v: int) -> int:
        return self._degrees[self._vertex(v)]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    # -- flat state layout ---------------------------------------------------

    def offset(self, v: int) -> int:
        """Start of vertex ``v``'s block in the flat amplitude vector."""
        return int(self._offsets[self._vertex(v)])

    def shift_permutation(self) -> np.ndarray:
        """Read-only, self-inverse permutation of flat indices realising the shift."""
        return self._shift

    def degree_classes(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per degree d, in order of first appearance: the class's vertex ids,
        shape ``(k,)``, and row by row their flat port indices, ``(k, d)``."""
        return self._classes

    # -- serialization -------------------------------------------------------

    def to_edge_lines(self) -> str:
        """One line per edge, ``u v``, in edge order.

        Port labels are implied by line order, so parsing the output with
        :meth:`from_edge_lines` reproduces the graph exactly, vertex count
        included.
        """
        return "".join(f"{u} {v}\n" for u, v in self._edges)

    @classmethod
    def from_edge_lines(cls, text: str) -> "PortGraph":
        """Parse the edge-list format written by :meth:`to_edge_lines`.

        Malformed lines are rejected with their line number; the graph
        rules are the constructor's.
        """
        pending: list[tuple[int, int]] = []
        for lineno, raw, line in _records(enumerate(text.splitlines(), start=1)):
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
        return cls(pending)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortGraph):
            return NotImplemented
        return self._edges == other._edges

    def __hash__(self) -> int:
        return hash(self._edges)

    def __repr__(self) -> str:
        return f"<PortGraph |V|={self.num_vertices} |E|={len(self._edges)}>"
