"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from walklang import CoinAssignment, PortGraph
from walklang import coins as coinlib


def line_graph(n: int) -> PortGraph:
    """Path of n vertices; interior vertices get ports [left, right]."""
    g = PortGraph()
    g.add_vertices(n)
    for i in range(n - 1):
        g.connect(i, i + 1)
    return g.freeze()


def hadamard_line_coins(graph: PortGraph) -> CoinAssignment:
    return CoinAssignment(
        graph,
        [
            coinlib.hadamard() if graph.degree(v) == 2 else coinlib.identity(1)
            for v in graph.vertices
        ],
    )


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * np.exp(-1j * np.angle(np.diag(r)))[None, :]


def graph_from_edges(n: int, edges: list[tuple[int, int]]) -> PortGraph:
    g = PortGraph()
    g.add_vertices(n)
    for u, v in edges:
        g.connect(u, v)
    for v in range(n):
        if g.degree(v) == 0:
            g.connect(v, (v + 1) % n)
    return g.freeze()


def all_words(n: int) -> list[str]:
    return ["".join("ab"[(bits >> (n - 1 - k)) & 1] for k in range(n)) for bits in range(2 ** n)]


def reference_evolve(state, coins: CoinAssignment, steps: int) -> np.ndarray:
    """Amplitudes after ``steps`` steps by a per-vertex coin loop and a separate shift.

    A bit-identity oracle for ``walk.evolve``: each block is one ``(d, d)``
    by ``(d,)`` product on its contiguous slice, then the shift scatters.
    """
    graph = state.graph
    perm = graph.shift_permutation()
    amps = state.amplitudes
    for _ in range(steps):
        coined = np.empty_like(amps)
        for v in graph.vertices:
            lo = graph.offset(v)
            hi = lo + graph.degree(v)
            coined[lo:hi] = coins.matrices[v] @ amps[lo:hi]
        amps = np.empty_like(coined)
        amps[perm] = coined
    return amps


def reference_vertex_probabilities(state) -> np.ndarray:
    """Per-vertex probabilities by a loop over vertices, each summing its own slice.

    A bit-identity oracle for ``walk.all_vertex_probabilities``.
    """
    graph = state.graph
    probs = np.abs(state.amplitudes) ** 2
    return np.array(
        [probs[graph.offset(v): graph.offset(v) + graph.degree(v)].sum()
         for v in graph.vertices]
    )
