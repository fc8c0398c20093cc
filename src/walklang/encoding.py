"""Input encodings: classical words and symbol-wise quantum superpositions.

Words are plain strings over the two-letter alphabet ``{a, b}``.  A word
of length n is loaded with amplitude ``1/sqrt(n)`` per symbol:

* spatial machines place it on one of the two rail vertices assigned to
  each position (the a-rail or the b-rail);
* sequential machines place it on one of the two arriving ports of each
  chain vertex, so position k carries ``(alpha, 0, 0, 0)`` for ``a`` and
  ``(0, alpha, 0, 0)`` for ``b``.

A quantum input superposes two equal-length words symbol by symbol: where
they agree the slot is loaded classically, where they differ the first
word's slot gets ``alpha * eta`` and the second word's slot gets
``alpha * sqrt(1 - |eta|^2)``.

:func:`encode_chunks` loads a grid ``CHUNK`` rows at a time from its
factors, the ``(W, n)`` symbol matrices (0 for ``a``, 1 for ``b``) of W word
pairs and E etas, row ``w * E + e`` for pair w at eta e, each slot pair's
norm checked once.  It works in input-slot coordinates: each row holds the
2n slot amplitudes, symbol s at position k in column ``2k + s``, the order
of ``np.ravel(machine.slot_indices)`` and so of the inputs the machine's
program reads.  :func:`initial_state` and :func:`quantum_initial_state` are
one-row calls that spread the slot row onto the graph's ports.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .walk import NORM_GUARD, WalkState

__all__ = [
    "ALPHABET",
    "check_word",
    "words_of_length",
    "symbols",
    "enumerate_words",
    "spatial_initial_state",
    "sequential_initial_state",
    "initial_state",
    "quantum_initial_state",
    "encode_chunks",
]

ALPHABET = "ab"
# Rows per chunk: enough to spread numpy's per-call cost over many words,
# few enough that a chunk's arrays stay as small as the rest of a run.
CHUNK = 64
# the largest |eta| a quantum input may carry, rounding included
ETA_BOUND = 1 + 1e-12


def check_word(word: str) -> str:
    if not word:
        raise ValueError("word must be non-empty")
    bad = set(word) - set(ALPHABET)
    if bad:
        raise ValueError(f"word {word!r} uses symbols outside {{a, b}}: {sorted(bad)}")
    return word


def words_of_length(n: int) -> list[str]:
    """All ``2**n`` words of length n in lexicographic order (a < b)."""
    if n < 1:
        raise ValueError(f"word length must be >= 1, got {n}")
    return ["".join(symbols) for symbols in product(ALPHABET, repeat=n)]


def enumerate_words(max_len: int) -> Iterator[str]:
    """All words up to ``max_len``, shortest first, then lexicographic (a < b)."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    for length in range(1, max_len + 1):
        yield from words_of_length(length)


def spatial_initial_state(machine, word: str) -> WalkState:
    """Load a word across the input rails of a spatial machine.

    Position k (1-based) puts amplitude ``1/sqrt(n)`` on the single port of
    its a-rail vertex when the symbol is ``a``, else on its b-rail vertex.
    """
    if machine.kind != "spatial":
        raise ValueError(f"machine kind is {machine.kind!r}, expected 'spatial'")
    return initial_state(machine, word)


def sequential_initial_state(machine, word: str) -> WalkState:
    """Load a word along the input chain of a sequential machine."""
    if machine.kind != "sequential":
        raise ValueError(f"machine kind is {machine.kind!r}, expected 'sequential'")
    return initial_state(machine, word)


def initial_state(machine, word: str) -> WalkState:
    """Load a classical word on either machine kind.

    This is the eta = 1 case of :func:`quantum_initial_state`, where every
    position is loaded classically.
    """
    return quantum_initial_state(machine, word, word, 1.0)


def quantum_initial_state(machine, w1: str, w2: str, eta: complex) -> WalkState:
    """Load a symbol-wise superposition of ``w1`` and ``w2`` with amplitude ratio eta.

    Matching positions are encoded classically; differing positions split
    their ``1/sqrt(n)`` amplitude between the two words' slots in the
    ratio eta to sqrt(1 - |eta|^2), so eta = 1 loads ``w1`` and eta = 0
    loads ``w2``.  Both words must have the machine's length and |eta| <= 1.
    The :func:`encode_chunks` row is spread onto its ports, and the norm
    checked there: a forged slot table whose positions share a port fails.
    """
    slots = next(encode_chunks(machine, *symbols(machine, [w1, w2])[:, None], etas=[eta]))
    amps = np.zeros(machine.graph.num_ports, dtype=np.complex128)
    amps[np.ravel(machine.slot_indices)] = slots[0]
    return WalkState(machine.graph, amps)


def _check_length(machine, n: int) -> None:
    if n != machine.word_length:
        raise ValueError(f"machine expects words of length {machine.word_length}, got {n}")


def symbols(machine, words: Sequence[str]) -> np.ndarray:
    """The ``(B, n)`` symbol matrix of words for the machine: 0 for a, 1 for b.

    The first word that :func:`check_word` or the machine's word length
    rejects raises its error.
    """
    n = machine.word_length
    codes = np.frombuffer("".join(words).encode("utf-8", "surrogatepass"), np.uint8) - 97
    if set(map(len, words)) != {n} or not (codes <= 1).all():
        for word in words:
            check_word(word)
            _check_length(machine, len(word))
    return codes.reshape(len(words), n)


def encode_chunks(machine, first, second, *, etas) -> Iterator[np.ndarray]:
    """``(W * E, 2n)`` slot amplitudes of W word pairs by E etas, ``CHUNK`` rows at a time.

    From ``(W, n)`` symbol matrices and a 1-D ``etas``, row r superposes the
    words ``first[r // E]`` and ``second[r // E]`` with weight ``etas[r % E]``;
    column ``2k + s`` is symbol s's slot at position k.  A position where
    they agree gets ``alpha = 1/sqrt(n)`` on its slot; where they differ, the
    first word's slot gets ``alpha * eta`` and the second word's slot
    ``alpha * sqrt(1 - |eta|^2)``, each added onto zero.  Before the first
    chunk the factors are checked, a position's two slots computed per eta
    (repeats included) and symbol pair, and that table's norms checked; each
    chunk only looks its slots up.  No rows make one empty chunk.
    """
    first, second = np.asarray(first), np.asarray(second)
    etas = np.asarray(etas, dtype=np.complex128)
    n = machine.word_length
    if first.ndim != 2 or second.shape != first.shape or etas.ndim != 1:
        raise ValueError(f"symbol matrices of shapes {first.shape} and {second.shape}, "
                         f"etas of shape {etas.shape}")
    _check_length(machine, first.shape[1])
    if not all(s.dtype.kind in "biu" and ((s == 0) | (s == 1)).all() for s in (first, second)):
        raise ValueError("symbol matrices may only hold integer 0 (a) and 1 (b)")
    bad = np.flatnonzero(~(np.abs(etas) <= ETA_BOUND))
    if bad.size:
        raise ValueError(f"|eta| must be <= 1, got {abs(complex(etas[bad[0]]))}")

    alpha = 1.0 / math.sqrt(n)
    # per eta, the first and the second word's weight where they differ;
    # Python's abs and ** round some values differently from numpy's
    weight1 = alpha * etas
    weight2 = np.array([alpha * math.sqrt(max(0.0, 1.0 - abs(e) ** 2)) for e in etas.tolist()])
    # slots[e, 2 * s1 + s2]: the (a, b) slots of a position reading s1, s2; each is 0 + its load
    slots = np.zeros((len(etas), 4, 2), dtype=np.complex128)
    slots[:, [0, 3], [0, 1]] += alpha
    slots[:, [1, 2], [0, 1]] += weight1[:, None]
    slots[:, [1, 2], [1, 0]] += weight2[:, None]
    # a row's squared norm is the sum of its n positions' |slot pair|^2, so every
    # row is within NORM_GUARD of 1 if every pair's n * |pair|^2 is
    squares = n * (np.abs(slots) ** 2).sum(axis=2)
    bad = np.flatnonzero(~(np.abs(squares - 1.0) <= NORM_GUARD))
    if bad.size:
        raise ValueError(f"state is not normalised (norm {float(np.sqrt(squares.flat[bad[0]]))})")
    pairs, rows = 2 * first + second, len(first) * len(etas)
    for lo in range(0, max(rows, 1), CHUNK):
        w, e = np.divmod(np.arange(lo, min(lo + CHUNK, rows)), len(etas))
        cells = 4 * e[:, None] + pairs[w]
        yield slots.reshape(-1, 2).take(cells, axis=0).reshape(len(cells), 2 * n)
