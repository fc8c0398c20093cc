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

:func:`encode` loads a whole batch at once, from ``(B, n)`` symbol
matrices (0 for ``a``, 1 for ``b``) and a ``(B,)`` eta vector;
:func:`initial_state` and :func:`quantum_initial_state` are its one-row
calls.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .walk import NORM_GUARD, WalkState, _check_norm

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
    "encode",
]

ALPHABET = "ab"
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
    row = symbols(machine, [word])
    return WalkState(machine.graph, encode(machine, row, row, _ONE)[0], _checked=True)


def quantum_initial_state(machine, w1: str, w2: str, eta: complex) -> WalkState:
    """Load a symbol-wise superposition of ``w1`` and ``w2`` with amplitude ratio eta.

    Matching positions are encoded classically; differing positions split
    their ``1/sqrt(n)`` amplitude between the two words' slots in the
    ratio eta to sqrt(1 - |eta|^2), so eta = 1 loads ``w1`` and eta = 0
    loads ``w2``.  Both words must have the machine's length and |eta| <= 1.
    """
    first, second = symbols(machine, [w1]), symbols(machine, [w2])
    amps = encode(machine, first, second, np.array([eta], dtype=np.complex128))
    return WalkState(machine.graph, amps[0], _checked=True)


_ONE = np.ones(1)


def _check_length(machine, n: int) -> None:
    if n != machine.word_length:
        raise ValueError(
            f"machine expects words of length {machine.word_length}, got {n}"
        )


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


def encode(machine, first: np.ndarray, second: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The one input encoder: ``(B, P)`` amplitudes from ``(B, n)`` symbol matrices.

    Row b superposes the words ``first[b]`` and ``second[b]`` with weight
    ``eta[b]``, through the machine's a-slot/b-slot table.  A position where
    they agree gets ``alpha = 1/sqrt(n)`` on its slot; where they differ,
    the first word's slot gets ``alpha * eta`` and the second word's slot
    ``alpha * sqrt(1 - |eta|^2)``, each added onto zero.
    """
    first, second = np.asarray(first), np.asarray(second)
    eta = np.asarray(eta, dtype=np.complex128)
    _check_length(machine, first.shape[-1])
    rows = len(first)
    if first.shape != (rows, machine.word_length) or second.shape != first.shape:
        raise ValueError(f"symbol matrices of shapes {first.shape} and {second.shape}")
    if eta.shape != (rows,):
        raise ValueError(f"eta has shape {eta.shape}, wanted ({rows},)")
    if not all(((s == 0) | (s == 1)).all() for s in (first, second)):
        raise ValueError("symbol matrices may only hold 0 (a) and 1 (b)")
    bad = np.flatnonzero(~(np.abs(eta) <= ETA_BOUND))
    if bad.size:
        raise ValueError(f"|eta| must be <= 1, got {abs(complex(eta[bad[0]]))}")

    alpha = 1.0 / math.sqrt(machine.word_length)
    slots = np.asarray(machine.slot_indices)
    cols = np.arange(machine.word_length)
    i1, i2 = slots[cols, first], slots[cols, second]
    row = np.broadcast_to(np.arange(rows)[:, None], first.shape)
    same = first == second
    amps = np.zeros((rows, machine.graph.num_ports), dtype=np.complex128)
    amps[row[same], i1[same]] = alpha
    differ = ~same
    if differ.any():
        a1 = np.zeros(rows, dtype=np.complex128)
        a1.real, a1.imag = alpha * eta.real, alpha * eta.imag
        # Python's abs and **: numpy's abs and square round some values differently
        a2 = np.array([alpha * math.sqrt(max(0.0, 1.0 - abs(e) ** 2)) for e in eta.tolist()])
        r = row[differ]
        amps[r, i1[differ]] += a1[r]
        amps[r, i2[differ]] += a2[r]
    norms = np.linalg.norm(amps, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_GUARD))
    if bad.size:
        _check_norm(amps[bad[0]])
    return amps
