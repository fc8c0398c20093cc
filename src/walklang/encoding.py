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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from .walk import WalkState

__all__ = [
    "ALPHABET",
    "check_word",
    "words_of_length",
    "enumerate_words",
    "QuantumInput",
    "spatial_initial_state",
    "sequential_initial_state",
    "initial_state",
    "quantum_initial_state",
]

ALPHABET = "ab"


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


@dataclass(frozen=True)
class QuantumInput:
    """Symbol-wise superposition of ``w1`` and ``w2`` with amplitude ratio eta.

    At positions where the words differ, ``w1``'s slot carries relative
    amplitude ``eta`` and ``w2``'s slot ``sqrt(1 - |eta|^2)``; eta = 1
    reproduces ``w1`` exactly and eta = 0 reproduces ``w2``.
    """

    w1: str
    w2: str
    eta: complex

    def __post_init__(self):
        check_word(self.w1)
        check_word(self.w2)
        if len(self.w1) != len(self.w2):
            raise ValueError(
                f"words must have equal length, got {len(self.w1)} and {len(self.w2)}"
            )
        if not abs(self.eta) <= 1 + 1e-12:
            raise ValueError(f"|eta| must be <= 1, got {abs(self.eta)}")


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
    check_word(word)
    return _load(machine, word, word, 1.0)


def quantum_initial_state(machine, qinput: QuantumInput) -> WalkState:
    """Load a symbol-wise superposition of two words.

    Matching positions are encoded classically; differing positions split
    their ``1/sqrt(n)`` amplitude between the two words' slots in the
    ratio eta to sqrt(1 - |eta|^2).
    """
    return _load(machine, qinput.w1, qinput.w2, complex(qinput.eta))


def _load(machine, w1: str, w2: str, eta: complex) -> WalkState:
    """The one input encoder, through the machine's a-slot/b-slot table."""
    n = len(w1)
    if n != machine.word_length:
        raise ValueError(
            f"machine expects words of length {machine.word_length}, got {n}"
        )
    alpha = 1.0 / math.sqrt(n)
    a1 = alpha * eta
    a2 = alpha * math.sqrt(max(0.0, 1.0 - abs(eta) ** 2))
    amps = np.zeros(machine.graph.num_ports, dtype=np.complex128)
    for (ia, ib), s1, s2 in zip(machine.slot_indices, w1, w2):
        i1 = ia if s1 == "a" else ib
        if s1 == s2:
            amps[i1] = alpha
        else:
            i2 = ia if s2 == "a" else ib
            amps[i1] += a1
            amps[i2] += a2
    return WalkState(machine.graph, amps)
