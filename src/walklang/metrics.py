"""String similarity and state fidelity metrics.

Naming warning: the Jaro score computed here is conventionally called the
Jaro *distance* although it is a similarity, with 1 meaning the strings
are equal and 0 meaning no character matches at all.  The ``distance``
field of :class:`JaroBreakdown` follows that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import WalkState, inner_product

__all__ = ["JaroBreakdown", "jaro", "reference_word", "fidelity"]


@dataclass(frozen=True)
class JaroBreakdown:
    """Jaro score together with its intermediate quantities.

    match_distance: window half-width, floor(max(|w1|, |w2|) / 2) - 1.
    matches: number of matched characters.
    transpositions: half the count of matched positions whose order differs.
    distance: the Jaro score in [0, 1] (a similarity; see module note).
    """

    match_distance: int
    matches: int
    transpositions: float
    distance: float


def jaro(w1: str, w2: str) -> JaroBreakdown:
    """Jaro score of two non-empty strings.

    Characters match when they are the same symbol and their positions lie
    within the match window of each other; each character is consumed by
    at most one match, scanning left to right.  For very short strings the
    window can reach zero, which leaves only same-position matches.
    """
    if not w1 or not w2:
        raise ValueError("jaro is undefined for empty strings")
    window = max(len(w1), len(w2)) // 2 - 1
    effective = max(window, 0)

    used2 = [False] * len(w2)
    matched1: list[int] = []
    for i, ch in enumerate(w1):
        lo = max(0, i - effective)
        hi = min(len(w2), i + effective + 1)
        for j in range(lo, hi):
            if not used2[j] and w2[j] == ch:
                used2[j] = True
                matched1.append(i)
                break

    s = len(matched1)
    if s == 0:
        return JaroBreakdown(window, 0, 0.0, 0.0)

    kept1 = [w1[i] for i in matched1]
    kept2 = [w2[j] for j, used in enumerate(used2) if used]
    differing = sum(1 for a, b in zip(kept1, kept2) if a != b)
    t = differing / 2.0
    d = (s / len(w1) + s / len(w2) + (s - t) / s) / 3.0
    return JaroBreakdown(window, s, t, d)


def reference_word(language: str, n: int) -> str:
    """The unique member word of length n (or n - 1 when n is odd).

    ``language`` is ``"eq"`` for the equal-run words a^m b^m or ``"ab"``
    for the alternating words (ab)^m.  Odd lengths have no member, so they
    are compared against the member one symbol shorter.
    """
    if language not in ("eq", "ab"):
        raise ValueError(f"unknown language {language!r}, expected 'eq' or 'ab'")
    if n < 2:
        raise ValueError(f"no reference word for length {n}")
    even = n if n % 2 == 0 else n - 1
    m = even // 2
    return "a" * m + "b" * m if language == "eq" else "ab" * m


def fidelity(s1: WalkState, s2: WalkState) -> float:
    """|<s1|s2>|^2 for two normalised states on the same basis.

    Rounding can put the square a hair above 1, so it is capped at 1; a NaN
    or infinite overlap, from a state that holds one, raises ``ValueError``.
    """
    f = abs(inner_product(s1, s2)) ** 2
    if not math.isfinite(f):
        raise ValueError(f"fidelity is {f}: a state holds a non-finite amplitude")
    return float(min(1.0, f))
