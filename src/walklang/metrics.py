"""String similarity and state fidelity metrics.

:func:`jaro` scores two words; :func:`fidelity` measures a batch of
amplitude rows against one reference state, one ``vdot`` per row.

Naming warning: the Jaro score computed here is conventionally called the
Jaro *distance* although it is a similarity, with 1 meaning the strings
are equal and 0 meaning no character matches at all.  The ``distance``
field of :class:`JaroBreakdown` follows that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .walk import WalkState

__all__ = ["JaroBreakdown", "jaro", "fidelity"]


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


def fidelity(reference: WalkState, amplitudes: np.ndarray) -> np.ndarray:
    """``|<reference|row>|^2`` for every row of a ``(B, P)`` amplitude array.

    Each row is copied to contiguous memory first (``vdot`` rounds a strided
    row differently, and :func:`~walklang.walk.evolve_batch` leaves its rows
    strided), and its overlap is squared as a Python float, as numpy's square
    rounds some doubles differently.  Rounding can put a square a hair above
    1, so it is capped at 1; a NaN, infinite or overflowing overlap, from a
    row that holds one, raises ``ValueError``.  The rows are not checked
    for norm.
    """
    rows = np.asarray(amplitudes, dtype=np.complex128)
    ports = reference.graph.num_ports
    if rows.ndim != 2 or rows.shape[1] != ports:
        raise ValueError(f"amplitudes have shape {rows.shape}, reference has {ports} ports")
    ref = reference.amplitudes
    try:
        out = np.array([abs(complex(np.vdot(ref, row))) ** 2
                        for row in np.ascontiguousarray(rows)], dtype=np.float64)
    except OverflowError:
        raise ValueError("fidelity overflows: a row holds a huge amplitude") from None
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(
            f"fidelity is {out[bad[0]]} at row {bad[0]}: a row holds a non-finite amplitude"
        )
    return np.minimum(out, 1.0)
