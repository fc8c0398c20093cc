"""String similarity and state fidelity metrics.

:func:`jaro` scores two words; :func:`fidelity` measures a batch of
amplitude rows against one reference state, one ``vdot`` per row.  The
Jaro score is a similarity: 1 means the words are equal, 0 that no
character matches.
"""

from __future__ import annotations

import numpy as np

from .walk import WalkState

__all__ = ["jaro", "fidelity"]


def jaro(w1: str, w2: str) -> float:
    """Jaro score of two non-empty strings.

    Characters match when they are the same symbol and their positions lie
    within ``max(max(|w1|, |w2|) // 2 - 1, 0)`` of each other; each
    character is consumed by at most one match, scanning left to right.
    For very short strings the window is zero, which leaves only
    same-position matches.
    """
    if not w1 or not w2:
        raise ValueError("jaro is undefined for empty strings")
    window = max(max(len(w1), len(w2)) // 2 - 1, 0)
    free: list[str | None] = list(w2)  # a matched symbol of w2 becomes None
    kept1 = []
    for i, ch in enumerate(w1):
        try:
            j = free.index(ch, max(0, i - window), i + window + 1)
        except ValueError:
            continue
        free[j] = None
        kept1.append(ch)
    s = len(kept1)
    if s == 0:
        return 0.0
    kept2 = [ch for ch, f in zip(w2, free) if f is None]
    t = sum(a != b for a, b in zip(kept1, kept2)) / 2.0
    return (s / len(w1) + s / len(w2) + (s - t) / s) / 3.0


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
