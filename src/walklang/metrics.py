"""String similarity and state fidelity metrics.

:func:`jaro` scores a batch of equal-length words against one reference
word; :func:`fidelity` measures a batch of amplitude rows against one
reference state, in one ``np.vecdot`` call.  The Jaro score is a similarity: 1
means the words are equal, 0 that no character matches.
"""

from __future__ import annotations

import numpy as np

from .walk import WalkState

__all__ = ["jaro", "fidelity"]

BLOCK = 512  # rows per transposition count, bounding its int64 indices and float64 weights


def jaro(words: str | list[str], reference: str) -> float | np.ndarray:
    """Jaro score of each word against a non-empty reference string.

    A ``str`` gives a ``float``; a list of non-empty words of one length, a ``(B,)``
    float64 array.  Characters match when they are the same code point within
    ``max(max(n, L) // 2 - 1, 0)`` positions (n, L the word and reference lengths), each
    reference character taken by at most one match, scanning each word left to right, once
    per run of neighbouring words with the same prefix, so that sorted words, as sweep's and
    verify's are, share the most.  Empty strings raise ``ValueError``, and so do words of
    mixed lengths.
    """
    if isinstance(words, str):
        return float(jaro([words], reference)[0])
    lengths = set(map(len, words))
    if len(lengths) > 1:
        raise ValueError(f"jaro scores words of one length, got lengths {sorted(lengths)}")
    (n,) = lengths or {1}
    if n == 0 or not reference:
        raise ValueError("jaro is undefined for empty strings")
    rows, size = len(words), len(reference)
    codes = np.frombuffer("".join(words).encode("utf-32-le"), dtype="<u4").reshape(rows, n)
    ref = np.frombuffer(reference.encode("utf-32-le"), dtype="<u4")
    near = np.abs(np.arange(n)[:, None] - np.arange(size)) <= max(max(n, size) // 2 - 1, 0)
    new = np.arange(rows) == 0  # the row starts a prefix of length i + 1
    group = np.zeros(rows, dtype=np.intp)  # each row's prefix, at first the empty one
    free = np.ones((1, size), dtype=bool)  # per prefix: reference characters not yet matched
    hit = np.empty((rows, n), dtype=bool)  # word characters matched
    for i in range(n):
        new[1:] |= codes[1:, i] != codes[:-1, i]
        heads = np.flatnonzero(new)
        free = free[group[heads]]  # a prefix starts from its parent's free row
        candidates = free & (codes[heads, i, None] == ref) & near[i]
        j = candidates.argmax(axis=1)  # the first free match, or 0 when there is none
        found = candidates.any(axis=1)
        free[found, j[found]] = False
        group = np.cumsum(new) - 1
        hit[:, i] = found[group]
    t = np.empty(rows)
    for lo in range(0, rows, BLOCK):
        h, taken = hit[lo : lo + BLOCK], ~free[group[lo : lo + BLOCK]]
        # boolean indexing lists the k-th matches of word and reference side by side
        swapped = codes[lo : lo + BLOCK][h] != np.broadcast_to(ref, taken.shape)[taken]
        t[lo : lo + BLOCK] = np.bincount(np.nonzero(h)[0], weights=swapped, minlength=len(h)) / 2
    s = hit.sum(axis=1, dtype=np.float64)
    # a row without matches has s = t = 0 and scores 0.0; dividing it by 1 keeps it finite
    score = (s / n + s / size + (s - t) / np.maximum(s, 1.0)) / 3.0
    return score


def fidelity(reference: WalkState, amplitudes: np.ndarray) -> np.ndarray:
    """``|<reference|row>|^2`` for every row of a ``(B, P)`` amplitude array.

    One ``np.vecdot`` over the rows copied to C-contiguous memory, where it
    rounds as a per-row ``np.vdot`` does (both BLAS ``zdotc``); each overlap
    is squared as a Python float, as numpy's square rounds some doubles
    differently.  Rounding can put a square a hair above 1, so it is capped
    at 1; a NaN, infinite or overflowing overlap, from a row that holds one,
    raises ``ValueError``.  The rows are not checked for norm.
    """
    rows = np.ascontiguousarray(amplitudes, dtype=np.complex128)
    ports = reference.graph.num_ports
    if rows.ndim != 2 or rows.shape[1] != ports:
        raise ValueError(f"amplitudes have shape {rows.shape}, reference has {ports} ports")
    # a non-finite overlap is reported below, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        overlaps = np.vecdot(reference.amplitudes, rows).tolist()
    try:
        out = np.array([abs(z) ** 2 for z in overlaps], dtype=np.float64)
    except OverflowError:
        raise ValueError("fidelity overflows: a row holds a huge amplitude") from None
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(
            f"fidelity is {out[bad[0]]} at row {bad[0]}: a row holds a non-finite amplitude"
        )
    return np.minimum(out, 1.0)
