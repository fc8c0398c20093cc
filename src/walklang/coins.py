"""Coin matrices for coined discrete-time quantum walks.

Every function returns a unitary ``numpy`` array of dtype complex128.
A coin of dimension d acts on the d port amplitudes of one vertex before
each shift.  Any block, built here or given by a caller, passes
:func:`unitarity_defect` <= 1e-12 when a ``CoinAssignment`` takes it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import _is_id

__all__ = [
    "NonUnitaryError",
    "unitarity_defect",
    "check_unitary",
    "hadamard",
    "grover",
    "pauli_x",
    "identity",
    "tensor",
    "permutation",
]

UNITARY_TOL = 1e-12
PANEL = 64


class NonUnitaryError(ValueError):
    """Raised when a matrix fails the unitarity check.

    The measured defect (max entry of ``|U†U - I|``) is stored on the
    ``defect`` attribute.
    """

    def __init__(self, defect: float, context: str = "matrix"):
        self.defect = defect
        super().__init__(f"{context} is not unitary (defect {defect:.3e})")


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max ``|U†U - I|`` over a ``(..., d, d)`` stack, formed ``PANEL`` rows at a time.

    ``U†U`` is Hermitian, so rows from ``lo`` start at column ``lo`` (d <= ``PANEL`` is one
    panel, the whole product); no temporary holds over ``PANEL * d`` entries per block.
    A NaN or inf entry, met by its conjugate on the diagonal, makes the defect NaN or inf."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise ValueError(f"expected a non-empty stack of square matrices, got shape {m.shape}")
    worst = []
    for lo in range(0, m.shape[-1], PANEL):
        rows = m[..., lo:lo + PANEL].conj().swapaxes(-1, -2) @ m[..., lo:]
        flat = rows.reshape(*rows.shape[:-2], -1)  # a view: the product is C-contiguous
        flat[..., ::rows.shape[-1] + 1] -= 1.0  # the diagonal: a strided view, no index array
        worst.append(np.max(np.abs(flat)))
    return float(np.max(worst))  # not max(), under which a NaN panel compares away


def check_unitary(matrix: np.ndarray, context: str) -> None:
    """Raise :class:`NonUnitaryError` unless ``matrix`` is unitary within 1e-12.

    The comparison is written so that a NaN defect (from NaN entries)
    fails it, as does an infinite one.
    """
    defect = unitarity_defect(matrix)
    if not defect <= UNITARY_TOL:
        raise NonUnitaryError(defect, context)


def hadamard() -> np.ndarray:
    """2x2 Hadamard coin, (1/sqrt 2) [[1, 1], [1, -1]]."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def grover(d: int) -> np.ndarray:
    """d-dimensional Grover diffusion coin.

    Entries are 2/d off the diagonal and (2-d)/d on it.  For even d it
    maps equal amplitude on any d/2 ports entirely onto the other d/2.
    ``grover(2)`` equals ``pauli_x()``; ``grover(1)`` is the 1x1 identity.
    """
    if d < 1:
        raise ValueError(f"Grover coin needs dimension >= 1, got {d}")
    return (2.0 / d) * np.ones((d, d), dtype=np.complex128) - np.eye(d)


def pauli_x() -> np.ndarray:
    """2x2 swap, [[0, 1], [1, 0]]."""
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def identity(d: int) -> np.ndarray:
    if d < 1:
        raise ValueError(f"identity coin needs dimension >= 1, got {d}")
    return np.eye(d, dtype=np.complex128)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two unitaries (e.g. pauli_x x hadamard)."""
    check_unitary(a, "left factor")
    check_unitary(b, "right factor")
    return np.kron(
        np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    )


def permutation(perm: Sequence[int]) -> np.ndarray:
    """Permutation coin sending port i to port ``perm[i]``."""
    d = len(perm)
    if d < 1:
        raise ValueError("permutation coin needs dimension >= 1, got 0")
    if not all(map(_is_id, perm)) or sorted(perm) != list(range(d)):
        raise ValueError(f"{list(perm)!r} is not a permutation of 0..{d - 1}")
    m = np.zeros((d, d), dtype=np.complex128)
    for i, j in enumerate(perm):
        m[j, i] = 1.0
    return m
