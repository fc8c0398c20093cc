"""Coined discrete-time quantum walks for formal-language acceptance."""

from .graph import PortGraph
from .coins import NonUnitaryError
from .walk import (
    CoinAssignment,
    WalkState,
    step,
    evolve,
    evolve_batch,
    vertex_probability,
    dense_step_matrix,
)
from .encoding import (
    enumerate_words,
    initial_state,
    quantum_initial_state,
    sequential_initial_state,
    spatial_initial_state,
)
from .machines import (
    Machine,
    acceptances,
    classify,
    empirical_error_margin,
    export_machine,
    machine_for_length,
    member_word,
    sequential_ab,
    sequential_eq,
    sequential_word,
    spatial_ab,
    spatial_eq,
    word_acceptance,
)
from .metrics import JaroBreakdown, fidelity, jaro

__version__ = "0.1.0"

__all__ = [
    "PortGraph",
    "NonUnitaryError",
    "CoinAssignment",
    "WalkState",
    "step",
    "evolve",
    "evolve_batch",
    "vertex_probability",
    "dense_step_matrix",
    "enumerate_words",
    "initial_state",
    "quantum_initial_state",
    "sequential_initial_state",
    "spatial_initial_state",
    "Machine",
    "acceptances",
    "classify",
    "empirical_error_margin",
    "export_machine",
    "machine_for_length",
    "member_word",
    "sequential_ab",
    "sequential_eq",
    "sequential_word",
    "spatial_ab",
    "spatial_eq",
    "word_acceptance",
    "JaroBreakdown",
    "fidelity",
    "jaro",
]
