import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklang import (
    CoinAssignment,
    PortGraph,
    WalkState,
    fidelity,
    jaro,
    reference_word,
    step,
)
from walklang import coins

from helpers import all_words, hadamard_line_coins, line_graph

words = st.text(alphabet="ab", min_size=1, max_size=10)


def brute_force_jaro(w1: str, w2: str) -> float:
    """Quadratic re-derivation used as an oracle for the library version."""
    window = max(max(len(w1), len(w2)) // 2 - 1, 0)
    matched_i, matched_j = [], []
    for i in range(len(w1)):
        for j in range(len(w2)):
            if j in matched_j or abs(i - j) > window or w1[i] != w2[j]:
                continue
            matched_i.append(i)
            matched_j.append(j)
            break
    s = len(matched_i)
    if s == 0:
        return 0.0
    seq1 = [w1[i] for i in sorted(matched_i)]
    seq2 = [w2[j] for j in sorted(matched_j)]
    t = sum(a != b for a, b in zip(seq1, seq2)) / 2
    return (s / len(w1) + s / len(w2) + (s - t) / s) / 3


@given(words)
def test_jaro_self_is_one(w):
    breakdown = jaro(w, w)
    assert breakdown.distance == 1.0
    assert breakdown.transpositions == 0.0


def test_jaro_disjoint_symbols():
    breakdown = jaro("aa", "bb")
    assert breakdown.matches == 0
    assert breakdown.distance == 0.0


def test_jaro_aabb_abab_breakdown():
    breakdown = jaro("aabb", "abab")
    assert breakdown.match_distance == 1
    assert breakdown.matches == 4
    assert breakdown.transpositions == 1.0
    assert breakdown.distance == pytest.approx(11 / 12, abs=1e-12)


def test_jaro_short_string_window_degenerates():
    # window 0 or below leaves only same-position matches
    assert jaro("a", "a").distance == 1.0
    assert jaro("a", "b").distance == 0.0
    assert jaro("ab", "ba").distance == 0.0
    assert jaro("ab", "ab").distance == 1.0


def test_jaro_rejects_empty():
    with pytest.raises(ValueError):
        jaro("", "ab")


@given(words, words)
def test_jaro_symmetric(w1, w2):
    assert jaro(w1, w2).distance == pytest.approx(jaro(w2, w1).distance, abs=1e-12)


@given(words, words)
def test_jaro_in_unit_interval(w1, w2):
    d = jaro(w1, w2).distance
    assert 0.0 <= d <= 1.0


@given(words, words)
@settings(max_examples=300)
def test_jaro_matches_brute_force(w1, w2):
    assert jaro(w1, w2).distance == pytest.approx(brute_force_jaro(w1, w2), abs=1e-12)


def test_jaro_brute_force_exhaustive_short():
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            for w1 in all_words(n1):
                for w2 in all_words(n2):
                    assert jaro(w1, w2).distance == pytest.approx(
                        brute_force_jaro(w1, w2), abs=1e-12
                    )


def test_reference_words():
    assert reference_word("eq", 4) == "aabb"
    assert reference_word("ab", 6) == "ababab"
    assert reference_word("eq", 5) == "aabb"
    assert reference_word("ab", 3) == "ab"
    with pytest.raises(ValueError):
        reference_word("eq", 1)
    with pytest.raises(ValueError):
        reference_word("zz", 4)


def two_port_state(x, y):
    return WalkState(PortGraph([(0, 1)]), np.array([x, y], dtype=complex))


def test_fidelity_basics():
    s = two_port_state(1, 0)
    assert fidelity(s, s) == 1.0
    t = two_port_state(0, 1)
    assert fidelity(WalkState(s.graph, s.amplitudes), WalkState(s.graph, t.amplitudes)) == 0.0


def test_fidelity_half():
    r = 1 / np.sqrt(2)
    a = two_port_state(1, 0)
    b = WalkState(a.graph, np.array([r, r]))
    assert fidelity(a, b) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_mismatched_bases():
    a = two_port_state(1, 0)
    g = line_graph(3)
    b = WalkState.from_basis(g, 0, 0)
    with pytest.raises(ValueError):
        fidelity(a, b)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_fidelity_invariant_under_walk_step(seed):
    g = line_graph(5)
    cs = hadamard_line_coins(g)
    rng = np.random.default_rng(seed)

    def random_state():
        amps = rng.normal(size=g.num_ports) + 1j * rng.normal(size=g.num_ports)
        return WalkState(g, amps / np.linalg.norm(amps))

    psi, phi = random_state(), random_state()
    before = fidelity(psi, phi)
    after = fidelity(step(psi, cs), step(phi, cs))
    assert after == pytest.approx(before, abs=1e-12)


def test_fidelity_rejects_a_nan_overlap():
    s = WalkState.from_basis(PortGraph([(0, 1)]), 0, 0)
    holds_nan = WalkState(s.graph, np.array([np.nan, 0.0]), _checked=True)
    with pytest.raises(ValueError, match="fidelity is nan"):
        fidelity(s, holds_nan)
