import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklang import (
    enumerate_words,
    initial_state,
    machine_for_length,
    quantum_initial_state,
    sequential_ab,
    sequential_initial_state,
    spatial_eq,
    spatial_initial_state,
)
from walklang import PortGraph
from walklang.coins import grover
from walklang.encoding import check_word, encode, symbols, words_of_length
from walklang.machines import FAMILIES, Machine, acceptances
from walklang.walk import CoinAssignment

from helpers import all_words, reference_load

words = st.integers(1, 6).flatmap(
    lambda n: st.text(alphabet="ab", min_size=n, max_size=n)
)


def test_check_word_rejects_bad_symbols():
    with pytest.raises(ValueError):
        check_word("abc")
    with pytest.raises(ValueError):
        check_word("")


def test_enumeration_order():
    assert list(enumerate_words(2)) == ["a", "b", "aa", "ab", "ba", "bb"]


def test_enumeration_count_to_length_16():
    count = sum(1 for _ in enumerate_words(16))
    assert count == 2**17 - 2 == 131070


def test_ab_is_fourth_word():
    index = {w: i for i, w in enumerate(enumerate_words(2), start=1)}
    assert index["ab"] == 4


def test_spatial_encoding_places_rail_amplitudes():
    machine = spatial_eq(1)
    state = spatial_initial_state(machine, "ab")
    r = 1 / np.sqrt(2)
    a0, b0 = machine.input_slots[0]
    a1, b1 = machine.input_slots[1]
    assert state.amplitude(a0, 0) == pytest.approx(r)
    assert state.amplitude(b1, 0) == pytest.approx(r)
    assert state.amplitude(b0, 0) == 0
    assert state.amplitude(a1, 0) == 0


def test_spatial_encoding_single_symbol():
    machine = machine_for_length("spatial-eq", 1)
    state = spatial_initial_state(machine, "a")
    a0, _ = machine.input_slots[0]
    assert state.amplitude(a0, 0) == 1.0


def test_spatial_encoding_all_b():
    machine = spatial_eq(1)
    state = spatial_initial_state(machine, "bb")
    r = 1 / np.sqrt(2)
    assert state.amplitude(machine.input_slots[0][1], 0) == pytest.approx(r)
    assert state.amplitude(machine.input_slots[1][1], 0) == pytest.approx(r)


@given(words)
@settings(max_examples=40, deadline=None)
def test_spatial_encoding_support_and_norm(word):
    machine = machine_for_length("spatial-eq", len(word))
    state = spatial_initial_state(machine, word)
    assert np.count_nonzero(state.amplitudes) == len(word)
    assert abs(state.norm() - 1.0) < 1e-12
    input_vertices = {v for slot in machine.input_slots for v in slot}
    nz = np.flatnonzero(state.amplitudes)
    for idx in nz:
        owner = max(v for v in machine.graph.vertices if machine.graph.offset(v) <= idx)
        assert owner in input_vertices


def test_sequential_encoding_port_vectors():
    machine = sequential_ab(2)
    state = sequential_initial_state(machine, "ab")
    r = 1 / np.sqrt(2)
    v1, v2 = machine.input_slots
    assert np.allclose(
        [state.amplitude(v1, c) for c in range(4)], [r, 0, 0, 0], atol=0
    )
    assert np.allclose(
        [state.amplitude(v2, c) for c in range(4)], [0, r, 0, 0], atol=0
    )


def test_sequential_encoding_single_and_mirror():
    machine = sequential_ab(1)
    state = sequential_initial_state(machine, "a")
    assert state.amplitude(machine.input_slots[0], 0) == 1.0

    machine2 = sequential_ab(2)
    ba = sequential_initial_state(machine2, "ba")
    r = 1 / np.sqrt(2)
    assert ba.amplitude(machine2.input_slots[0], 1) == pytest.approx(r)
    assert ba.amplitude(machine2.input_slots[1], 0) == pytest.approx(r)


def test_encoding_rejects_wrong_kind_and_length():
    machine = spatial_eq(1)
    with pytest.raises(ValueError, match="length"):
        spatial_initial_state(machine, "aabb")
    with pytest.raises(ValueError, match="spatial"):
        sequential_initial_state(machine, "ab")


def test_quantum_input_validation():
    machine = spatial_eq(1)
    for w1, w2 in (("ab", "a"), ("a", "ab")):
        with pytest.raises(ValueError, match="machine expects words of length 2, got 1"):
            quantum_initial_state(machine, w1, w2, 0.5)
    with pytest.raises(ValueError, match="symbols outside"):
        quantum_initial_state(machine, "ab", "bc", 0.5)
    with pytest.raises(ValueError, match="eta"):
        quantum_initial_state(machine, "ab", "ba", 1.5)


@pytest.mark.parametrize("kind,builder", [
    ("spatial", lambda: spatial_eq(2)),
    ("sequential", lambda: sequential_ab(4)),
])
def test_quantum_input_limits_match_classical(kind, builder):
    machine = builder()
    for w1, w2 in itertools.permutations(["aabb", "abba", "bbaa"], 2):
        at_one = quantum_initial_state(machine, w1, w2, 1.0)
        assert np.array_equal(at_one.amplitudes, initial_state(machine, w1).amplitudes)
        at_zero = quantum_initial_state(machine, w1, w2, 0.0)
        assert np.array_equal(at_zero.amplitudes, initial_state(machine, w2).amplitudes)


def test_quantum_input_splits_differing_slots():
    machine = spatial_eq(2)
    eta = 1 / np.sqrt(2)
    state = quantum_initial_state(machine, "aabb", "bbaa", eta)
    assert abs(state.norm() - 1.0) < 1e-12
    expected = 0.5 * eta
    for k, (s1, s2) in enumerate(zip("aabb", "bbaa")):
        ia, ib = machine.slot_indices[k]
        i1 = ia if s1 == "a" else ib
        i2 = ia if s2 == "a" else ib
        assert state.amplitudes[i1] == pytest.approx(expected)
        assert state.amplitudes[i2] == pytest.approx(expected)


@given(st.floats(0, 1), words)
@settings(max_examples=40, deadline=None)
def test_quantum_input_norm(eta, w1):
    w2 = "".join("ab"[c == "a"] for c in w1)  # complement, all slots differ
    machine = machine_for_length("seq-ab", len(w1))
    state = quantum_initial_state(machine, w1, w2, complex(eta))
    assert abs(state.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("n", range(1, 11))
def test_words_of_length_is_the_lexicographic_table(n):
    assert words_of_length(n) == all_words(n)


@pytest.mark.parametrize("k", range(1, 8))
def test_enumerate_words_concatenates_words_of_length(k):
    assert list(enumerate_words(k)) == [w for n in range(1, k + 1) for w in all_words(n)]


def test_quantum_input_rejects_nan_eta():
    with pytest.raises(ValueError, match="eta"):
        quantum_initial_state(spatial_eq(1), "ab", "ba", float("nan"))


# 0.8040251668887082 ** 2 rounds differently from numpy's square of it
etas = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1j, -1j, 1 + 1e-13, 0.8040251668887082]),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)


@given(
    st.sampled_from(FAMILIES),
    st.integers(1, 8).flatmap(lambda n: st.lists(
        st.tuples(st.text("ab", min_size=n, max_size=n),
                  st.text("ab", min_size=n, max_size=n), etas),
        min_size=1, max_size=9)),
)
@settings(max_examples=150, deadline=None)
def test_encode_matches_the_per_word_loop_bit_for_bit(family, rows):
    w1s, w2s, eta = zip(*rows)
    machine = machine_for_length(family, len(w1s[0]))
    got = encode(machine, symbols(machine, w1s), symbols(machine, w2s),
                 np.array(eta, dtype=np.complex128))
    for k, row in enumerate(rows):
        assert got[k].tobytes() == reference_load(machine, *row).tobytes()
    single = quantum_initial_state(machine, *rows[0])
    assert single.amplitudes.tobytes() == got[0].tobytes()
    classical = initial_state(machine, w1s[0])
    assert classical.amplitudes.tobytes() == reference_load(machine, w1s[0], w1s[0], 1.0).tobytes()


@pytest.mark.parametrize("bad,message", [
    ("", "word must be non-empty"),
    ("abca", "word 'abca' uses symbols outside {a, b}: ['c']"),
    ("ab\udcffb", "word 'ab\\udcffb' uses symbols outside {a, b}: ['\\udcff']"),
    ("aab", "machine expects words of length 4, got 3"),
    ("aabab", "machine expects words of length 4, got 5"),
])
def test_symbols_raise_the_first_bad_words_error(bad, message):
    machine = spatial_eq(2)
    with pytest.raises(ValueError) as single:
        initial_state(machine, bad)
    with pytest.raises(ValueError) as batch:
        symbols(machine, ["abab", bad, "ab", "c"])
    with pytest.raises(ValueError) as accepted:
        acceptances(machine, ["aabb", bad, "abc"])
    assert str(single.value) == str(batch.value) == str(accepted.value) == message


def test_encode_rejects_bad_arguments():
    machine = spatial_eq(2)
    rows = symbols(machine, ["aabb", "abab"])
    with pytest.raises(ValueError, match="length 4, got 3"):
        encode(machine, rows[:, :3], rows[:, :3], np.ones(2))
    with pytest.raises(ValueError, match="eta has shape"):
        encode(machine, rows, rows, np.ones(3))
    with pytest.raises(ValueError, match="0 \\(a\\) and 1 \\(b\\)"):
        encode(machine, rows, rows + 1, np.ones(2))
    for eta in (1.5, float("nan")):
        with pytest.raises(ValueError, match=r"\|eta\| must be <= 1"):
            encode(machine, rows, rows[::-1], np.array([0.5, eta]))


def test_encode_guards_the_norm_of_every_row():
    graph = PortGraph([(0, 2), (1, 2), (3, 2), (4, 2)])
    machine = Machine(
        family="two-rails", kind="spatial",
        coins=CoinAssignment.by_degree(graph, grover), input_slots=((0, 1), (3, 4)),
        accepting=frozenset({2}), rejecting=frozenset(), steps=1,
    )
    # a slot table forged past the constructor's check: both positions share
    # their rails, so "aa" and "bb" load one slot twice
    object.__setattr__(machine, "slot_indices", ((0, 1), (0, 1)))
    assert np.linalg.norm(encode(machine, *[symbols(machine, ["ab", "ba"])] * 2,
                                 np.ones(2)), axis=1) == pytest.approx(1.0)
    rows = symbols(machine, ["ab", "bb"])
    with pytest.raises(ValueError, match=r"not normalised \(norm 0\.7071067811865475\)"):
        encode(machine, rows, rows, np.ones(2))
    with pytest.raises(ValueError, match=r"not normalised \(norm 0\.7071067811865475\)"):
        initial_state(machine, "aa")
