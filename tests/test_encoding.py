import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from walklang import encoding
from walklang.encoding import CHUNK, check_word, encode_chunks, symbols, words_of_length
from walklang.machines import FAMILIES, Machine, acceptances
from walklang.walk import CoinAssignment, Program

from helpers import all_words, diagonal, reference_load, slot_rows, spread

def amplitude(state, v: int, c: int) -> complex:
    return complex(state.amplitudes[state.graph.offset(v) + c])


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
    assert amplitude(state, a0, 0) == pytest.approx(r)
    assert amplitude(state, b1, 0) == pytest.approx(r)
    assert amplitude(state, b0, 0) == 0
    assert amplitude(state, a1, 0) == 0


def test_spatial_encoding_single_symbol():
    machine = machine_for_length("spatial-eq", 1)
    state = spatial_initial_state(machine, "a")
    a0, _ = machine.input_slots[0]
    assert amplitude(state, a0, 0) == 1.0


def test_spatial_encoding_all_b():
    machine = spatial_eq(1)
    state = spatial_initial_state(machine, "bb")
    r = 1 / np.sqrt(2)
    assert amplitude(state, machine.input_slots[0][1], 0) == pytest.approx(r)
    assert amplitude(state, machine.input_slots[1][1], 0) == pytest.approx(r)


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
        [amplitude(state, v1, c) for c in range(4)], [r, 0, 0, 0], atol=0
    )
    assert np.allclose(
        [amplitude(state, v2, c) for c in range(4)], [0, r, 0, 0], atol=0
    )


def test_sequential_encoding_single_and_mirror():
    machine = sequential_ab(1)
    state = sequential_initial_state(machine, "a")
    assert amplitude(state, machine.input_slots[0], 0) == 1.0

    machine2 = sequential_ab(2)
    ba = sequential_initial_state(machine2, "ba")
    r = 1 / np.sqrt(2)
    assert amplitude(ba, machine2.input_slots[0], 1) == pytest.approx(r)
    assert amplitude(ba, machine2.input_slots[1], 0) == pytest.approx(r)


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
    w1s, w2s, etas = zip(*rows)
    machine = machine_for_length(family, len(w1s[0]))
    # every drawn pair at every drawn eta; the drawn rows are the diagonal
    slots = slot_rows(machine, symbols(machine, w1s), symbols(machine, w2s),
                      etas=np.array(etas, dtype=np.complex128))
    assert slots.shape == (len(rows) ** 2, 2 * machine.word_length)
    got = spread(machine, slots)
    for k, (w, e) in enumerate(itertools.product(range(len(rows)), repeat=2)):
        load = reference_load(machine, w1s[w], w2s[w], etas[e])
        assert got[k].tobytes() == load.tobytes(), (w, e)
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
        slot_rows(machine, rows[:, :3], rows[:, :3], etas=[1.0])
    # a matrix of another rank, 0-d too, or a second one of another shape
    for first, second in ((rows[0, 0], rows[0, 0]), (rows[0], rows[0]), (rows[None], rows[None]),
                          (rows, rows[:1]), (rows, rows[:, :3])):
        with pytest.raises(ValueError, match="^symbol matrices of shapes "):
            slot_rows(machine, first, second, etas=[1.0])
    # etas of no dimension or of two, of any length
    for etas, shape in ((1.0, "()"), (np.ones(()), "()"), (np.ones((2, 1)), "(2, 1)"),
                        ([[0.5, 1.0]], "(1, 2)"), (np.ones((0, 3)), "(0, 3)")):
        message = f"symbol matrices of shapes (2, 4) and (2, 4), etas of shape {shape}"
        with pytest.raises(ValueError) as raised:
            next(encode_chunks(machine, rows, rows, etas=etas))
        assert str(raised.value) == message
    # etas only by name: a per-row eta vector given by position is refused
    with pytest.raises(TypeError):
        encode_chunks(machine, rows, rows, np.ones(2))
    with pytest.raises(ValueError, match="0 \\(a\\) and 1 \\(b\\)"):
        slot_rows(machine, rows, rows + 1, etas=[1.0])
    # a float 0.0 or 1.0 is no symbol either
    for floats in ((rows.astype(float), rows), (rows, rows.astype(np.float32))):
        with pytest.raises(ValueError, match="0 \\(a\\) and 1 \\(b\\)"):
            slot_rows(machine, *floats, etas=[1.0])
    # a bad eta anywhere, past the first chunk too, is refused before the first chunk
    for eta in (1.5, float("nan")):
        for etas in ([0.5, eta], [eta, 0.5], [0.5] * CHUNK + [eta]):
            with pytest.raises(ValueError, match=r"\|eta\| must be <= 1"):
                next(encode_chunks(machine, rows, rows[::-1], etas=np.array(etas)))


def test_encode_guards_the_norm_of_every_row(monkeypatch):
    graph = PortGraph([(0, 2), (1, 2), (3, 2), (4, 2)])
    machine = Machine(
        family="two-rails",
        coins=CoinAssignment.by_degree(graph, grover), input_slots=((0, 1), (3, 4)),
        accepting=frozenset({2}), rejecting=frozenset(), steps=1,
    )
    words = all_words(2)
    unforged = acceptances(machine, words)
    # a slot table forged after construction: both positions share their
    # rails, so "aa" and "bb" load one port twice
    object.__setattr__(machine, "slot_indices", ((0, 1), (0, 1)))
    assert np.linalg.norm(slot_rows(machine, *[symbols(machine, ["ab", "ba"])] * 2,
                                    etas=[1.0]), axis=1) == pytest.approx(1.0)
    # the machine's program was compiled from the real table, so its acceptances hold
    assert acceptances(machine, words).tobytes() == unforged.tobytes()
    # slot columns never share a port, so a program compiled from the forged table is refused
    with pytest.raises(ValueError, match="program inputs repeat port 0$"):
        Program(machine.coins, machine.steps, np.ravel(machine.slot_indices))
    # a state spread onto the ports writes the shared one twice and fails its norm check
    with pytest.raises(ValueError, match=r"not normalised \(norm 0\.7071067811865475\)"):
        initial_state(machine, "aa")
    with pytest.raises(ValueError, match=r"not normalised \(norm 0\.7071067811865475\)"):
        quantum_initial_state(machine, "ab", "bb", 0.6)
    # and the encoder refuses a row it computes with the wrong norm; the machine
    # is built first, since its build encodes its member word
    plain = spatial_eq(2)
    rows = symbols(plain, ["aabb", "abab"])
    monkeypatch.setattr(encoding, "math", SimpleNamespace(sqrt=lambda x: 2 * math.sqrt(x)))
    with pytest.raises(ValueError, match=r"not normalised \(norm 0\.5\)"):
        slot_rows(plain, rows, rows, etas=[1.0])
    # by checking its slot table before the first chunk of a grid of several
    grid = np.tile(rows, (CHUNK, 1))
    chunks = encode_chunks(plain, grid, grid, etas=[1.0])
    with pytest.raises(ValueError, match=r"not normalised \(norm 0\.5\)"):
        next(chunks)
    assert list(chunks) == []


@given(
    st.sampled_from(FAMILIES),
    st.integers(1, 8).flatmap(lambda n: st.lists(
        st.tuples(st.text("ab", min_size=n, max_size=n),
                  st.text("ab", min_size=n, max_size=n), etas),
        min_size=1, max_size=30)),
)
@settings(max_examples=100, deadline=None)
def test_encode_chunks_are_encode_cut_into_rows(family, rows):
    w1s, w2s, etas = zip(*rows)
    machine = machine_for_length(family, len(w1s[0]))
    # the same eta given twice, once with a negative zero, loads the same bits
    w1s, w2s = [*w1s, w1s[0]], [*w2s, w2s[0]]
    etas = np.array([*etas, complex(-0.0, etas[0].imag)], dtype=np.complex128)
    first, second = symbols(machine, w1s), symbols(machine, w2s)
    # loads[w, e]: pair w at eta e; the drawn rows are the diagonal
    loads = np.array([[reference_load(machine, w1s[w], w2s[w], eta) for eta in etas]
                      for w in range(len(w1s))])
    # the drawn pairs tiled to one pair, both sides of one chunk, and two chunks' worth,
    # each pair at every eta
    for total in (1, 63, 64, 65, 130):
        pick = np.arange(total) % len(w1s)
        chunks = list(encode_chunks(machine, first[pick], second[pick], etas=etas))
        assert [len(c) for c in chunks[:-1]] == [CHUNK] * (len(chunks) - 1)
        assert len(chunks) == -(-total * len(etas) // CHUNK)
        ports = spread(machine, np.concatenate(chunks))
        assert ports.tobytes() == loads[pick].reshape(len(ports), -1).tobytes(), total


def test_encode_of_no_rows_is_empty():
    machine = spatial_eq(2)
    none, rows = symbols(machine, []), symbols(machine, ["aabb", "abab"])
    # no pairs, no etas, or neither: one empty chunk, with no division by zero
    for first, etas in ((none, [1.0]), (rows, []), (none, [])):
        assert slot_rows(machine, first, first, etas=etas).shape == (0, 2 * machine.word_length)
        [chunk] = encode_chunks(machine, first, first, etas=etas)
        assert chunk.shape == (0, 8)


# unit-modulus etas, whose second-word weight is 0 or rounds near it
unit_etas = st.floats(0.0, 2 * math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))


@given(
    st.sampled_from(FAMILIES), st.integers(1, 8), st.integers(0, 150),
    st.lists(st.one_of(etas, unit_etas), max_size=97), st.integers(0, 2**32 - 1),
)
# W * E at 0, below, on and above one or several chunks
@example("seq-eq", 4, 150, [], 0)
@example("spatial-eq", 3, 0, [0.5] * 97, 1)
@example("seq-ab", 2, 9, [0.5, 1j, -1.0, 0.0, 0.3, 0.2, 0.1], 2)
@example("spatial-ab", 5, 64, [-1j], 3)
@example("seq-eq", 6, 13, [1.0, 0.6, 0.8j, -0.0], 4)
@example("spatial-eq", 8, 150, [0.5, 0.8040251668887082, 1j] * 32 + [1.0], 5)
@settings(max_examples=60, deadline=None)
def test_encode_chunks_are_the_product_of_pairs_and_etas(family, n, pairs, drawn, seed):
    machine = machine_for_length(family, n)
    rng = np.random.default_rng(seed)
    first, second = (rng.integers(0, 2, (pairs, n), dtype=np.uint8) for _ in range(2))
    w1s, w2s = (["".join("ab"[s] for s in row) for row in m] for m in (first, second))
    # every third eta once more, so that etas repeat
    etas = np.array([*drawn, *drawn[::3]], dtype=np.complex128)
    chunks = list(encode_chunks(machine, first, second, etas=etas))
    rows = pairs * len(etas)
    assert len(chunks) == max(1, -(-rows // CHUNK))
    assert [len(c) for c in chunks[:-1]] == [CHUNK] * (len(chunks) - 1)
    assert chunks[-1].shape == (rows - CHUNK * (len(chunks) - 1), 2 * n)
    ports = spread(machine, np.concatenate(chunks))
    for r in range(rows):
        w, e = divmod(r, len(etas))
        load = reference_load(machine, w1s[w], w2s[w], etas[e])
        assert ports[r].tobytes() == load.tobytes(), (w, e)


def test_encode_memory_does_not_grow_with_the_grid():
    # seq-eq n = 8: its member against the 255 other words, as qinput reads them
    machine = machine_for_length("seq-eq", 8)
    second = symbols(machine, [w for w in words_of_length(8) if w != machine.member])
    first = np.broadcast_to(symbols(machine, [machine.member]), second.shape)
    peaks = []
    for points in (11, 1001):
        etas = np.linspace(0.0, 1.0, points)
        tracemalloc.start()
        for _ in encode_chunks(machine, first, second, etas=etas):
            pass
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # the slot table grows with E; the 255 * E rows are never held at once
    assert peaks[1] - peaks[0] < 512 * (1001 - 11), peaks


def port_rows(machine, first, second, eta) -> np.ndarray:
    """The ``(rows, P)`` rows the encoder gave before it wrote slot columns, the same code."""
    alpha = 1.0 / math.sqrt(machine.word_length)
    values, which = np.unique(np.asarray(eta, dtype=np.complex128), return_inverse=True)
    weight1 = alpha * values
    weight2 = np.array([alpha * math.sqrt(max(0.0, 1.0 - abs(e) ** 2)) for e in values.tolist()])
    slots, k, same = np.asarray(machine.slot_indices), which[:, None], first == second
    cols, r = np.arange(machine.word_length), np.arange(len(first))[:, None]
    amps = np.zeros((len(first), machine.graph.num_ports), dtype=np.complex128)
    amps[r, slots[cols, first]] += np.where(same, alpha, weight1[k])
    amps[r, slots[cols, second]] += np.where(same, 0.0, weight2[k])
    return amps


@pytest.mark.parametrize("family", FAMILIES)
def test_slot_rows_spread_onto_the_ports_are_the_port_rows_bit_for_bit(family):
    rng = np.random.default_rng(20 + sorted(FAMILIES).index(family))
    for n in range(1, 9):
        machine = machine_for_length(family, n)
        words = all_words(n)
        w1s = [words[i] for i in rng.integers(len(words), size=130)]
        w2s = [words[i] for i in rng.integers(len(words), size=130)]
        etas = np.exp(2j * np.pi * rng.random(130)) * rng.random(130)
        etas[:4] = (1.0, 0.0, -0.0, -1.0)
        first, second = symbols(machine, w1s), symbols(machine, w2s)
        # one pair at one eta, both sides of one chunk's pairs, and two chunks' worth,
        # each pair at each of as many etas; pair k at eta k is on the diagonal
        for rows in (1, 63, 64, 65, 130):
            slots = slot_rows(machine, first[:rows], second[:rows], etas=etas[:rows])
            expected = port_rows(machine, np.repeat(first[:rows], rows, axis=0),
                                 np.repeat(second[:rows], rows, axis=0), np.tile(etas[:rows], rows))
            assert spread(machine, slots).tobytes() == expected.tobytes(), (n, rows)
            assert slots.tobytes() == expected[:, np.ravel(machine.slot_indices)].tobytes()
            for k in (0, rows - 1):
                load = reference_load(machine, w1s[k], w2s[k], etas[k])
                assert expected[diagonal(rows)[k]].tobytes() == load.tobytes(), (n, rows, k)
