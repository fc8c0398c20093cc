import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklang import (
    PortGraph,
    WalkState,
    encoding,
    evolve,
    fidelity,
    jaro,
    machine_for_length,
    step,
)
from walklang import coins
from walklang.encoding import CHUNK
from walklang.machines import FAMILIES, final_amplitudes, member_word
from walklang.walk import Program

from helpers import (
    all_words,
    basis_state,
    hadamard_line_coins,
    line_graph,
    reference_fidelity,
    reference_jaro,
    slot_rows,
    spread,
)

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
    assert jaro(w, w) == 1.0


def test_jaro_disjoint_symbols():
    assert jaro("aa", "bb") == 0.0


def test_jaro_aabb_abab_score():
    score = jaro("aabb", "abab")
    assert type(score) is float
    # window 1: all four symbols match, and the two middle ones are transposed
    assert score == (4 / 4 + 4 / 4 + (4 - 1.0) / 4) / 3.0
    assert score == pytest.approx(11 / 12, abs=1e-12)


def test_jaro_short_string_window_degenerates():
    # window 0 or below leaves only same-position matches
    assert jaro("a", "a") == 1.0
    assert jaro("a", "b") == 0.0
    assert jaro("ab", "ba") == 0.0
    assert jaro("ab", "ab") == 1.0


def test_jaro_rejects_empty():
    for words, reference in [("", "ab"), ([""], "ab"), ("ab", ""), (["ab"], "")]:
        with pytest.raises(ValueError, match="empty"):
            jaro(words, reference)


def test_jaro_rejects_words_of_mixed_lengths():
    for words in (["ab", "a"], ["a", "ab"], ["ab", "", "ab"]):
        with pytest.raises(ValueError, match="one length"):
            jaro(words, "ab")


@given(words, words)
def test_jaro_symmetric(w1, w2):
    assert jaro(w1, w2) == jaro(w2, w1)


@given(words, words)
def test_jaro_in_unit_interval(w1, w2):
    d = jaro(w1, w2)
    assert 0.0 <= d <= 1.0


@given(words, words)
@settings(max_examples=300)
def test_jaro_matches_brute_force(w1, w2):
    assert jaro(w1, w2) == brute_force_jaro(w1, w2)


def test_jaro_brute_force_exhaustive_short():
    pairs = 0
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            for w2 in all_words(n2):
                got = jaro(all_words(n1), w2).tolist()
                assert got == [brute_force_jaro(w1, w2) for w1 in all_words(n1)]
                pairs += len(got)
    assert pairs == 30 ** 2


def bits(scores):
    return np.asarray(scores, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("n", range(2, 13))
def test_jaro_batch_matches_each_row_for_every_sweep_reference(n):
    # as in sweep, odd n compare against the member one symbol shorter; families
    # that share a member word share one check; from n = 7 the rows pass row CHUNK
    words = all_words(n)
    for reference in sorted({member_word(f, n - n % 2) for f in FAMILIES}):
        batch = jaro(words, reference)
        assert batch.dtype == np.float64 and batch.shape == (len(words),)
        one_row = [jaro(w, reference) for w in words]
        assert all(type(score) is float for score in one_row)
        assert np.array_equal(bits(batch), bits(one_row))
        assert np.array_equal(bits(batch), bits([brute_force_jaro(w, reference) for w in words]))


@pytest.mark.parametrize("n", range(2, 15))
def test_jaro_of_a_whole_length_equals_the_chunked_oracle(n):
    # sweep's one call per length against the oracle in sweep's old 64-row chunks;
    # length 1 has no sweep reference
    words = encoding.words_of_length(n)
    for reference in sorted({member_word(f, n - n % 2) for f in FAMILIES}):
        chunked = np.concatenate([reference_jaro(words[lo : lo + 64], reference)
                                  for lo in range(0, len(words), 64)])
        assert jaro(words, reference).tobytes() == chunked.tobytes()


# a non-BMP code point takes two UTF-16 units but one UTF-32 code
ALPHABET = "ab\U0001d11e"


@st.composite
def unsorted_word_lists(draw):
    n = draw(st.integers(1, 7))
    pool = draw(st.lists(st.text(ALPHABET, min_size=n, max_size=n), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))


@given(unsorted_word_lists(), st.text(ALPHABET + "c", min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_jaro_of_unsorted_lists_with_duplicates_matches_brute_force(words, reference):
    expected = [brute_force_jaro(w, reference) for w in words]
    assert jaro(words, reference).tobytes() == np.array(expected).tobytes()


def test_jaro_memory_is_bounded_at_the_longest_sweep_length():
    # one call scores all 2^16 words; unblocked, the transposition count alone peaked at 53 MB
    words, reference = encoding.words_of_length(16), member_word("seq-eq", 16)
    tracemalloc.start()
    try:
        jaro(words, reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_jaro_scores_any_code_points():
    assert jaro("MARTHA", "MARHTA") == (1 + 1 + 5 / 6) / 3
    assert jaro(["MARTHA", "MARHTA"], "MARTHA").tolist() == [1.0, (1 + 1 + 5 / 6) / 3]


def two_port_state(x, y):
    return WalkState(PortGraph([(0, 1)]), np.array([x, y], dtype=complex))


def rows(*states):
    return np.array([s.amplitudes for s in states])


def test_fidelity_basics():
    s = two_port_state(1, 0)
    assert fidelity(s, rows(s)).tolist() == [1.0]
    t = two_port_state(0, 1)
    assert fidelity(WalkState(s.graph, s.amplitudes), rows(t)).tolist() == [0.0]
    assert fidelity(s, rows(t, s, t)).tolist() == [0.0, 1.0, 0.0]
    assert fidelity(s, np.empty((0, 2))).shape == (0,)


def test_fidelity_half():
    r = 1 / np.sqrt(2)
    a = two_port_state(1, 0)
    b = WalkState(a.graph, np.array([r, r]))
    assert fidelity(a, rows(b))[0] == pytest.approx(0.5, abs=1e-12)


def test_fidelity_of_basis_and_hadamard_rows():
    g = PortGraph([(0, 1)])
    a = basis_state(g, 0, 0)
    b = basis_state(g, 1, 0)
    assert fidelity(a, rows(a, b)).tolist() == [pytest.approx(1.0), 0.0]
    h = coins.hadamard()
    c = WalkState(g, h @ np.array([1, 0]))
    d = WalkState(g, h @ np.array([0, 1]))
    assert fidelity(c, rows(d))[0] < 1e-30


def test_fidelity_mismatched_bases():
    a = two_port_state(1, 0)
    g = line_graph(3)
    b = basis_state(g, 0, 0)
    with pytest.raises(ValueError, match=r"shape \(1, 4\), reference has 2 ports"):
        fidelity(a, rows(b))
    with pytest.raises(ValueError, match=r"shape \(2,\), reference has 2 ports"):
        fidelity(a, a.amplitudes)


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
    before = fidelity(psi, rows(phi))[0]
    after = fidelity(step(psi, cs), rows(step(phi, cs)))[0]
    assert after == pytest.approx(before, abs=1e-12)


def test_fidelity_rejects_a_nan_overlap():
    s = basis_state(PortGraph([(0, 1)]), 0, 0)
    holds_nan = np.array([[1.0, 0.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="fidelity is nan at row 1"):
        fidelity(s, holds_nan)
    with pytest.raises(ValueError, match="at row 0: a row holds a non-finite amplitude"):
        fidelity(s, np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError, match="fidelity overflows"):
        fidelity(s, np.array([[0.5, 0.0], [1e200, 0.0]]))


def test_fidelity_matches_the_per_row_oracle_on_batch_rows():
    # qinput's rows for aaabbb on spatial-eq: 63 words times 11 etas
    machine = machine_for_length("spatial-eq", 6)
    base = "aaabbb"
    reference = evolve(encoding.initial_state(machine, base), machine.coins, machine.steps)
    others = [w for w in encoding.words_of_length(6) if w != base]
    second = encoding.symbols(machine, others)
    first = np.broadcast_to(encoding.symbols(machine, [base]), second.shape)
    etas = np.linspace(0.0, 1.0, 11)
    amps = spread(machine, slot_rows(machine, first, second, etas=etas))
    assert len(amps) == len(others) * 11
    every = np.arange(machine.graph.num_ports)
    final = Program(machine.coins, machine.steps, every)(amps)
    assert final.flags.c_contiguous
    # the same rows, strided
    final = np.asfortranarray(final)
    assert final.flags.f_contiguous and not final.flags.c_contiguous
    expected = reference_fidelity(reference, final)
    assert np.array_equal(fidelity(reference, final), expected)
    # chunk by chunk, across every CHUNK-row boundary, the same values
    chunks = [fidelity(reference, f) for f in final_amplitudes(machine, first, second, etas=etas)]
    assert len(chunks) == -(-len(final) // CHUNK) > 1
    assert np.array_equal(np.concatenate(chunks), expected)
    # the eta = 1 rows reproduce the base word, whose overlap squares above 1
    ref = reference.amplitudes
    square = abs(complex(np.vdot(ref, ref))) ** 2
    assert square > 1.0
    assert fidelity(reference, final[10::11]).tolist() == [square] * len(others)
    # a strided row may round differently; the contiguous copy is what is measured
    strided = [abs(complex(np.vdot(ref, row))) ** 2 for row in final]
    assert not np.array_equal(strided, expected)
    holds_nan = np.array(final)
    holds_nan[CHUNK, 0] = np.nan
    with pytest.raises(ValueError, match=f"fidelity is nan at row {CHUNK}"):
        fidelity(reference, holds_nan)


@given(st.sampled_from([2, 8, 16, 38, 64, 138, 1000]), st.integers(0, 40),
       st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_fidelity_equals_a_per_row_vdot_loop_bit_for_bit(ports, rows, seed, strided):
    rng = np.random.default_rng(seed)
    graph = PortGraph([(0, 1)] * (ports // 2))
    ref = rng.normal(size=ports) + 1j * rng.normal(size=ports)
    reference = WalkState(graph, ref / np.linalg.norm(ref))
    amps = rng.normal(size=(rows, ports)) + 1j * rng.normal(size=(rows, ports))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    amps[rng.random(rows) < 0.5] = 0.0  # about half the rows hold zeros
    if strided:
        amps = np.asfortranarray(amps)
    assert fidelity(reference, amps).tobytes() == reference_fidelity(reference, amps).tobytes()
