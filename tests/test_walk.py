import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walklang import (
    CoinAssignment,
    NonUnitaryError,
    PortGraph,
    WalkState,
    dense_step_matrix,
    evolve,
    spatial_eq,
    step,
    vertex_probability,
)
from walklang import coins
from walklang.walk import _coin_blocks, evolve_batch, state_from_text, state_to_text

from helpers import (
    graph_from_edges,
    haar_unitary,
    hadamard_line_coins,
    line_graph,
    reference_coin_blocks,
    reference_evolve,
    reference_state_from_text,
)


def single_edge():
    return PortGraph([(0, 1)])


def test_walk_state_checks_shape_and_norm():
    g = single_edge()
    with pytest.raises(ValueError, match="ports"):
        WalkState(g, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="normalised"):
        WalkState(g, np.array([1.0, 1.0]))
    s = WalkState.from_basis(g, 1, 0)
    assert s.amplitude(1, 0) == 1.0


def test_coin_assignment_validates_dimensions():
    g = single_edge()
    with pytest.raises(ValueError, match="shape"):
        CoinAssignment(g, [np.eye(2), np.eye(1)])
    with pytest.raises(NonUnitaryError, match="vertex 1"):
        CoinAssignment(g, [np.eye(1), np.array([[2.0]])])


def test_identity_walk_on_edge_returns_after_two_steps():
    g = single_edge()
    cs = CoinAssignment.by_degree(g, coins.identity)
    s = WalkState.from_basis(g, 0, 0)
    assert np.allclose(step(step(s, cs), cs).amplitudes, s.amplitudes, atol=0)


def test_line_walk_single_step():
    # one Hadamard step from the centre puts probability 1/2 on each neighbour
    g = line_graph(7)
    cs = hadamard_line_coins(g)
    s1 = step(WalkState.from_basis(g, 3, 1), cs)
    assert vertex_probability(s1, 2) == pytest.approx(0.5, abs=1e-15)
    assert vertex_probability(s1, 4) == pytest.approx(0.5, abs=1e-15)


def test_line_walk_two_steps_frozen_distribution():
    # computed against the dense step matrix for this engine's port layout
    g = line_graph(7)
    cs = hadamard_line_coins(g)
    s2 = evolve(WalkState.from_basis(g, 3, 1), cs, 2)
    probs = {x - 3: vertex_probability(s2, x) for x in g.vertices}
    assert probs[-2] == pytest.approx(0.25, abs=1e-12)
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[2] == pytest.approx(0.25, abs=1e-12)
    assert probs[-1] == pytest.approx(0.0, abs=1e-12)
    u = dense_step_matrix(g, cs)
    expected = np.linalg.matrix_power(u, 2) @ WalkState.from_basis(g, 3, 1).amplitudes
    assert np.max(np.abs(s2.amplitudes - expected)) < 1e-12


def test_step_rejects_foreign_coins():
    g = single_edge()
    other = line_graph(3)
    cs = CoinAssignment.by_degree(other, coins.identity)
    with pytest.raises(ValueError, match="different graph"):
        step(WalkState.from_basis(g, 0, 0), cs)


def test_evolve_zero_steps_rejects_foreign_coins():
    cs = CoinAssignment.by_degree(line_graph(3), coins.identity)
    with pytest.raises(ValueError, match="different graph"):
        evolve(WalkState.from_basis(single_edge(), 0, 0), cs, 0)


def test_evolve_zero_steps_is_identity():
    g = single_edge()
    cs = CoinAssignment.by_degree(g, coins.identity)
    s = WalkState.from_basis(g, 0, 0)
    out = evolve(s, cs, 0)
    assert np.array_equal(out.amplitudes, s.amplitudes)
    with pytest.raises(ValueError):
        evolve(s, cs, -1)


def test_vertex_probability_basics():
    g = line_graph(3)
    s = WalkState.from_basis(g, 1, 1)
    assert vertex_probability(s, 1) == 1.0
    assert vertex_probability(s, 0) == 0.0
    total = sum(vertex_probability(s, v) for v in g.vertices)
    assert total == pytest.approx(1.0, abs=1e-15)


def test_dense_matrix_single_edge_identity_coins_is_swap():
    g = single_edge()
    cs = CoinAssignment.by_degree(g, coins.identity)
    u = dense_step_matrix(g, cs)
    assert np.array_equal(u, np.array([[0, 1], [1, 0]], dtype=complex))


def test_dense_matrix_five_vertex_line():
    g = line_graph(5)
    cs = hadamard_line_coins(g)
    u = dense_step_matrix(g, cs)
    assert u.shape == (8, 8)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12


def test_dense_matrix_respects_port_limit():
    g = line_graph(5)
    cs = hadamard_line_coins(g)
    with pytest.raises(ValueError, match="limited"):
        dense_step_matrix(g, cs, max_ports=4)


graph_cases = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10),
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
    )
)


@given(graph_cases)
@settings(max_examples=60, deadline=None)
def test_evolve_matches_dense_oracle(case):
    n, edges, seed, steps = case
    g = graph_from_edges(n, edges)
    rng = np.random.default_rng(seed)
    cs = CoinAssignment(g, [haar_unitary(rng, g.degree(v)) for v in g.vertices])
    u = dense_step_matrix(g, cs)
    assert np.max(np.abs(u.conj().T @ u - np.eye(g.num_ports))) < 1e-12
    amps = rng.normal(size=g.num_ports) + 1j * rng.normal(size=g.num_ports)
    amps /= np.linalg.norm(amps)
    s = WalkState(g, amps)
    got = evolve(s, cs, steps)
    expected = np.linalg.matrix_power(u, steps) @ amps
    assert np.max(np.abs(got.amplitudes - expected)) < 1e-12
    assert abs(got.norm() - 1.0) < 1e-12


@given(graph_cases)
@settings(max_examples=60, deadline=None)
def test_evolve_matches_reference_loop_bit_for_bit(case):
    n, edges, seed, steps = case
    g = graph_from_edges(n, edges)
    rng = np.random.default_rng(seed)
    cs = CoinAssignment(g, [haar_unitary(rng, g.degree(v)) for v in g.vertices])
    amps = rng.normal(size=g.num_ports) + 1j * rng.normal(size=g.num_ports)
    s = WalkState(g, amps / np.linalg.norm(amps))
    assert np.array_equal(evolve(s, cs, steps).amplitudes, reference_evolve(s, cs, steps))


def permutation_coin(rng: np.random.Generator, d: int, kind: int) -> np.ndarray:
    """Kind 0: a 0/1 permutation; 1: its negative; 2: times 1j; 3: a Haar unitary."""
    if kind == 3:
        return haar_unitary(rng, d)
    p = np.eye(d, dtype=np.complex128)[rng.permutation(d)]
    return (1.0, -1.0, 1j)[kind] * p


@given(graph_cases)
@settings(max_examples=60, deadline=None)
def test_evolve_routes_permutation_coins_bit_for_bit(case):
    n, edges, seed, steps = case
    # the ring makes vertices share degrees, so one class mixes coin kinds
    g = graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)] + edges)
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 4, size=n)
    blocks = [permutation_coin(rng, g.degree(v), k) for v, k in enumerate(kinds)]
    cs = CoinAssignment(g, blocks)
    assert all(np.array_equal(cs.matrices[v], b) for v, b in enumerate(blocks))
    multiplied = sum(len(idx) for idx, _, _ in cs._kernel)
    assert multiplied == np.count_nonzero(kinds != 0)
    amps = rng.normal(size=g.num_ports) + 1j * rng.normal(size=g.num_ports)
    s = WalkState(g, amps / np.linalg.norm(amps))
    assert np.array_equal(evolve(s, cs, steps).amplitudes, reference_evolve(s, cs, steps))


def test_norm_conserved_over_long_run():
    g = line_graph(9)
    cs = hadamard_line_coins(g)
    s = evolve(WalkState.from_basis(g, 4, 0), cs, 1000)
    assert abs(s.norm() - 1.0) < 1e-12


def test_coin_serialization_round_trip():
    g = line_graph(4)
    cs = hadamard_line_coins(g)
    text = cs.to_text()
    back = CoinAssignment.from_text(g, text)
    for a, b in zip(cs.matrices, back.matrices):
        assert np.array_equal(a, b)
    assert back.to_text() == text


def test_coin_parse_errors_have_line_numbers():
    g = single_edge()
    with pytest.raises(ValueError, match="line 1"):
        CoinAssignment.from_text(g, "x 0 1\n1.0,0.0\n")
    with pytest.raises(ValueError, match="line 2"):
        CoinAssignment.from_text(g, "v 0 1\nnope\nv 1 1\n1.0,0.0\n")
    with pytest.raises(ValueError, match="missing"):
        CoinAssignment.from_text(g, "v 0 1\n1.0,0.0\n")


def test_state_serialization_round_trip():
    g = line_graph(3)
    cs = hadamard_line_coins(g)
    s = evolve(WalkState.from_basis(g, 1, 0), cs, 2)
    back = state_from_text(g, state_to_text(s))
    assert np.array_equal(back.amplitudes, s.amplitudes)
    with pytest.raises(ValueError, match="line 1"):
        state_from_text(g, "broken\n")


# text in the edge, coin and state formats, built from small ids, random
# integers and cells that are valid, non-finite, huge or malformed
small = st.integers(-1, 3)
number = st.one_of(small, st.integers()).map(str)
cell = st.one_of(
    st.sampled_from(["1,0", "0,1", "0,0", "0.6,0.8", "nan,0", "0,inf", "1e308,1e308",
                     "1e200,0", "1,", ",", "x"]),
    number.map(lambda x: f"{x},0"),
)
row = st.lists(cell, max_size=3).map(" ".join)
# a header and as many rows as it asks for, each of that many cells
block = st.tuples(small, small).flatmap(lambda h: st.lists(
    st.lists(cell, min_size=max(h[1], 0), max_size=max(h[1], 0)).map(" ".join),
    min_size=max(h[1], 0), max_size=max(h[1], 0),
).map(lambda rows: "\n".join([f"v {h[0]} {h[1]}", *rows])))
line = st.one_of(
    st.tuples(small.map(str), number).map(" ".join),  # edge
    st.tuples(small.map(str), number).map(lambda h: f"v {h[0]} {h[1]}"),  # coin header
    block,
    row,  # coin row, or a state line when it has one cell
    st.sampled_from(["", "# comment", "v", "v 0 1 2"]),
)
texts = st.lists(line, max_size=8).map("\n".join)


@given(texts, texts, texts)
@example("0 1", "v 0 1\n1e308,1e308\nv 1 1\n1,0", "1e308,1e308\n0,0")
@example("0 1", "v 0 3000000", "")
@example("0 99999999999999999999", "", "")
@settings(max_examples=300, deadline=None)
def test_parsers_fail_only_with_value_error(graph_text, coin_text, state_text):
    try:
        graph = PortGraph.from_edge_lines(graph_text)
    except ValueError:
        graph = single_edge()
    for parse, text in ((CoinAssignment.from_text, coin_text), (state_from_text, state_text)):
        try:
            parse(graph, text)
        except ValueError:
            pass


def test_walk_state_rejects_nan():
    with pytest.raises(ValueError, match=r"^state is not normalised \(norm nan\)$"):
        WalkState(single_edge(), np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match=r"^state is not normalised \(norm inf\)$"):
        WalkState(single_edge(), np.array([np.inf, 0.0]))


def test_state_file_rejects_nan():
    with pytest.raises(ValueError, match="normalised"):
        state_from_text(single_edge(), "nan,0\n0,0\n")


def test_coin_assignment_rejects_nan_block():
    with pytest.raises(NonUnitaryError, match="vertex 0"):
        CoinAssignment(single_edge(), [[[np.nan]], [[1.0]]])


@pytest.mark.parametrize("text,message", [
    ("v 0 1\n1,0\nv 1 1\n1,0\nv 0 1\n1,0\n", "line 5: second coin block for vertex 0"),
    ("v 0 1\n1,0\nv 1 1\n1,0\nv 2 1\n1,0\n", "line 5: graph has no vertex 2"),
    ("v 0 1\n1,0\nv 1 -1\n", "line 3: negative degree -1"),
    ("v 0 1\n1,0\nv 1 2\n1,0 0,0\n0,0 1,0\n", "line 3: coin block 1 has degree 2, vertex has 1"),
], ids=["duplicate", "unknown-vertex", "negative-degree", "wrong-degree"])
def test_coin_file_rejects_bad_blocks_with_line_numbers(text, message):
    with pytest.raises(ValueError, match=message):
        CoinAssignment.from_text(single_edge(), text)


def test_coin_blocks_are_read_only():
    g = line_graph(4)
    cs = hadamard_line_coins(g)
    for block in cs.matrices:
        with pytest.raises(ValueError, match="read-only"):
            block[:] = 2.0
        with pytest.raises(ValueError):
            block.flags.writeable = True
    s = evolve(WalkState.from_basis(g, 1, 0), cs, 3)
    assert abs(s.norm() - 1.0) < 1e-12


def test_coin_assignment_copies_caller_blocks():
    g = single_edge()
    block = np.eye(1, dtype=np.complex128)
    cs = CoinAssignment(g, [block, block])
    block[0, 0] = 2.0
    assert cs.matrices[0][0, 0] == 1.0 and cs.matrices[1][0, 0] == 1.0


def test_state_amplitudes_are_read_only():
    g = line_graph(3)
    s = WalkState.from_basis(g, 1, 0)
    evolved = evolve(s, hadamard_line_coins(g), 2)
    for state in (s, evolved, WalkState(g, np.array([1.0, 0, 0, 0]))):
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[:] = 0
        assert abs(state.norm() - 1.0) < 1e-12


def test_states_and_coin_assignments_reject_attribute_rebinding():
    g = line_graph(3)
    s = WalkState.from_basis(g, 1, 0)
    cs = hadamard_line_coins(g)
    for obj, attr, value in ((s, "amplitudes", np.zeros(4)), (s, "graph", single_edge()),
                             (cs, "matrices", ()), (cs, "graph", single_edge())):
        with pytest.raises(AttributeError):
            setattr(obj, attr, value)


def test_arrays_cannot_be_made_writeable_again():
    # a flag cleared on an array that owns its memory could be set again, and a
    # write then paired port 0 with itself or corrupted the stacks evolve multiplies
    machine = spatial_eq(1)
    g, cs = machine.graph, machine.coins
    state = WalkState.from_basis(g, 0, 0)
    arrays = [g.shift_permutation(), g._offsets, *(a for c in g.degree_classes() for a in c),
              state.amplitudes, evolve(state, cs, 2).amplitudes,
              WalkState(g, state.amplitudes).amplitudes,
              state_from_text(g, state_to_text(state)).amplitudes,
              *cs.matrices, cs._route, *(a for k in cs._kernel for a in k)]
    for array in arrays:
        while isinstance(array, np.ndarray):
            with pytest.raises(ValueError):
                array.flags.writeable = True
            array = array.base
    assert g.shift_target(0, 0) == (4, 0)


def outcome(parse, *args):
    """The bytes ``parse`` returns, or the message of the ``ValueError`` it raises."""
    try:
        result = parse(*args)
    except ValueError as error:
        return str(error)
    if isinstance(result, WalkState):
        return result.amplitudes.tobytes()
    return [block.tobytes() for block in result]


# cells that are valid (signed zeros, subnormals, nan and inf included, or
# written with digit separators or non-ASCII digits) or malformed in ways a
# comma-count check would miss; gaps are what str.split sees as whitespace
side = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["-0.0", "5e-324", "-2.5e-320", "nan", "-inf", "1_0", "\u0661", "\uff11.5",
                     "+.5", "1e400"]),
)
good_cell = st.tuples(side, side).map(",".join)
bad_cell = st.one_of(
    st.sampled_from(["1,", ",1", "1,,2", "1,2,3", ",", "x", "1", "1_,0", "1,0\x1c0,1",
                     "\ud800,0"]),
    st.text(st.sampled_from("01.,-e_x \u0661"), max_size=6),
)
gap = st.sampled_from([" ", "  ", "\t", "\xa0", "\u2003", "\u3000", "\x1c", "\x85"])


def spaced(cells, min_size, max_size):
    """A row of ``cells``, each followed by a gap."""
    return st.lists(st.tuples(cells, gap), min_size=min_size, max_size=max_size).map(
        lambda pairs: "".join(c + g for c, g in pairs))


# a two-port block: two rows of two good cells, or any rows of any cells
coin_row = st.one_of(spaced(good_cell, 2, 2), spaced(st.one_of(good_cell, bad_cell), 0, 3))
coin_rows = st.one_of(st.lists(coin_row, min_size=2, max_size=2), st.lists(coin_row, max_size=3))


@given(coin_rows, st.one_of(st.just(["1,0 0,1", "0,1 1,0"]), coin_rows))
@example(["1,2,3 4", "1,0 0,1"], ["1,0 0,1", "0,1 1,0"])
@example(["1,0\x1c0,1", "0,1 1,0"], ["1,0 0,1", "0,1 1,0"])
@example(["-0.0,1_0 nan,-inf", "5e-324,\u0661 1e400,+.5"], ["1,0\u20030,1", "0,1\xa01,0"])
@settings(max_examples=400, deadline=None)
def test_coin_parser_matches_the_per_cell_loop(rows0, rows1):
    g = PortGraph([(0, 1), (0, 1)])
    text = "\n".join(["v 0 2", *rows0, "v 1 2", *rows1])
    assert outcome(_coin_blocks, g, text) == outcome(reference_coin_blocks, g, text)


# a two-port state: one unit and one zero amplitude between blank and comment
# lines, or any lines; a state line may hold whitespace around its sides
pad = st.sampled_from(["", " ", "\t", "\xa0", "\u3000"])
unit = st.sampled_from(["1,0", "-1,-0.0", "0.6,-0.8", "-0.0,1", "0 , -1", "\u0661,0"])
zero = st.sampled_from(["0,0", "-0.0,-0.0", "0,-0.0", "0_0,-0", "\u0660,0", "-0.0 ,5e-324"])
filler = st.lists(st.sampled_from(["", "  ", "# 1,0"]), max_size=1)
state_line = st.one_of(unit, zero, good_cell, bad_cell, st.sampled_from(["", "# c", "1,2,3 4"]))
state_lines = st.one_of(
    st.tuples(filler, unit, filler, zero, filler).map(
        lambda p: [*p[0], p[1], *p[2], p[3], *p[4]]),
    st.tuples(filler, zero, filler, unit).map(lambda p: [*p[0], p[1], *p[2], p[3]]),
    st.lists(state_line, max_size=4),
)
line_break = st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\x85", "\u2028"])


@given(state_lines, pad, pad, line_break)
@example(["1,2,3 4", "1,0"], "", "", "\n")
@example(["1,0\x1c0,1"], "", "", "\n")
@example(["-0.0,1", "-0.0 , -0.0"], "\u2003", "\t", "\n")
@settings(max_examples=400, deadline=None)
def test_state_parser_matches_the_per_cell_loop(lines, before, after, end):
    g = single_edge()
    text = "".join(before + line + after + end for line in lines)
    assert outcome(state_from_text, g, text) == outcome(reference_state_from_text, g, text)


@given(st.integers(1, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_coin_file_round_trips_haar_blocks_to_the_bit(d, seed):
    # d parallel edges give both ends degree d; -I has -0.0 everywhere off its diagonal
    g = PortGraph([(0, 1)] * d + [(1, 2)])
    blocks = [haar_unitary(np.random.default_rng(seed), d), -np.eye(d + 1, dtype=complex),
              np.exp(1j * np.array([[seed]]))]
    cs = CoinAssignment(g, blocks)
    text = cs.to_text()
    back = CoinAssignment.from_text(g, text)
    assert [m.tobytes() for m in back.matrices] == [m.tobytes() for m in cs.matrices]
    assert back.to_text() == text


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_state_file_round_trips_random_states_to_the_bit(n, seed):
    rng = np.random.default_rng(seed)
    g = line_graph(n + 1)
    amps = rng.normal(size=g.num_ports) + 1j * rng.normal(size=g.num_ports)
    zeroed = rng.random(g.num_ports) < 0.3
    zeroed[0] = False  # keeps the norm positive
    amps[zeroed] = complex(-0.0, -0.0)
    amps.imag[rng.random(g.num_ports) < 0.3] = -0.0
    s = WalkState(g, amps / np.linalg.norm(amps))
    back = state_from_text(g, state_to_text(s))
    assert back.amplitudes.tobytes() == s.amplitudes.tobytes()


def test_evolve_batch_checks_its_arguments():
    g = line_graph(3)
    cs = hadamard_line_coins(g)
    amps = np.eye(g.num_ports, dtype=np.complex128)
    for steps in (-1, True, 2.5):
        with pytest.raises(ValueError, match=f"non-negative int, got {steps!r}"):
            evolve_batch(amps, cs, steps)
    for bad in (amps[0], amps[:, :-1]):
        with pytest.raises(ValueError, match=f"graph has {g.num_ports} ports"):
            evolve_batch(bad, cs, 1)
    assert np.array_equal(evolve_batch(amps, cs, 0), amps)
    for k, row in enumerate(evolve_batch(amps, cs, 5)):
        state = WalkState(g, amps[k])
        assert np.array_equal(row, evolve(state, cs, 5).amplitudes)
        assert np.array_equal(row, reference_evolve(state, cs, 5))
