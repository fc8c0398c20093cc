import resource
import time
import tracemalloc

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
    initial_state,
    sequential_ab,
    spatial_eq,
    step,
    vertex_probability,
)
from walklang import coins
from walklang.walk import (
    Program,
    _coin_blocks,
    state_from_text,
    state_to_text,
    vertex_masses,
)

from helpers import (
    basis_state,
    events_are_kernel_entries,
    graph_from_edges,
    haar_unitary,
    hadamard_line_coins,
    line_graph,
    outcome,
    reference_coin_blocks,
    reference_coin_check,
    reference_coin_text,
    reference_evolve,
    reference_state_from_text,
    reference_state_text,
)


def single_edge():
    return PortGraph([(0, 1)])


def test_walk_state_checks_shape_and_norm():
    g = single_edge()
    with pytest.raises(ValueError, match="ports"):
        WalkState(g, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="normalised"):
        WalkState(g, np.array([1.0, 1.0]))
    s = WalkState(g, np.array([0.0, 1.0]))
    assert s.amplitudes[g.offset(1)] == 1.0


def test_coin_assignment_validates_dimensions():
    g = single_edge()
    with pytest.raises(ValueError, match="shape"):
        CoinAssignment(g, [np.eye(2), np.eye(1)])
    with pytest.raises(NonUnitaryError, match="vertex 1"):
        CoinAssignment(g, [np.eye(1), np.array([[2.0]])])


def test_the_lowest_failing_vertex_is_named_across_degree_classes():
    # line_graph(6) has degrees 1 2 2 2 2 1: vertex 5 is in the first class, 3 in a later one
    g = line_graph(6)
    blocks = [np.eye(g.degree(v)) for v in g.vertices]
    blocks[5], blocks[3] = [[2.0]], np.diag([1.0, 1.5])
    with pytest.raises(NonUnitaryError, match=r"^coin at vertex 3 is not unitary") as err:
        CoinAssignment(g, blocks)
    assert err.value.defect == pytest.approx(1.25)
    # a bad shape at a higher id than a non-unitary block: the non-unitary one is named
    blocks[5], blocks[3], blocks[2] = np.eye(1), np.eye(2), np.diag([1.0, 1.5])
    with pytest.raises(NonUnitaryError, match=r"^coin at vertex 2 is not unitary"):
        CoinAssignment(g, blocks[:4] + [np.eye(3), np.eye(1)])
    blocks[2] = [[np.nan, 0], [0, 1]]
    with pytest.raises(NonUnitaryError, match=r"^coin at vertex 2 is not unitary \(defect nan\)"):
        CoinAssignment(g, blocks[:5] + [np.eye(3)])
    with pytest.raises(ValueError, match=r"^coin at vertex 1 has shape \(3, 3\), degree is 2$"):
        CoinAssignment(g, [np.eye(1), np.eye(3)] + blocks[2:])


# two or three degree classes each, whose vertices interleave in id order
mixed_graphs = st.sampled_from([
    line_graph(6),
    PortGraph([(0, 1), (0, 2), (0, 3), (2, 4), (4, 5), (2, 6)]),
    PortGraph([(0, 1), (0, 1), (1, 2), (2, 2), (3, 2), (3, 0), (4, 3)]),
])
coin_kind = st.sampled_from(["haar", "haar", "haar", "permutation", "scaled", "nan", "shape"])


@given(mixed_graphs, st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_coin_checks_match_the_per_vertex_loop(g, data, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for v in g.vertices:
        d, kind = g.degree(v), data.draw(coin_kind)
        block = haar_unitary(rng, d)
        if kind == "permutation":
            block = coins.permutation(rng.permutation(d))
        elif kind == "scaled":
            block = block * 1.5
        elif kind == "nan":
            block[rng.integers(d), rng.integers(d)] = np.nan
        elif kind == "shape":
            block = np.eye(d + 1)
        blocks.append(block)
    try:
        reference_coin_check(g, blocks)
    except ValueError as error:
        expected = (type(error), str(error))
    else:
        expected = [np.asarray(b, dtype=np.complex128).tobytes() for b in blocks]
    try:
        cs = CoinAssignment(g, blocks)
    except ValueError as error:
        assert (type(error), str(error)) == expected
    else:
        assert [m.tobytes() for m in cs.matrices] == expected


def test_identity_walk_on_edge_returns_after_two_steps():
    g = single_edge()
    cs = CoinAssignment.by_degree(g, coins.identity)
    s = basis_state(g, 0, 0)
    assert np.allclose(step(step(s, cs), cs).amplitudes, s.amplitudes, atol=0)


def test_line_walk_single_step():
    # one Hadamard step from the centre puts probability 1/2 on each neighbour
    g = line_graph(7)
    cs = hadamard_line_coins(g)
    s1 = step(basis_state(g, 3, 1), cs)
    assert vertex_probability(s1, 2) == pytest.approx(0.5, abs=1e-15)
    assert vertex_probability(s1, 4) == pytest.approx(0.5, abs=1e-15)


def test_line_walk_two_steps_frozen_distribution():
    # computed against the dense step matrix for this engine's port layout
    g = line_graph(7)
    cs = hadamard_line_coins(g)
    s2 = evolve(basis_state(g, 3, 1), cs, 2)
    probs = {x - 3: vertex_probability(s2, x) for x in g.vertices}
    assert probs[-2] == pytest.approx(0.25, abs=1e-12)
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[2] == pytest.approx(0.25, abs=1e-12)
    assert probs[-1] == pytest.approx(0.0, abs=1e-12)
    u = dense_step_matrix(cs)
    expected = np.linalg.matrix_power(u, 2) @ basis_state(g, 3, 1).amplitudes
    assert np.max(np.abs(s2.amplitudes - expected)) < 1e-12


def test_step_rejects_foreign_coins():
    g = single_edge()
    other = line_graph(3)
    cs = CoinAssignment.by_degree(other, coins.identity)
    with pytest.raises(ValueError, match="different graph"):
        step(basis_state(g, 0, 0), cs)


def test_evolve_zero_steps_rejects_foreign_coins():
    cs = CoinAssignment.by_degree(line_graph(3), coins.identity)
    with pytest.raises(ValueError, match="different graph"):
        evolve(basis_state(single_edge(), 0, 0), cs, 0)


def test_evolve_zero_steps_is_identity():
    g = single_edge()
    cs = CoinAssignment.by_degree(g, coins.identity)
    s = basis_state(g, 0, 0)
    out = evolve(s, cs, 0)
    assert np.array_equal(out.amplitudes, s.amplitudes)
    with pytest.raises(ValueError):
        evolve(s, cs, -1)


def test_vertex_probability_basics():
    g = line_graph(3)
    s = basis_state(g, 1, 1)
    assert vertex_probability(s, 1) == 1.0
    assert vertex_probability(s, 0) == 0.0
    total = sum(vertex_probability(s, v) for v in g.vertices)
    assert total == pytest.approx(1.0, abs=1e-15)


def test_dense_matrix_single_edge_identity_coins_is_swap():
    g = single_edge()
    cs = CoinAssignment.by_degree(g, coins.identity)
    u = dense_step_matrix(cs)
    assert np.array_equal(u, np.array([[0, 1], [1, 0]], dtype=complex))


def test_dense_matrix_five_vertex_line():
    g = line_graph(5)
    cs = hadamard_line_coins(g)
    u = dense_step_matrix(cs)
    assert u.shape == (8, 8)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12


def test_dense_matrix_respects_port_limit():
    g = line_graph(5)
    cs = hadamard_line_coins(g)
    with pytest.raises(ValueError, match="limited"):
        dense_step_matrix(cs, max_ports=4)


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
    u = dense_step_matrix(cs)
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
    multiplied = sum(len(idx) for idx, _ in cs._kernel)
    assert multiplied == np.count_nonzero(kinds != 0)
    amps = rng.normal(size=g.num_ports) + 1j * rng.normal(size=g.num_ports)
    s = WalkState(g, amps / np.linalg.norm(amps))
    assert np.array_equal(evolve(s, cs, steps).amplitudes, reference_evolve(s, cs, steps))


def test_norm_conserved_over_long_run():
    g = line_graph(9)
    cs = hadamard_line_coins(g)
    s = evolve(basis_state(g, 4, 0), cs, 1000)
    assert abs(s.norm() - 1.0) < 1e-12


def test_a_long_program_keeps_one_register_per_port():
    machine = sequential_ab(4)
    cs, ports = machine.coins, machine.graph.num_ports
    every, slots = np.arange(ports), np.ravel(machine.slot_indices)
    state = initial_state(machine, "abba")
    for inputs in (every, slots):
        program = Program(cs, 10_000, inputs)
        # the mixer runs at nearly every step: in the repeated steady step once
        # the inputs reach every port, else in one event per step
        assert program._loops + len(program._events) >= 9_000
        used = np.concatenate([program._inputs, *(regs.ravel() for regs, _ in program._events)])
        # the workspace has one register per port, so it is P wide
        assert 0 <= used.min() and used.max() < ports
        assert len(np.unique(program._inputs)) == len(inputs)
        assert events_are_kernel_entries(program, cs)
        final = program(state.amplitudes[None, inputs])
        assert final.shape == (1, ports)
        assert np.array_equal(final[0], reference_evolve(state, cs, 10_000))
    # every port input: all steps are the steady one, port p in column p throughout
    program = Program(cs, 10_000, every)
    assert program._loops == 10_000 and program._events == ()
    assert program._steady[0] is cs._kernel  # every mixing class
    assert program._inputs.tolist() == every.tolist()


def test_a_program_enters_its_steady_step_part_way():
    # on an odd cycle one input port reaches every port after a few steps
    g = PortGraph([(v, (v + 1) % 5) for v in range(5)])
    cs = CoinAssignment.by_degree(g, lambda d: coins.hadamard())
    state = basis_state(g, 0, 0)
    inputs = [g.offset(0)]
    program = Program(cs, 40, inputs)
    assert program._events and 0 < program._loops < 40
    # the moves end with port p in column p, so the input starts in another column
    assert program._inputs.tolist() != inputs
    final = program(state.amplitudes[None, inputs])[0]
    assert np.array_equal(final, reference_evolve(state, cs, 40))


program_graphs = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10),
        st.integers(0, 2**32 - 1),
    )
)


@given(program_graphs, st.integers(0, 14), st.integers(1, 40))
@example((5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 3), 2, 1)  # events only
@example((5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 0), 14, 1)  # events, then the loop
@example((3, [(0, 1), (1, 2)], 5), 9, 40)  # every port: the loop only
# a path whose input port 0 reaches vertex 1 a step before vertex 2, the other phase
# coin of its two-block class, so the class is multiplied whole while partly reached
@example((4, [(0, 1), (1, 2), (2, 3)], 27), 6, 1)
@settings(max_examples=300, deadline=None)
def test_a_program_numbers_its_registers_so_the_moves_end_on_the_ports(case, steps, size):
    n, edges, seed = case
    g = graph_from_edges(n, edges)
    rng = np.random.default_rng(seed)
    cs = CoinAssignment(g, [permutation_coin(rng, g.degree(v), rng.integers(0, 4))
                            for v in g.vertices])
    inputs = rng.permutation(g.num_ports)[:size]  # in any order, every port if size >= P
    rows = rng.normal(size=(3, len(inputs))) + 1j * rng.normal(size=(3, len(inputs)))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    program = Program(cs, steps, inputs)
    assert events_are_kernel_entries(program, cs)
    final = program(rows)
    assert final.shape == (3, g.num_ports) and final.flags.c_contiguous
    for row, got in zip(rows, final):
        amps = np.zeros(g.num_ports, dtype=np.complex128)
        amps[inputs] = row
        assert np.array_equal(got, reference_evolve(WalkState(g, amps), cs, steps))


def test_a_program_does_not_grow_with_its_steps():
    machine = sequential_ab(4)
    every = np.arange(machine.graph.num_ports)
    Program(machine.coins, 10, every)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        Program(machine.coins, 10**6, every)
        best = min(best, time.perf_counter() - start)
    assert best < 0.010
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 5 * 1024
    tracemalloc.start()
    try:
        program = Program(machine.coins, 10**6, every)
        assert tracemalloc.get_traced_memory()[1] < 5 * 2**20
    finally:
        tracemalloc.stop()
    assert program._loops == 10**6 and program._events == ()


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
    s = evolve(basis_state(g, 1, 0), cs, 2)
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
    s = evolve(basis_state(g, 1, 0), cs, 3)
    assert abs(s.norm() - 1.0) < 1e-12


def test_coin_assignment_copies_caller_blocks():
    g = single_edge()
    block = np.eye(1, dtype=np.complex128)
    cs = CoinAssignment(g, [block, block])
    block[0, 0] = 2.0
    assert cs.matrices[0][0, 0] == 1.0 and cs.matrices[1][0, 0] == 1.0


def test_state_amplitudes_are_read_only():
    g = line_graph(3)
    s = basis_state(g, 1, 0)
    evolved = evolve(s, hadamard_line_coins(g), 2)
    for state in (s, evolved, WalkState(g, np.array([1.0, 0, 0, 0]))):
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[:] = 0
        assert abs(state.norm() - 1.0) < 1e-12


def test_states_and_coin_assignments_reject_attribute_rebinding():
    g = line_graph(3)
    s = basis_state(g, 1, 0)
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
    state = basis_state(g, 0, 0)
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
    assert g.shift_permutation()[g.offset(0)] == g.offset(4)


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


# blank and comment lines: skipped between blocks, and a block's rows inside one
skipped = st.sampled_from(["", "  ", "\u3000", "#", "# 1,0 0,1", "  # v 1 2"])


def then_skipped(rows):
    """``rows``, then one or two blank or comment lines: the gap before the next block."""
    return st.tuples(rows, st.lists(skipped, min_size=1, max_size=2)).map(lambda p: p[0] + p[1])


# a two-port block: two rows of two good cells, or any rows of any cells, blank and
# comment lines among them, or either followed by blank and comment lines
coin_row = st.one_of(spaced(good_cell, 2, 2), spaced(st.one_of(good_cell, bad_cell), 0, 3))
coin_rows = st.one_of(st.lists(coin_row, min_size=2, max_size=2),
                      st.lists(st.one_of(coin_row, skipped), max_size=3))
coin_rows = st.one_of(coin_rows, then_skipped(coin_rows))


@given(coin_rows, st.one_of(st.just(["1,0 0,1", "0,1 1,0"]), coin_rows))
@example(["1,2,3 4", "1,0 0,1"], ["1,0 0,1", "0,1 1,0"])
@example(["1,0\x1c0,1", "0,1 1,0"], ["1,0 0,1", "0,1 1,0"])
@example(["-0.0,1_0 nan,-inf", "5e-324,\u0661 1e400,+.5"], ["1,0\u20030,1", "0,1\xa01,0"])
@example(["1,0 0,1", "0,1 1,0", "# c", "", "\u3000"], ["1,0 0,1", "0,1 1,0", "#"])
@example(["1,0 0,1", "# 0,1 1,0"], ["1,0 0,1", "0,1 1,0"])
@settings(max_examples=400, deadline=None)
def test_coin_parser_matches_the_per_cell_loop(rows0, rows1):
    g = PortGraph([(0, 1), (0, 1)])
    text = "\n".join(["v 0 2", *rows0, "v 1 2", *rows1])
    assert outcome(_coin_blocks, g, text) == outcome(reference_coin_blocks, g, text)


@pytest.mark.parametrize("text,message", [
    ("v 0 2", "line 1: unexpected end of coin block 0"),
    ("v 0 2\n1,0 0,0", "line 2: unexpected end of coin block 0"),
    ("v 0 2\n1,0 0,0\n0,0 1,0\n# v 1 2\nv 1 2\n1,0 0,0\n",
     "line 6: unexpected end of coin block 1"),
    ("v 0 2\n1,0 0,0\n# 0,1\nv 1 2\n1,0 0,0\n0,0 1,0", "line 3: bad complex entry '#'"),
    ("v 0 2\n\n1,0 0,0\n0,0 1,0", "line 2: coin block 0 row has 0 entries, wanted 2"),
], ids=["after-header", "after-one-row", "after-a-comment-and-one-row", "comment-row",
        "blank-row"])
def test_coin_block_rows_are_the_lines_after_its_header(text, message):
    # blank and comment lines are skipped only between blocks: the d lines after a header are
    # its rows, and an error names the line of the row it is in
    g = PortGraph([(0, 1), (0, 1)])
    assert outcome(_coin_blocks, g, text) == outcome(reference_coin_blocks, g, text) == message


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


# small pools, so that cells repeat within a row, a block and a file: good cells
# (signed zeros, a digit separator, nan, an overflow) and bad ones
pooled_good = st.sampled_from(["0.5,0", "-0.5,0", "0.5,-0.0", "0.0,0.0", "-0.0,0.0", "0,-0.0",
                               "0_0,0", "nan,0", "1e400,0", "\u0661,0"])
pooled_bad = st.sampled_from(["x", "1,", "0__0,0", "1,2,3"])
pooled_cell = st.one_of(pooled_good, pooled_good, pooled_bad)
good_row = st.lists(pooled_good, min_size=4, max_size=4).map(" ".join)
any_row = st.lists(pooled_cell, min_size=4, max_size=4).map(" ".join)
pooled_rows = st.one_of(st.lists(good_row, min_size=4, max_size=4),
                        st.lists(st.one_of(good_row, any_row), min_size=4, max_size=4),
                        st.lists(st.one_of(good_row, any_row, skipped), min_size=4, max_size=4))
pooled_rows = st.one_of(pooled_rows, then_skipped(pooled_rows))


@given(pooled_rows, pooled_rows)
@example(["0.5,0 0.5,0 0.5,0 0.5,0", "0.5,0 -0.5,0 x 0.5,0", "x 1, 0.5,0 x", "0,0 0,0 0,0 0,0"],
         ["0.5,0 0.5,0 0.5,0 0.5,0"] * 4)
@example(["0.5,0 0.5,0 0.5,0 0.5,0"] * 4, ["-0.0,0.0 0_0,0 1, 1,"] * 4)
@settings(max_examples=300, deadline=None)
def test_coin_parser_reads_repeated_cells_like_the_per_cell_loop(rows0, rows1):
    g = PortGraph([(0, 1)] * 4)
    text = "\n".join(["v 0 4", *rows0, "v 1 4", *rows1])
    assert outcome(_coin_blocks, g, text) == outcome(reference_coin_blocks, g, text)


# eight ports: four amplitudes of modulus 1/2 among four zeros, or any pooled lines
pooled_half = st.sampled_from(["0.5,0", "-0.5,-0.0", "0,0.5", "0.5,-0.0"])
pooled_zero = st.sampled_from(["0,0", "0.0,0.0", "-0.0,0.0", "0.0,-0.0", "0_0,-0", "\u0660,0"])
pooled_state = st.one_of(
    st.tuples(st.lists(pooled_half, min_size=4, max_size=4),
              st.lists(pooled_zero, min_size=4, max_size=4)).flatmap(
        lambda p: st.permutations(p[0] + p[1])),
    st.lists(st.one_of(pooled_half, pooled_zero, pooled_cell), min_size=7, max_size=9),
)


@given(pooled_state)
@example(["0.5,0", "x", "0,0", "x", "0.5,0", "1,", "0,0", "0.5,0"])
@example(["0.5,0"] * 4 + ["-0.0,0.0"] * 4)
@settings(max_examples=300, deadline=None)
def test_state_parser_reads_repeated_cells_like_the_per_cell_loop(lines):
    g = line_graph(5)
    text = "".join(line + "\n" for line in lines)
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


# bits the writers must keep apart or spell out: signed zeros, NaNs of either sign and
# one with a payload, infinities, the smallest subnormal, huge and inexact values
SPECIAL = np.append([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e308, -1e308, 1 / 3],
                    np.array([0x7FF8_0000_0000_0001], np.int64).view(np.float64))


def _cells(re, im) -> np.ndarray:
    """Complex values with exactly the bits of ``re`` and ``im``: no arithmetic joins them."""
    return np.stack(np.broadcast_arrays(re, im), axis=-1).copy().view(np.complex128)[..., 0]


def _unchecked_coins(graph: PortGraph, blocks) -> CoinAssignment:
    """An assignment holding ``blocks`` as given: the writer meets bits no unitary has."""
    cs = object.__new__(CoinAssignment)
    cs._graph, cs._matrices = graph, tuple(blocks)
    return cs


def test_writers_match_the_per_entry_oracles_on_special_bits():
    d = len(SPECIAL)
    g = PortGraph([(0, v) for v in range(1, d + 1)])
    hub = _cells(SPECIAL[:, None], SPECIAL[None, :])  # every pair, each value in either part
    leaves = [_cells(x, y).reshape(1, 1) for x, y in zip(SPECIAL, SPECIAL[::-1])]
    cs = _unchecked_coins(g, [hub, *leaves])
    assert cs.to_text() == reference_coin_text(cs)
    state = WalkState(g, _cells(np.tile(SPECIAL, 2), np.repeat(SPECIAL, 2)), _checked=True)
    assert state_to_text(state) == reference_state_text(state)


@pytest.mark.parametrize("kind", ["grover", "haar"])
def test_writers_match_the_per_entry_oracles_across_panels(kind):
    # a hub of degree d and d leaves: the hub's rows span many panels, the leaves' headers one
    d = 1000 if kind == "grover" else 300
    g = PortGraph([(0, v) for v in range(1, d + 1)])
    rng = np.random.default_rng(d)
    hub = coins.grover(d) if kind == "grover" else haar_unitary(rng, d)
    cs = CoinAssignment(g, [hub] + [np.exp(1j * rng.normal(size=(1, 1))) for _ in range(d)])
    assert cs.to_text() == reference_coin_text(cs)
    line = line_graph(3 * d)
    amps = rng.normal(size=line.num_ports) + 1j * rng.normal(size=line.num_ports)
    amps.imag[::3] = -0.0
    state = WalkState(line, amps / np.linalg.norm(amps))
    assert state_to_text(state) == reference_state_text(state)


def test_by_degree_calls_the_factory_once_per_degree_in_first_seen_order():
    g = spatial_eq(3).graph
    calls = []

    def grover(d):
        calls.append(d)
        return coins.grover(d)

    cs = CoinAssignment.by_degree(g, grover)
    assert calls == sorted(set(g.degrees()), key=g.degrees().index)
    assert len(calls) < g.num_vertices
    per_vertex = CoinAssignment(g, [coins.grover(g.degree(v)) for v in g.vertices])
    assert [m.tobytes() for m in cs.matrices] == [m.tobytes() for m in per_vertex.matrices]


def test_program_checks_its_arguments():
    g = line_graph(3)
    cs = hadamard_line_coins(g)
    amps = np.eye(g.num_ports, dtype=np.complex128)
    every = np.arange(g.num_ports)
    for steps in (-1, True, 2.5):
        with pytest.raises(ValueError, match=f"non-negative int, got {steps!r}"):
            Program(cs, steps, every)
    for bad in (amps[0], amps[:, :-1]):
        with pytest.raises(ValueError, match=f"program reads {g.num_ports} input ports$"):
            Program(cs, 1, every)(bad)
    # a program from two input ports reads two columns, one per port
    with pytest.raises(ValueError, match=r"shape \(4, 4\), program reads 2 input ports$"):
        Program(cs, 1, [0, 3])(amps)
    two = Program(cs, 5, [0, 3])(amps[:, [0, 3]])
    assert np.array_equal(two, Program(cs, 5, every)(amps * np.isin(every, [0, 3])))
    assert np.array_equal(two, Program(cs, 5, [-4, -1])(amps[:, [0, 3]]))
    for repeated in ([0, 3, 0], [2, 2]):
        with pytest.raises(ValueError, match=f"program inputs repeat port {repeated[-1]}$"):
            Program(cs, 1, repeated)
    assert np.array_equal(Program(cs, 0, every)(amps), amps)
    for k, row in enumerate(Program(cs, 5, every)(amps)):
        state = WalkState(g, amps[k])
        assert np.array_equal(row, evolve(state, cs, 5).amplitudes)
        assert np.array_equal(row, reference_evolve(state, cs, 5))


@given(st.sampled_from([1, 3, 7, 8, 16, 37, 64, 137]), st.integers(0, 40),
       st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_vertex_masses_equal_a_per_row_vdot_bit_for_bit(ports, rows, seed, strided):
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(rows, ports)) + 1j * rng.normal(size=(rows, ports))
    block[rng.random(rows) < 0.5] = 0.0  # about half the rows hold zeros
    if strided:
        block = np.asfortranarray(block)
    expected = np.array([np.vdot(row, row).real for row in np.ascontiguousarray(block)])
    assert vertex_masses(block).tobytes() == expected.tobytes()
