import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from walklang import PortGraph

from helpers import graph_from_edges


def test_add_vertex_sequential_ids():
    g = PortGraph()
    assert g.add_vertex() == 0
    assert g.num_vertices == 1
    g.add_vertices(2)
    assert g.add_vertex() == 3
    assert g.num_vertices == 4


def test_add_vertex_ids_distinct():
    g = PortGraph()
    assert g.add_vertex() != g.add_vertex()


def test_connect_first_edge_ports():
    g = PortGraph()
    g.add_vertices(2)
    assert g.connect(0, 1) == (0, 0)
    assert g.degree(0) == 1 and g.degree(1) == 1


def test_self_loop_uses_two_ports():
    g = PortGraph()
    g.add_vertex()
    g.connect(0, 0)
    cu, cv = g.connect(0, 0)
    assert (cu, cv) == (2, 3)
    assert g.degree(0) == 4
    g.freeze()
    assert g.shift_target(0, 2) == (0, 3)
    assert g.shift_target(0, 3) == (0, 2)


def test_two_edges_pairing_table():
    # edges (0,1) then (0,2): vertex 0 carries ports 0 and 1
    g = PortGraph()
    g.add_vertices(3)
    g.connect(0, 1)
    g.connect(0, 2)
    assert g.degree(0) == 2
    g.freeze()
    assert g.shift_target(0, 0) == (1, 0)
    assert g.shift_target(0, 1) == (2, 0)
    assert g.shift_target(2, 0) == (0, 1)


def test_three_cycle_pairing_table():
    g = PortGraph()
    g.add_vertices(3)
    g.connect(0, 1)
    g.connect(1, 2)
    g.connect(2, 0)
    g.freeze()
    assert g.shift_target(2, 1) == (0, 1)
    assert g.shift_target(0, 0) == (1, 0)
    assert g.shift_target(1, 1) == (2, 0)


def test_shift_single_edge():
    g = PortGraph()
    g.add_vertices(2)
    g.connect(0, 1)
    g.freeze()
    assert g.shift_target(0, 0) == (1, 0)


def test_connect_unknown_vertex():
    g = PortGraph()
    g.add_vertex()
    with pytest.raises(ValueError, match="unknown vertex"):
        g.connect(0, 5)


def test_shift_target_invalid_port():
    g = PortGraph()
    g.add_vertices(2)
    g.connect(0, 1)
    g.freeze()
    with pytest.raises(ValueError, match="invalid port"):
        g.shift_target(0, 1)


def test_offset_rejects_unknown_vertex():
    g = graph_from_edges(2, [(0, 1)])
    for v in (-1, 2, 3):
        with pytest.raises(ValueError, match=f"unknown vertex id {v}"):
            g.offset(v)


def test_frozen_graph_rejects_mutation():
    g = PortGraph()
    g.add_vertices(2)
    g.connect(0, 1)
    g.freeze()
    with pytest.raises(RuntimeError):
        g.add_vertex()
    with pytest.raises(RuntimeError):
        g.connect(0, 1)


edge_cases = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12
        ),
    )
)


@given(edge_cases)
def test_shift_is_self_inverse_bijection(case):
    n, edges = case
    g = graph_from_edges(n, edges)
    perm = g.shift_permutation()
    assert sorted(perm) == list(range(g.num_ports))
    assert np.array_equal(perm[perm], np.arange(g.num_ports))
    assert np.all(perm != np.arange(g.num_ports))
    for v in g.vertices:
        for c in range(g.degree(v)):
            assert g.shift_target(*g.shift_target(v, c)) == (v, c)


@given(edge_cases)
def test_degree_sum_counts_edge_ends(case):
    n, edges = case
    g = graph_from_edges(n, edges)
    assert sum(g.degree(v) for v in g.vertices) == 2 * len(g.edges())


def test_edge_lines_round_trip():
    g = PortGraph()
    g.add_vertices(4)
    g.connect(0, 1)
    g.connect(0, 1)  # parallel edge
    g.connect(2, 2)  # self-loop
    g.connect(3, 0)
    text = g.to_edge_lines()
    back = PortGraph.from_edge_lines(text)
    assert back == g
    assert back.to_edge_lines() == text
    assert back.shift_target(0, 1) == (1, 1)


def test_edge_lines_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        PortGraph.from_edge_lines("0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="line 1"):
        PortGraph.from_edge_lines("zero one\n")


def test_freeze_rejects_portless_vertex():
    g = PortGraph()
    g.add_vertices(3)
    g.connect(0, 1)
    with pytest.raises(ValueError, match="vertex 2 has no ports"):
        g.freeze()
    assert not g.frozen


def test_edge_lines_with_a_gap_are_rejected():
    with pytest.raises(ValueError, match="vertex 1 has no ports"):
        PortGraph.from_edge_lines("0 2\n")


def test_edge_lines_gap_is_rejected_without_allocating_up_to_the_largest_id():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex 1 has no ports"):
            PortGraph.from_edge_lines("0 1000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_layout_needs_a_frozen_graph():
    g = PortGraph()
    g.add_vertices(2)
    g.connect(0, 1)
    with pytest.raises(RuntimeError, match="not frozen"):
        g.offset(1)
    with pytest.raises(RuntimeError, match="not frozen"):
        g.shift_permutation()
    with pytest.raises(RuntimeError, match="not frozen"):
        g.shift_target(0, 0)


@given(edge_cases)
def test_edge_lines_round_trip_keeps_every_vertex(case):
    n, edges = case
    g = graph_from_edges(n, edges)
    back = PortGraph.from_edge_lines(g.to_edge_lines())
    assert back == g
    assert back.num_vertices == g.num_vertices
    assert back.frozen
