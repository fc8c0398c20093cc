import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from walklang import PortGraph, spatial_eq

from helpers import counted_pairing, graph_from_edges


def edge_list(g: PortGraph) -> list[tuple[int, int]]:
    return [tuple(map(int, line.split())) for line in g.to_edge_lines().splitlines()]


def assert_pairs(g: PortGraph, table: dict[tuple[int, int], tuple[int, int]]) -> None:
    """The shift pairs each port of ``table`` as listed, and as the per-edge counter does."""
    pairing = counted_pairing(edge_list(g))
    for (v, c), (w, d) in table.items():
        assert pairing[(v, c)] == (w, d)
        assert g.shift_permutation()[g.offset(v) + c] == g.offset(w) + d


def test_vertex_count_is_the_largest_id_plus_one():
    g = PortGraph([(0, 3), (1, 2)])
    assert g.num_vertices == 4
    assert list(g.vertices) == [0, 1, 2, 3]


def test_connect_first_edge_ports():
    g = PortGraph([(0, 1)])
    assert g.degree(0) == 1 and g.degree(1) == 1
    assert_pairs(g, {(0, 0): (1, 0)})


def test_self_loop_uses_two_ports():
    g = PortGraph([(0, 0), (0, 0)])
    assert g.degree(0) == 4
    assert_pairs(g, {(0, 2): (0, 3), (0, 3): (0, 2)})


def test_two_edges_pairing_table():
    # edges (0,1) then (0,2): vertex 0 carries ports 0 and 1
    g = PortGraph([(0, 1), (0, 2)])
    assert g.degree(0) == 2
    assert_pairs(g, {(0, 0): (1, 0), (0, 1): (2, 0), (2, 0): (0, 1)})


def test_three_cycle_pairing_table():
    g = PortGraph([(0, 1), (1, 2), (2, 0)])
    assert_pairs(g, {(2, 1): (0, 1), (0, 0): (1, 0), (1, 1): (2, 0)})


def test_shift_single_edge():
    g = PortGraph([(0, 1)])
    assert_pairs(g, {(0, 0): (1, 0), (1, 0): (0, 0)})


def test_connect_unknown_vertex():
    g = PortGraph([(0, 1)])
    with pytest.raises(ValueError, match="unknown vertex"):
        g.degree(5)
    with pytest.raises(ValueError, match="vertex ids must be non-negative"):
        PortGraph([(0, 1), (-1, 0)])
    with pytest.raises(ValueError, match="line 2: vertex ids must be non-negative"):
        PortGraph.from_edge_lines("0 1\n-1 0\n")


def test_offset_rejects_unknown_vertex():
    g = graph_from_edges(2, [(0, 1)])
    for v in (-1, 2, 3):
        with pytest.raises(ValueError, match=f"unknown vertex id {v}"):
            g.offset(v)


def test_empty_edge_list_is_rejected():
    with pytest.raises(ValueError, match="graph has no edges"):
        PortGraph([])
    for text in ("", "\n# only a comment\n"):
        with pytest.raises(ValueError, match="graph has no edges"):
            PortGraph.from_edge_lines(text)


def test_edges_must_be_pairs():
    for edges in ([(0, 1, 2)], [(0.0, 1.0)], [(False, True)]):
        with pytest.raises(ValueError, match=r"\(u, v\) pair of integer ids"):
            PortGraph(edges)


def test_vertex_ids_are_integers_in_edges_and_lookups():
    # a bool, a float or a string is not a vertex id, even where it equals one
    for edges in ([(True, 0)], [(0, 1.5)], [(0, "a")], [(0, 1), (1, np.True_)]):
        with pytest.raises(ValueError, match=r"\(u, v\) pair of integer ids"):
            PortGraph(edges)
    g = PortGraph([(0, 1), (1, 1)])
    for v in (True, False, 0.5, 1.0, "0", None):
        for lookup in (g.degree, g.offset):
            with pytest.raises(ValueError, match="unknown vertex id"):
                lookup(v)
    # numpy integers are ids, in an edge and in a lookup
    h = PortGraph([(np.int64(0), np.int32(1)), (np.uint8(1), 1)])
    assert h == g and h.to_edge_lines() == "0 1\n1 1\n"
    assert np.array_equal(h.shift_permutation(), g.shift_permutation())
    assert g.degree(np.int64(1)) == 3 and g.offset(np.uint8(1)) == 1
    assert g.offset(np.int32(1)) == 1


def test_shift_array_is_read_only():
    # a writeable shift let one write pair port 0 with itself, and the walk lose norm
    g = spatial_eq(1).graph
    assert_pairs(g, {(0, 0): (4, 0)})
    with pytest.raises(ValueError, match="read-only"):
        g.shift_permutation()[0] = 0
    assert_pairs(g, {(0, 0): (4, 0)})
    with pytest.raises(ValueError, match="read-only"):
        g._offsets[1] = 0
    assert g.offset(1) == 1


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


@given(edge_cases)
def test_shift_matches_a_per_edge_port_counter(case):
    n, edges = case
    g = graph_from_edges(n, edges)
    pairing = counted_pairing(edge_list(g))
    assert len(pairing) == g.num_ports
    for (v, c), (w, d) in pairing.items():
        assert g.shift_permutation()[g.offset(v) + c] == g.offset(w) + d


@given(edge_cases)
def test_degree_sum_counts_edge_ends(case):
    n, edges = case
    g = graph_from_edges(n, edges)
    assert sum(g.degree(v) for v in g.vertices) == 2 * len(edge_list(g)) == g.num_ports


def test_edge_lines_round_trip():
    # a parallel edge, a self-loop, then an edge back to 0
    g = PortGraph([(0, 1), (0, 1), (2, 2), (3, 0)])
    text = g.to_edge_lines()
    back = PortGraph.from_edge_lines(text)
    assert back == g
    assert back.to_edge_lines() == text
    assert_pairs(back, {(0, 1): (1, 1)})


def test_edge_lines_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        PortGraph.from_edge_lines("0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="line 1"):
        PortGraph.from_edge_lines("zero one\n")


def test_freeze_rejects_portless_vertex():
    with pytest.raises(ValueError, match="vertex 2 has no ports"):
        PortGraph([(0, 1), (1, 3)])
    # an id too large for int64 is a gap too, found before numpy sees it
    with pytest.raises(ValueError, match="vertex 1 has no ports"):
        PortGraph([(0, 10**20)])


def test_edge_lines_with_a_gap_are_rejected():
    for text in ("0 2\n", "0 99999999999999999999\n"):
        with pytest.raises(ValueError, match="vertex 1 has no ports"):
            PortGraph.from_edge_lines(text)


def test_edge_lines_gap_is_rejected_without_allocating_up_to_the_largest_id():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex 1 has no ports"):
            PortGraph.from_edge_lines("0 1000000\n")
        with pytest.raises(ValueError, match="vertex 1 has no ports"):
            PortGraph([(0, 1_000_000)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@given(edge_cases)
def test_edge_lines_round_trip_keeps_every_vertex(case):
    n, edges = case
    g = graph_from_edges(n, edges)
    back = PortGraph.from_edge_lines(g.to_edge_lines())
    assert back == g
    assert back.num_vertices == g.num_vertices
    assert np.array_equal(back.shift_permutation(), g.shift_permutation())
