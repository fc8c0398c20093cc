import dataclasses
import functools
import hashlib
import inspect

import numpy as np
import pytest

from walklang import (
    CoinAssignment,
    PortGraph,
    classify,
    evolve,
    export_machine,
    initial_state,
    machine_for_length,
    member_word,
    sequential_ab,
    sequential_eq,
    sequential_word,
    spatial_ab,
    spatial_eq,
    vertex_probability,
    word_acceptance,
)
from walklang.coins import grover
from walklang.encoding import CHUNK, symbols
from walklang.machines import FAMILIES, Machine, acceptances, final_amplitudes
from walklang.walk import Program, WalkState, all_vertex_probabilities, vertex_masses

from helpers import (
    all_words,
    closed_form_acceptance,
    diagonal,
    reference_evolve,
    reference_load,
    reference_vertex_probabilities,
    slot_rows,
    spread,
)

# Exhaustive length-4 acceptance tables for the reference layouts, frozen
# from dense-matrix simulation and confirmed against the closed-form
# per-pair rules in helpers.closed_form_acceptance.
SPATIAL_EQ_2 = {
    "aaaa": 0.25, "aaab": 0.625, "aaba": 0.625, "aabb": 1.0,
    "abaa": 0.125, "abab": 0.25, "abba": 0.5, "abbb": 0.625,
    "baaa": 0.125, "baab": 0.5, "baba": 0.25, "babb": 0.625,
    "bbaa": 0.0, "bbab": 0.125, "bbba": 0.125, "bbbb": 0.25,
}
SPATIAL_AB_2 = {
    "aaaa": 0.25, "aaab": 0.625, "aaba": 0.125, "aabb": 0.25,
    "abaa": 0.625, "abab": 1.0, "abba": 0.5, "abbb": 0.625,
    "baaa": 0.125, "baab": 0.5, "baba": 0.0, "babb": 0.125,
    "bbaa": 0.25, "bbab": 0.625, "bbba": 0.125, "bbbb": 0.25,
}


# -- spatial machines --------------------------------------------------------

@pytest.mark.parametrize("pairs", range(1, 5))
def test_spatial_eq_member_certainty(pairs):
    machine = spatial_eq(pairs)
    word = "a" * pairs + "b" * pairs
    assert word_acceptance(machine, word) == pytest.approx(1.0, abs=1e-12)


def test_spatial_eq_rejects_reversed_word():
    assert word_acceptance(spatial_eq(2), "bbaa") == pytest.approx(0.0, abs=1e-12)


def test_spatial_eq_one_symbol_off_bound():
    machine = spatial_eq(2)
    p = word_acceptance(machine, "aaba")
    assert p <= 1 - 1 / 4 + 1e-12
    assert p == pytest.approx(0.625, abs=1e-12)


def test_spatial_eq_exhaustive_table():
    machine = spatial_eq(2)
    for word, expected in SPATIAL_EQ_2.items():
        assert word_acceptance(machine, word) == pytest.approx(expected, abs=1e-12)


def test_spatial_ab_members_and_table():
    assert word_acceptance(spatial_ab(1), "ab") == pytest.approx(1.0, abs=1e-12)
    machine = spatial_ab(2)
    for word, expected in SPATIAL_AB_2.items():
        assert word_acceptance(machine, word) == pytest.approx(expected, abs=1e-12)
    assert SPATIAL_AB_2["abba"] < 1
    # every populated slot of bbbb has an empty pairing partner, so only
    # the lone-rail quarter of each pair's mass comes through
    assert SPATIAL_AB_2["bbbb"] == 0.25


@pytest.mark.parametrize("family,builder", [("spatial-eq", spatial_eq), ("spatial-ab", spatial_ab)])
def test_spatial_member_lands_exactly_at_step_three(family, builder):
    machine = builder(3)
    state = initial_state(machine, member_word(family, 6))
    for steps, expected in ((0, 0.0), (1, 0.0), (2, 0.0), (3, 1.0)):
        evolved = evolve(state, machine.coins, steps)
        on_accept = sum(vertex_probability(evolved, v) for v in machine.accepting)
        assert on_accept == pytest.approx(expected, abs=1e-12)


def test_spatial_vertex_counts():
    for pairs in (1, 2, 4):
        n = 2 * pairs
        assert spatial_eq(pairs).graph.num_vertices == 4 * n + 1
        assert spatial_ab(pairs).graph.num_vertices == 4 * n + 1
        # the surplus symbol of an odd length adds 2 rails and 1 sink
        for family in ("spatial-eq", "spatial-ab"):
            assert machine_for_length(family, n + 1).graph.num_vertices == 4 * n + 4


@pytest.mark.parametrize("pairs", range(2, 9))
def test_spatial_eq_one_off_constant_matches_notes(pairs):
    machine = spatial_eq(pairs)
    word = "a" * pairs + "b" * (pairs - 1) + "a"
    p = word_acceptance(machine, word)
    assert p == pytest.approx(closed_form_acceptance(machine, word), abs=1e-12)
    assert p == pytest.approx(1 - 3 / (4 * pairs), abs=1e-12)
    assert p <= 1 - 1 / (2 * pairs) + 1e-12


def test_spatial_builders_reject_zero_pairs():
    with pytest.raises(ValueError):
        spatial_eq(0)
    with pytest.raises(ValueError):
        spatial_ab(0)


def test_odd_length_machine_sinks_surplus_symbol():
    machine = machine_for_length("spatial-eq", 3)
    assert machine.word_length == 3
    # the best odd word can do is its first 2m symbols' worth of mass
    for word in all_words(3):
        assert word_acceptance(machine, word) <= 2 / 3 + 1e-12
    assert word_acceptance(machine, "aba") == pytest.approx(2 / 3, abs=1e-12)


def test_length_one_machine_accepts_nothing():
    machine = machine_for_length("spatial-ab", 1)
    assert word_acceptance(machine, "a") == 0.0
    assert word_acceptance(machine, "b") == 0.0


# -- sequential machines -----------------------------------------------------

def test_sequential_ab_member_certainty_and_five_step_claim():
    machine = sequential_ab(4)
    state = initial_state(machine, "abab")
    after5 = evolve(state, machine.coins, 5)
    on_accept = sum(vertex_probability(after5, v) for v in machine.accepting)
    assert on_accept == pytest.approx(1.0, abs=1e-12)
    assert machine.steps == 6
    assert word_acceptance(machine, "abab") == pytest.approx(1.0, abs=1e-12)


def test_sequential_ab_smallest_member():
    assert word_acceptance(sequential_ab(2), "ab") == pytest.approx(1.0, abs=1e-12)


def test_sequential_ab_exhaustive_formula_n4():
    machine = sequential_ab(4)
    for word in all_words(4):
        expected = closed_form_acceptance(machine, word)
        assert word_acceptance(machine, word) == pytest.approx(expected, abs=1e-12)
        assert word_acceptance(machine, word) >= 0.5 - 1e-12


def test_sequential_ab_abba_measured_value():
    # the pair (a, b) at positions 1-2 comes through whole, position 3's b
    # and position 4's a each split at the mixer: 1/2 + 1/8 + 1/8
    assert word_acceptance(sequential_ab(4), "abba") == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sequential_ab_floor_other_lengths(n):
    machine = sequential_ab(n)
    for word in all_words(n):
        p = word_acceptance(machine, word)
        assert p == pytest.approx(closed_form_acceptance(machine, word), abs=1e-12)


def test_sequential_eq_members():
    assert word_acceptance(sequential_eq(1), "ab") == pytest.approx(1.0, abs=1e-12)
    assert word_acceptance(sequential_eq(2), "aabb") == pytest.approx(1.0, abs=1e-12)
    assert word_acceptance(sequential_eq(3), "aaabbb") == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("pairs", range(1, 9))
def test_sequential_member_certainty_all_sizes(pairs):
    assert word_acceptance(sequential_ab(2 * pairs), "ab" * pairs) == pytest.approx(
        1.0, abs=1e-12
    )
    assert word_acceptance(
        sequential_eq(pairs), "a" * pairs + "b" * pairs
    ) == pytest.approx(1.0, abs=1e-12)


def test_sequential_eq_delayed_interference_misses_abab():
    p = word_acceptance(sequential_eq(2), "abab")
    assert p < 1
    assert p == pytest.approx(0.5, abs=1e-12)


def test_sequential_eq_schedule():
    machine = sequential_eq(2)
    assert machine.steps == 4 + 2 + 1


def test_sequential_word_abab():
    machine = sequential_word("abab")
    assert machine.steps == 6
    assert machine.graph.num_vertices - machine.word_length == 8
    assert word_acceptance(machine, "abab") == pytest.approx(1.0, abs=1e-12)
    # acceptance of any other input counts matching positions only
    for word in all_words(4):
        matches = sum(1 for x, y in zip(word, "abab") if x == y)
        assert word_acceptance(machine, word) == pytest.approx(matches / 4, abs=1e-12)


def test_sequential_word_abba_equals_half():
    assert word_acceptance(sequential_word("abab"), "abba") == pytest.approx(0.5, abs=1e-12)


def test_sequential_word_singleton():
    machine = sequential_word("a")
    assert machine.steps == 3
    assert word_acceptance(machine, "b") == 0.0
    assert word_acceptance(machine, "a") == pytest.approx(1.0, abs=1e-12)


def test_sequential_word_starting_with_b():
    machine = sequential_word("ba")
    assert word_acceptance(machine, "ba") == pytest.approx(1.0, abs=1e-12)
    assert word_acceptance(machine, "ab") == pytest.approx(0.0, abs=1e-12)


def test_sequential_builders_reject_bad_sizes():
    with pytest.raises(ValueError):
        sequential_ab(0)
    with pytest.raises(ValueError):
        sequential_eq(0)
    with pytest.raises(ValueError):
        sequential_word("")


# -- acceptance, classification, margins -------------------------------------

def test_acceptance_probability_zero_steps_off_accept():
    machine = spatial_eq(1)
    state = initial_state(machine, "ab")
    assert sum(vertex_probability(state, v) for v in machine.accepting) == 0.0


def test_classify_verdicts():
    machine = spatial_eq(2)
    member, other = word_acceptance(machine, "aabb"), word_acceptance(machine, "abba")
    assert member == pytest.approx(1.0) and other == pytest.approx(0.5)
    assert classify(member, 0.9, 0.05) == "accept"
    assert classify(other, 0.9, 0.05) == "reject"
    assert classify(other, 0.5, 0.05) == "within-margin"
    # the largest acceptance of any family's word up to length 16 rounds above 1
    assert classify(1.0000000000000002) == "accept"
    with pytest.raises(ValueError):
        classify(member, 1.0, 0.05)
    with pytest.raises(ValueError):
        classify(member, 0.9, 0.0)


@pytest.mark.parametrize("p", [float("nan"), float("inf"), 7.0, -0.1, 1.0 + 2e-12])
def test_classify_rejects_what_is_not_a_probability(p):
    with pytest.raises(ValueError, match="acceptance probability must be in"):
        classify(p)


@pytest.mark.parametrize("margin", [float("nan"), float("inf")])
def test_classify_rejects_margins_that_are_not_positive_and_finite(margin):
    machine = spatial_eq(1)
    with pytest.raises(ValueError, match="margin"):
        classify(word_acceptance(machine, "ab"), 0.9, margin)


def test_classify_exhaustive_default_cutpoint():
    for pairs in (1, 2, 3, 4):
        machine = spatial_eq(pairs)
        member = member_word("spatial-eq", 2 * pairs)
        for word in all_words(2 * pairs):
            verdict = classify(word_acceptance(machine, word))
            assert verdict == ("accept" if word == member else "reject")


def test_empirical_error_margins():
    # the margin is the largest acceptance of a word of the machine's length
    # other than its member; a word machine's best other word misses one symbol
    margins = {}
    for machine, margin, tol in ((spatial_eq(1), 0.25, 1e-12), (spatial_eq(2), 0.625, 1e-12),
                                 (sequential_ab(4), 0.75, 1e-9),
                                 (sequential_word("abba"), 0.75, 1e-12)):
        words = all_words(machine.word_length)
        others = [p for w, p in zip(words, acceptances(machine, words).tolist())
                  if w != machine.member]
        margins[machine.family, machine.word_length] = max(others)
        assert max(others) == pytest.approx(margin, abs=tol)
    # the spatial maximum is attained by words one symbol away from the member
    machine = spatial_eq(2)
    one_off = max(
        word_acceptance(machine, w)
        for w in all_words(4)
        if sum(x != y for x, y in zip(w, "aabb")) == 1
    )
    assert one_off == pytest.approx(margins["spatial-eq", 4], abs=1e-12)


# -- structure and reproducibility -------------------------------------------

def test_machine_rejects_input_positions_that_share_a_slot():
    graph = PortGraph([(0, 2), (1, 2)])
    with pytest.raises(ValueError, match="input positions share flat slot 0$"):
        Machine(
            family="shared-rails",
            coins=CoinAssignment.by_degree(graph, grover), input_slots=((0, 1), (0, 1)),
            accepting=frozenset({2}), rejecting=frozenset(), steps=1,
        )
    # one rail serving as both the a-rail and the b-rail of a position
    with pytest.raises(ValueError, match="input positions share flat slot 1$"):
        Machine(
            family="shared-rails",
            coins=CoinAssignment.by_degree(graph, grover), input_slots=((1, 1),),
            accepting=frozenset({2}), rejecting=frozenset(), steps=1,
        )
    machine = sequential_ab(3)
    with pytest.raises(ValueError, match="input positions share flat slot 8$"):
        dataclasses.replace(machine, input_slots=(0, 2, 2), member=None)


def test_machine_rejects_overlapping_sets():
    machine = spatial_eq(1)
    with pytest.raises(ValueError, match="overlap"):
        Machine(
            family="spatial-eq",
            coins=machine.coins,
            input_slots=machine.input_slots,
            accepting=frozenset({5}),
            rejecting=frozenset({5}),
            steps=3,
        )
    with pytest.raises(ValueError, match="input"):
        Machine(
            family="spatial-eq",
            coins=machine.coins,
            input_slots=machine.input_slots,
            accepting=frozenset(machine.input_slots[0][:1]),
            rejecting=frozenset(),
            steps=3,
        )


def test_machine_graph_and_word_length_are_derived():
    machine = dataclasses.replace(spatial_eq(2), coins=spatial_ab(2).coins, member=None)
    assert machine.graph is machine.coins.graph
    assert machine.graph == spatial_ab(2).graph != spatial_eq(2).graph
    assert machine.word_length == len(machine.input_slots) == 4
    words = all_words(4)
    got = acceptances(machine, words)
    assert got.tolist() == [word_acceptance(machine, w) for w in words]
    # the rails of both layouts coincide, so these are the ab machine's numbers
    assert got.tolist() == pytest.approx([SPATIAL_AB_2[w] for w in words], abs=1e-12)
    with pytest.raises(TypeError):
        dataclasses.replace(machine, graph=spatial_eq(2).graph)
    with pytest.raises(dataclasses.FrozenInstanceError):
        machine.word_length = 3


# spatial_eq(2) reads its four symbols from the rails (0, 1), (2, 3), (4, 5) and (6, 7)
@pytest.mark.parametrize("change,message", [
    ({"accepting": frozenset({999})}, "id 999 is not a vertex"),
    ({"rejecting": frozenset({-1})}, "id -1 is not a vertex"),
    ({"steps": -1}, "non-negative int, got -1"),
    ({"steps": True}, "non-negative int, got True"),
    ({"steps": 2.5}, "non-negative int, got 2.5"),
    ({"accepting": {7}, "member": None}, "must be frozensets of vertex ids"),
    ({"rejecting": [0], "member": None}, "must be frozensets of vertex ids"),
    ({"accepting": frozenset({7.0}), "member": None}, "id 7.0 is not a vertex"),
    ({"accepting": frozenset({7.0})}, "id 7.0 is not a vertex"),
    ({"rejecting": frozenset({True}), "member": None}, "id True is not a vertex"),
    ({"input_slots": (), "member": None}, "at least one input position"),
    ({"input_slots": [(0, 1), (2, 3), (4, 5), (6, 7)]}, "must be a tuple"),
    ({"input_slots": ((0, 1), 2, (4, 5), (6, 7))}, "all \\(a-rail, b-rail\\) pairs or all ids"),
    ({"input_slots": (0, (2, 3), 4, 6)}, "id \\(2, 3\\) is not a vertex"),
    ({"input_slots": ((0, 1), (2, 3), (4, 5), (6, 7, 8))}, "all \\(a-rail, b-rail\\) pairs"),
    ({"input_slots": ((0, 1), (2, 3), (4, 5), (6, True))}, "id True is not a vertex"),
    ({"input_slots": ((0, 1), (2, 3), (4, 5), (6, 7.0))}, "id 7.0 is not a vertex"),
    ({"input_slots": ((0, 1), (2, 3), (4, 5), (6, np.int64(7)))},
     "id np.int64\\(7\\) is not a vertex"),
], ids=["accepting", "rejecting", "negative-steps", "bool-steps", "float-steps",
        "plain-set", "list", "float-id", "float-id-with-member", "bool-id", "no-input",
        "slot-list", "mixed-slots", "mixed-slots-chain-first", "three-rail-slot",
        "bool-slot-id", "float-slot-id", "numpy-slot-id"])
def test_machine_is_checked_whole_at_construction(change, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(spatial_eq(2), **change)


def test_machine_kind_is_derived_from_its_input_slots():
    machines = [machine_for_length(family, 4) for family in FAMILIES] + [sequential_word("abb")]
    kinds = ["spatial", "spatial", "sequential", "sequential", "sequential"]
    assert [m.kind for m in machines] == kinds
    for machine in machines:
        pair = isinstance(machine.input_slots[0], tuple)
        assert machine.kind == ("spatial" if pair else "sequential")
        with pytest.raises(TypeError):
            dataclasses.replace(machine, kind="sequential" if pair else "spatial")
        with pytest.raises(dataclasses.FrozenInstanceError):
            machine.kind = "spatial"
    # the chain vertices 0 and 1 read as one rail pair make a spatial machine
    machine = dataclasses.replace(sequential_ab(2), input_slots=((0, 1),), member=None)
    assert machine.kind == "spatial" and machine.word_length == 1
    assert machine.slot_indices == ((0, 4),)


def test_machine_layouts_are_pinned():
    digest = hashlib.sha256()
    for family in FAMILIES:
        for n in range(1, 17):
            machine = machine_for_length(family, n)
            digest.update((machine.graph.to_edge_lines() + machine.coins.to_text()).encode())
    assert digest.hexdigest() == (
        "b1ebff5f6d397d8412ddc6bd219337ec8818022e5f2b83651f50495aaed43e1e"
    )


@pytest.mark.parametrize("size", [0, -1, True, False, 1.5, 2.0, "2", None])
def test_builders_take_an_int_size_of_at_least_one(size):
    builders = [spatial_eq, spatial_ab, sequential_ab, sequential_eq]
    builders += [functools.partial(machine_for_length, family) for family in FAMILIES]
    for build in builders:
        with pytest.raises(ValueError, match=f"size must be an int >= 1, got {size!r}"):
            build(size)


def test_coin_dimensions_match_degrees():
    for machine in (spatial_eq(2), sequential_ab(3), sequential_word("aab")):
        for v in machine.graph.vertices:
            assert machine.coins.matrices[v].shape == (machine.graph.degree(v),) * 2


def test_rebuild_is_bit_identical():
    first, second = spatial_eq(3), spatial_eq(3)
    assert first.graph.to_edge_lines() == second.graph.to_edge_lines()
    assert first.coins.to_text() == second.coins.to_text()
    third, fourth = sequential_eq(2), sequential_eq(2)
    assert third.graph.to_edge_lines() == fourth.graph.to_edge_lines()
    assert third.coins.to_text() == fourth.coins.to_text()


def test_export_replays(tmp_path):
    machine = spatial_eq(1)
    paths = export_machine(machine, tmp_path)
    graph = PortGraph.from_edge_lines(paths["graph"].read_text())
    assert graph == machine.graph
    coins_back = CoinAssignment.from_text(graph, paths["coins"].read_text())
    for a, b in zip(coins_back.matrices, machine.coins.matrices):
        assert np.array_equal(a, b)
    header = paths["machine"].read_text()
    assert "family spatial-eq" in header
    assert "steps 3" in header
    accept_line = next(l for l in header.splitlines() if l.startswith("accepting"))
    assert accept_line.split()[1:] == [str(v) for v in sorted(machine.accepting)]


def test_machine_for_length_unknown_family():
    with pytest.raises(ValueError):
        machine_for_length("spatial-xy", 4)


# each family's language, stated here independently of the library
FAMILY_LANGUAGE = {"spatial-eq": "eq", "spatial-ab": "ab", "seq-ab": "ab", "seq-eq": "eq"}


# each language's member word for n = 2, 4, ..., 16, written out in full
REFERENCE_WORDS = {
    "eq": ["ab", "aabb", "aaabbb", "aaaabbbb", "aaaaabbbbb", "aaaaaabbbbbb",
           "aaaaaaabbbbbbb", "aaaaaaaabbbbbbbb"],
    "ab": ["ab", "abab", "ababab", "abababab", "ababababab", "abababababab",
           "ababababababab", "abababababababab"],
}


@pytest.mark.parametrize("family", FAMILIES)
def test_member_word_agrees_with_reference_word(family):
    assert set(FAMILY_LANGUAGE) == set(FAMILIES)
    expected = {len(w): w for w in REFERENCE_WORDS[FAMILY_LANGUAGE[family]]}
    assert sorted(expected) == list(range(2, 17, 2))
    for n in range(1, 17):
        assert member_word(family, n) == expected.get(n)
    with pytest.raises(ValueError, match="unknown family"):
        member_word("spatial-xy", 4)


def assert_evolve_matches_reference_loop(machine):
    for word in all_words(machine.word_length):
        state = initial_state(machine, word)
        got = evolve(state, machine.coins, machine.steps).amplitudes
        assert np.array_equal(got, reference_evolve(state, machine.coins, machine.steps))


@pytest.mark.parametrize("family", FAMILIES)
def test_evolve_matches_reference_loop_for_every_word(family):
    for n in range(1, 9):
        assert_evolve_matches_reference_loop(machine_for_length(family, n))


def test_sequential_word_evolve_matches_reference_loop():
    for target in ("a", "b", "ab", "ba", "abab", "abba", "bbaab", "aababb"):
        assert_evolve_matches_reference_loop(sequential_word(target))


def test_all_permutation_machine_routes_every_port():
    for target in ("ab", "abba", "aababb"):
        machine = sequential_word(target)
        assert machine.coins._kernel == ()  # no coin block is multiplied
        steps = 2 * machine.steps + 1
        for word in all_words(len(target)):
            state = initial_state(machine, word)
            got = evolve(state, machine.coins, steps).amplitudes
            assert np.array_equal(got, reference_evolve(state, machine.coins, steps))
            assert np.array_equal(np.sort_complex(got), np.sort_complex(state.amplitudes))


@pytest.mark.parametrize("family", FAMILIES)
def test_all_vertex_probabilities_match_reference_loop(family):
    for n in range(1, 9):
        machine = machine_for_length(family, n)
        for word in all_words(n):
            state = initial_state(machine, word)
            for s in (state, evolve(state, machine.coins, machine.steps)):
                got = all_vertex_probabilities(s)
                assert np.array_equal(got, reference_vertex_probabilities(s))


@pytest.mark.parametrize("family", FAMILIES)
def test_machine_member_cannot_be_rebound(family):
    machine = machine_for_length(family, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        machine.member = "abba"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del machine.member
    assert machine.member == member_word(family, 4)


# -- members and the closed-form acceptance rules ----------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_machine_names_its_member(family):
    for n in range(1, 9):
        assert machine_for_length(family, n).member == member_word(family, n)
    assert sequential_word("abba").member == "abba"


def test_sequential_eq_is_the_even_length_family_machine():
    assert list(inspect.signature(sequential_eq).parameters) == ["pairs"]
    for pairs in (1, 2, 3):
        built, general = sequential_eq(pairs), machine_for_length("seq-eq", 2 * pairs)
        assert built.graph.to_edge_lines() == general.graph.to_edge_lines()
        assert built.coins.to_text() == general.coins.to_text()
        assert (built.steps, built.member) == (general.steps, general.member)


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_acceptance_matches_every_word(family):
    for n in range(1, 13):
        machine = machine_for_length(family, n)
        for word in all_words(n):
            expected = closed_form_acceptance(machine, word)
            assert abs(word_acceptance(machine, word) - expected) <= 1e-12, (n, word)


def test_closed_form_acceptance_matches_every_word_machine():
    for n in range(1, 7):
        for target in all_words(n):
            machine = sequential_word(target)
            for word in all_words(n):
                expected = closed_form_acceptance(machine, word)
                assert abs(word_acceptance(machine, word) - expected) <= 1e-12, (target, word)


# -- the batched kernel and acceptances ----------------------------------------

def reference_rows(machine, w1s, w2s, etas):
    """Each input's final amplitudes by the per-word encoder and per-vertex loop."""
    return [
        reference_evolve(WalkState(machine.graph, reference_load(machine, w1, w2, eta)),
                         machine.coins, machine.steps)
        for w1, w2, eta in zip(w1s, w2s, etas)
    ]


@pytest.mark.parametrize("family", FAMILIES)
def test_evolve_batch_rows_match_reference_loop(family):
    rng = np.random.default_rng(sorted(FAMILIES).index(family))
    for n in range(1, 11):
        machine = machine_for_length(family, n)
        words = all_words(n)
        # mixed words, more of them than one chunk holds once n >= 7
        w1s = [words[i] for i in rng.integers(len(words), size=CHUNK + 6)]
        w2s = [words[i] for i in rng.integers(len(words), size=CHUNK + 6)]
        etas = np.exp(2j * np.pi * rng.random(CHUNK + 6)) * rng.random(CHUNK + 6)
        etas[:3] = (1.0, 0.0, -0.5)
        classical = reference_rows(machine, w1s, w1s, np.ones(len(w1s)))
        quantum = reference_rows(machine, w1s, w2s, etas)
        first, second = symbols(machine, w1s), symbols(machine, w2s)

        every = np.arange(machine.graph.num_ports)
        evolve_rows = Program(machine.coins, machine.steps, every)
        # the every-port program reads the slot rows spread onto the ports
        single = evolve_rows(spread(machine, slot_rows(machine, first[:1], first[:1], etas=[1.0])))
        assert single.shape == (1, machine.graph.num_ports)
        assert np.array_equal(single[0], classical[0])
        whole = evolve_rows(spread(machine, slot_rows(machine, first, first, etas=[1.0])))
        # every pair at every eta, over many chunks; pair k at eta k is row k of the loop
        grid = np.concatenate(list(final_amplitudes(machine, first, second, etas=etas)))
        assert len(grid) == len(w1s) * len(etas)
        slots = slot_rows(machine, first, second, etas=etas)
        assert np.array_equal(grid, evolve_rows(spread(machine, slots))), n
        chunked = grid[diagonal(len(w1s))]
        for k in range(len(w1s)):
            assert np.array_equal(whole[k], classical[k]), (n, k)
            assert np.array_equal(chunked[k], quantum[k]), (n, k)


@pytest.mark.parametrize("family", FAMILIES)
def test_acceptances_match_word_acceptance_bit_for_bit(family):
    for n in range(1, 9):
        machine = machine_for_length(family, n)
        words = all_words(n)
        got = acceptances(machine, words)
        expected = np.array([word_acceptance(machine, w) for w in words])
        assert got.tobytes() == expected.tobytes(), n
    assert acceptances(machine, []).shape == (0,)


def test_acceptances_sum_several_accepting_vertices_as_word_acceptance_does():
    for family in ("spatial-eq", "seq-ab"):
        base = machine_for_length(family, 6)
        inputs = set(np.ravel(base.input_slots).tolist())
        free = [v for v in base.graph.vertices if v not in inputs | base.rejecting]
        # every other free vertex: blocks of several degrees, not side by side
        machine = dataclasses.replace(base, accepting=frozenset(free[::2]), member=None)
        words = all_words(6)
        got = acceptances(machine, words)
        expected = np.array([word_acceptance(machine, w) for w in words])
        assert len(machine.accepting) >= 3
        assert got.tobytes() == expected.tobytes(), family


def test_sweep_and_qinput_run_one_program():
    machines = [machine_for_length(f, n) for f in FAMILIES for n in range(1, 13)]
    machines += [sequential_word(w) for n in range(1, 7) for w in all_words(n)]
    for machine in machines:
        graph, words = machine.graph, all_words(machine.word_length)
        rows = symbols(machine, words)
        # the rows qinput reads for a grid of words against themselves at eta = 1
        finals = np.concatenate(list(final_amplitudes(machine, rows, rows, etas=[1.0])))
        masses = sum((vertex_masses(finals[:, graph.offset(v):graph.offset(v) + graph.degree(v)])
                      for v in machine.accepting), np.zeros(len(rows)))
        assert acceptances(machine, words).tobytes() == masses.tobytes(), machine.family
        assert [v for v in vars(machine).values() if isinstance(v, Program)] == [
            machine._final_walk]


def test_a_machine_without_accepting_vertices_accepts_nothing():
    machine = sequential_ab(4)
    # no accepting vertex: every word is accepted with probability 0, as word_acceptance says
    closed = dataclasses.replace(machine, accepting=frozenset(), member=None)
    assert acceptances(closed, all_words(4)).tolist() == [0.0] * 16
    assert word_acceptance(closed, "abab") == 0


def test_member_word_is_checked_at_construction():
    machine = spatial_eq(2)
    with pytest.raises(ValueError, match=r"'abab' is accepted with probability 0\.25"):
        dataclasses.replace(machine, member="abab")
    with pytest.raises(ValueError, match="length 4, got 3"):
        dataclasses.replace(machine, member="aab")
    assert dataclasses.replace(machine, member=None).member is None
    assert dataclasses.replace(machine, member="aabb").member == "aabb"


@pytest.mark.parametrize("family", FAMILIES)
def test_programs_match_reference_loop_on_their_measured_ports(family):
    rng = np.random.default_rng(10 + sorted(FAMILIES).index(family))
    for n in range(1, 11):
        machine = machine_for_length(family, n)
        words = all_words(n)
        w1s = [words[i] for i in rng.integers(len(words), size=130)]
        w2s = [words[i] for i in rng.integers(len(words), size=130)]
        etas = np.exp(2j * np.pi * rng.random(130)) * rng.random(130)
        expected = np.array(reference_rows(machine, w1s, w2s, etas))
        classical = np.array(reference_rows(machine, w1s, w1s, np.ones(len(w1s))))
        graph = machine.graph
        # pair k at eta k, from the grid of every pair at every eta
        amps = slot_rows(machine, symbols(machine, w1s), symbols(machine, w2s), etas=etas)
        amps = amps[diagonal(len(w1s))]
        # one row, both sides of one chunk, and two chunks' worth
        for rows in (1, 63, 64, 65, 130):
            final = machine._final_walk(amps[:rows])
            assert final.flags.c_contiguous
            # equal values: a port the input never reaches may differ in the sign of 0
            assert np.array_equal(final, expected[:rows]), (n, rows)
            # the accepting ports, as sweep reads them; the square of either 0 is +0.0
            masses = sum((vertex_masses(classical[:rows, graph.offset(v):graph.offset(v)
                                                  + graph.degree(v)])
                          for v in machine.accepting), np.zeros(rows))
            assert acceptances(machine, w1s[:rows]).tobytes() == masses.tobytes(), (n, rows)


@pytest.mark.parametrize("family", FAMILIES)
def test_final_amplitudes_match_evolve_per_word_bit_for_bit(family):
    for n in range(1, 9):
        machine = machine_for_length(family, n)
        words = all_words(n)
        rows = symbols(machine, words)
        chunks = list(final_amplitudes(machine, rows, rows, etas=[1.0]))
        assert [len(c) for c in chunks[:-1]] == [CHUNK] * (len(chunks) - 1)
        for word, got in zip(words, np.concatenate(chunks)):
            state = evolve(initial_state(machine, word), machine.coins, machine.steps)
            assert got.tobytes() == state.amplitudes.tobytes(), (n, word)


def test_final_amplitudes_check_the_grid_whole():
    machine = spatial_eq(3)
    rows = symbols(machine, all_words(6))
    # etas of no dimension or of two, and etas given by position, are refused
    for etas, shape in ((np.float64(1.0), r"\(\)"), (np.ones((64, 1)), r"\(64, 1\)")):
        with pytest.raises(ValueError, match=rf"\(64, 6\) and \(64, 6\), etas of shape {shape}$"):
            next(final_amplitudes(machine, rows, rows, etas=etas))
    with pytest.raises(TypeError):
        final_amplitudes(machine, rows, rows, np.ones(64))
    twice = np.concatenate([rows, rows])
    with pytest.raises(ValueError, match=r"shapes \(64, 6\) and \(128, 6\)"):
        next(final_amplitudes(machine, rows, twice, etas=[1.0]))
    # a bad eta first read past the first chunk fails before any chunk is evolved
    etas = np.ones(CHUNK + 1)
    etas[CHUNK] = 2.0
    with pytest.raises(ValueError, match=r"\|eta\| must be <= 1, got 2\.0"):
        next(final_amplitudes(machine, twice, twice, etas=etas))
