"""`adversary.search`, the one breadth-first search over event sequences,
and the clients that live in tests: criterion 3(c)'s coloring instances and
the unicast multilog witness."""

from itertools import combinations_with_replacement

import pytest

from switchlp import adversary, lpcert

from search_clients import (TYPES, ceil_div, coloring_formula,
                            coloring_moves, unicast_witness)


def graph_moves(edges, expanded):
    """`moves` over a toy graph {state: [(event, next or None), ...]},
    recording each state it expands."""
    def moves(state):
        expanded.append(state)
        yield from edges.get(state, [])
    return moves


def run(edges, max_depth=None):
    """(search's result from "s", the states it expanded in order)."""
    expanded = []
    return adversary.search("s", graph_moves(edges, expanded),
                            max_depth), expanded


class TestContract:
    def test_goal_at_start_is_one_event(self):
        assert run({"s": [("g", None)]}) == (["g"], ["s"])

    def test_path_is_every_event_in_order(self):
        # s -a-> x -b-> y -c-> z, and z's goal event g
        edges = {"s": [("a", "x")], "x": [("b", "y")], "y": [("c", "z")],
                 "z": [("g", None)]}
        assert run(edges)[0] == ["a", "b", "c", "g"]

    def test_shortest_goal_wins_over_a_deeper_one_found_first(self):
        # a depth-first walk meets g1 after three events; breadth-first
        # expands q's goal first, one level higher
        edges = {"s": [("a", "p"), ("b", "q")], "p": [("c", "r")],
                 "r": [("g1", None)], "q": [("g2", None)]}
        assert run(edges) == (["b", "g2"], ["s", "p", "q"])

    def test_closed_search_is_none(self):
        # a cycle back to the start is reached, never re-expanded
        edges = {"s": [("a", "x"), ("b", "y")], "x": [("c", "s")],
                 "y": [("d", "x")]}
        assert run(edges) == (None, ["s", "x", "y"])
        assert run(edges, max_depth=1) == (None, ["s", "x", "y"])

    def test_cut_search_is_empty(self):
        edges = {"s": [("a", "x")], "x": [("b", "y")], "y": [("g", None)]}
        assert run(edges, max_depth=1) == ([], ["s", "x"])
        assert run(edges, max_depth=2) == (["a", "b", "g"], ["s", "x", "y"])

    def test_depth_0_expands_only_start(self):
        edges = {"s": [("a", "x")], "x": [("g", None)]}
        assert run(edges, max_depth=0) == ([], ["s"])
        # a goal at the start still counts
        assert run({"s": [("a", "x"), ("g", None)]}, max_depth=0) == \
            (["g"], ["s"])

    def test_seen_successor_is_no_cut(self):
        # past max_depth only a state never reached is a cut
        edges = {"s": [("a", "x")], "x": [("b", "s")]}
        assert run(edges, max_depth=1) == (None, ["s", "x"])


# -- criterion 3(c) -----------------------------------------------------------

def profile(edges):
    """The sorted per-vertex (load, heavy degree) pairs of an edge list."""
    load, heavy = [0] * 4, [0] * 4
    for u, v, w in edges:
        for z in (u, v):
            load[z] += w
            heavy[z] += w == 60
    return tuple(sorted(zip(load, heavy)))


def test_coloring_search_visits_every_multiset_profile():
    # to depth 5, the search expands each profile of the 33,649 multisets
    # of at most 5 edges exactly once
    visited = []
    assert adversary.search(((0, 0),) * 4, coloring_moves(visited), 5) == []
    multisets = [ms for k in range(6)
                 for ms in combinations_with_replacement(TYPES, k)]
    assert len(multisets) == 33649
    assert len(visited) == len(set(visited))
    assert set(visited) == {profile(ms) for ms in multisets}


def test_coloring_search_finds_a_looser_bound_broken():
    # with +40 in place of +72 an instance of 2 edges breaks the bound; the
    # search names its profile after expanding 10 states
    visited = []
    moves = coloring_moves(visited, 40)
    *steps, bad = adversary.search(((0, 0),) * 4, moves, 8)
    assert len(visited) == 10
    state = ((0, 0),) * 4
    for step in steps:   # positions in the sorted state it is taken from
        state = dict(moves(state))[step]
    assert len(steps) == 2 and state == bad
    W, H = max(load for load, _ in bad), max(h for _, h in bad)
    assert 40 * coloring_formula(W, H) > 227 * max(ceil_div(W, 100), H) + 40
    assert 40 * coloring_formula(W, H) <= 227 * max(ceil_div(W, 100), H) + 72


# -- the unicast multilog witness ---------------------------------------------


def lp_m(d, n, mode):
    return int(lpcert.lp_optimum(
        lpcert.canonical_instance(d, n, n, 1, 1, mode))[0])


@pytest.mark.parametrize("d, n, mode", [(2, 2, "link"), (3, 2, "link"),
                                        (2, 2, "crosstalk")])
def test_reduced_search_keeps_the_witness_length(d, n, mode):
    # one state per orbit of the last-digit relabelings finds a drive as
    # short as the search over every address, from no more states
    m = lp_m(d, n, mode)
    lines, states = unicast_witness(d, n, mode, m)
    every, every_states = unicast_witness(d, n, mode, m, group=1)
    assert len(lines) == len(every)
    assert states <= every_states


@pytest.mark.parametrize("d, n, mode", [(2, 2, "link"), (2, 2, "crosstalk")])
def test_printed_m_closes_both_searches(d, n, mode):
    # at the printed m = M + 1 no FIRST_FIT drive blocks: both forms of the
    # search close
    m = lp_m(d, n, mode) + 1
    assert unicast_witness(d, n, mode, m)[0] is None
    assert unicast_witness(d, n, mode, m, group=1)[0] is None
