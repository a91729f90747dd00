"""Unit tests for cycle enumeration and cycle ratios."""

import random
from fractions import Fraction

import pytest

from repro.sdf.cycles import (
    cycle_ratio,
    max_cycle_ratio,
    per_actor_max_cycle_ratio,
    simple_cycles,
)
from repro.sdf.graph import SDFGraph, chain


@pytest.fixture
def two_cycle_graph():
    """Two nested cycles: a-b (2 tokens) and a-b-c (1 token)."""
    graph = SDFGraph()
    graph.add_actor("a", 1)
    graph.add_actor("b", 2)
    graph.add_actor("c", 3)
    graph.add_channel("ab", "a", "b")
    graph.add_channel("ba", "b", "a", tokens=2)
    graph.add_channel("bc", "b", "c")
    graph.add_channel("ca", "c", "a", tokens=1)
    return graph


def test_simple_cycles_found(two_cycle_graph):
    cycles = {frozenset(c) for c in simple_cycles(two_cycle_graph)}
    assert frozenset({"a", "b"}) in cycles
    assert frozenset({"a", "b", "c"}) in cycles
    assert len(cycles) == 2


def test_self_loop_is_a_cycle():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_channel("s", "a", "a", tokens=1)
    assert simple_cycles(graph) == [["a"]]


def test_acyclic_graph_has_no_cycles():
    assert simple_cycles(chain(["a", "b", "c"])) == []


def test_limit_caps_enumeration(two_cycle_graph):
    assert len(simple_cycles(two_cycle_graph, limit=1)) == 1


def test_cycle_ratio_exact_fraction(two_cycle_graph):
    weights = {"a": 1, "b": 2, "c": 3}
    short = next(
        c for c in simple_cycles(two_cycle_graph) if len(c) == 2
    )
    assert cycle_ratio(two_cycle_graph, short, weights) == Fraction(3, 2)
    long = next(c for c in simple_cycles(two_cycle_graph) if len(c) == 3)
    assert cycle_ratio(two_cycle_graph, long, weights) == Fraction(6, 1)


def test_token_free_cycle_is_infinite():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("ab", "a", "b")
    graph.add_channel("ba", "b", "a")
    (cycle,) = simple_cycles(graph)
    assert cycle_ratio(graph, cycle, {"a": 1, "b": 1}) == float("inf")


def test_parallel_channels_pick_min_denominator():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("ab", "a", "b")
    graph.add_channel("ba1", "b", "a", tokens=5)
    graph.add_channel("ba2", "b", "a", tokens=2)
    (cycle,) = simple_cycles(graph)
    # the tighter back channel (2 tokens) is the binding constraint
    assert cycle_ratio(graph, cycle, {"a": 1, "b": 1}) == Fraction(2, 2)


def test_consumption_rate_scales_denominator():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_channel("s", "a", "a", 2, 2, 4)
    (cycle,) = simple_cycles(graph)
    # Tok/q = 4/2 = 2
    assert cycle_ratio(graph, cycle, {"a": 6}) == Fraction(3)


def test_per_actor_max_cycle_ratio(two_cycle_graph):
    weights = {"a": 1, "b": 2, "c": 3}
    ratios = per_actor_max_cycle_ratio(two_cycle_graph, weights)
    assert ratios["c"] == Fraction(6)
    assert ratios["a"] == Fraction(6)  # on both cycles, max wins
    assert ratios["b"] == Fraction(6)


def test_per_actor_skips_acyclic_actors():
    graph = chain(["a", "b"])
    graph.add_channel("s", "a", "a", tokens=1)
    ratios = per_actor_max_cycle_ratio(graph, {"a": 5, "b": 7})
    assert "b" not in ratios
    assert ratios["a"] == Fraction(5)


def test_max_cycle_ratio_default_weights(simple_cycle_graph):
    # execution times 2 + 3 over 2 tokens
    assert max_cycle_ratio(simple_cycle_graph) == Fraction(5, 2)


def test_max_cycle_ratio_none_when_acyclic():
    assert max_cycle_ratio(chain(["a", "b"])) is None


def _random_graph(rng):
    """A small random digraph: self-loops and parallel channels arise
    with the random endpoints."""
    graph = SDFGraph("random")
    count = rng.randint(1, 7)
    for i in range(count):
        graph.add_actor(f"a{i}")
    for k in range(rng.randint(0, 4 * count)):
        src, dst = rng.randrange(count), rng.randrange(count)
        graph.add_channel(f"c{k}", f"a{src}", f"a{dst}", tokens=rng.randint(0, 2))
    return graph


def _canonical(cycle, order):
    """``cycle`` rotated to start at its earliest actor."""
    first = min(range(len(cycle)), key=lambda i: order[cycle[i]])
    return tuple(cycle[first:] + cycle[:first])


def _brute_force_cycles(graph):
    """Every simple cycle by exhaustive path extension: from each actor,
    every path through later actors that closes back on it."""
    order = {name: i for i, name in enumerate(graph.actor_names)}
    found = set()

    def extend(path):
        for succ in graph.successors(path[-1]):
            if succ == path[0]:
                found.add(tuple(path))
            elif order[succ] > order[path[0]] and succ not in path:
                extend(path + [succ])

    for name in graph.actor_names:
        extend([name])
    return found


def test_simple_cycles_match_brute_force_on_seeded_graphs():
    self_loops = parallel = cycles = 0
    for seed in range(400):
        graph = _random_graph(random.Random(seed))
        order = {name: i for i, name in enumerate(graph.actor_names)}
        expected = _brute_force_cycles(graph)
        enumerated = [_canonical(c, order) for c in simple_cycles(graph)]
        assert len(set(enumerated)) == len(enumerated), seed
        assert set(enumerated) == expected, seed
        capped = simple_cycles(graph, limit=len(expected) // 2)
        assert len(capped) == len(expected) // 2
        assert {_canonical(c, order) for c in capped} <= expected
        ends = [(c.src, c.dst) for c in graph.channels]
        self_loops += any(src == dst for src, dst in ends)
        parallel += len(set(ends)) < len(ends)
        cycles += len(expected)
    assert self_loops >= 300 and parallel >= 200 and cycles >= 1400


def test_limit_stops_the_search_early():
    # the complete digraph on 12 actors has over 10^8 simple cycles
    graph = SDFGraph("complete")
    for i in range(12):
        graph.add_actor(f"a{i}")
    for i in range(12):
        for j in range(12):
            if i != j:
                graph.add_channel(f"c{i}_{j}", f"a{i}", f"a{j}", tokens=1)
    assert len(simple_cycles(graph, limit=1000)) == 1000
