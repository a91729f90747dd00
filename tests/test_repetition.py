"""Unit tests for repetition vectors and consistency."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from repro.csdf.graph import CSDFGraph
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import (
    InconsistentGraphError,
    balance,
    is_consistent,
    iteration_length,
    repetition_vector,
)
from repro.sdf.serialization import graph_to_dict
from repro.verify.allocation import _repetition_vector


def test_single_rate_graph_has_unit_vector(chain_graph):
    assert repetition_vector(chain_graph) == {"x": 1, "y": 1, "z": 1}


def test_multirate_vector(multirate_graph):
    assert repetition_vector(multirate_graph) == {"a": 3, "b": 2}


def test_vector_is_minimal():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("d", "a", "b", 4, 6)
    # 4 * gamma(a) = 6 * gamma(b)  =>  smallest is (3, 2)
    assert repetition_vector(graph) == {"a": 3, "b": 2}


def test_vector_satisfies_balance_equations(multirate_graph):
    gamma = repetition_vector(multirate_graph)
    for channel in multirate_graph.channels:
        assert (
            channel.production * gamma[channel.src]
            == channel.consumption * gamma[channel.dst]
        )


def test_inconsistent_graph_raises():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("d1", "a", "b", 1, 1)
    graph.add_channel("d2", "a", "b", 2, 1)
    with pytest.raises(InconsistentGraphError):
        repetition_vector(graph)


def test_inconsistent_cycle_detected_via_incoming_edge():
    # inconsistency discovered while walking an in-channel
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_actor("c")
    graph.add_channel("d1", "a", "b", 1, 1)
    graph.add_channel("d2", "c", "b", 1, 1)
    graph.add_channel("d3", "c", "a", 3, 1)
    with pytest.raises(InconsistentGraphError):
        repetition_vector(graph)


def test_is_consistent_false_instead_of_raise():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("d1", "a", "b", 1, 2)
    graph.add_channel("d2", "b", "a", 1, 2)
    assert not is_consistent(graph)


def test_is_consistent_true(multirate_graph):
    assert is_consistent(multirate_graph)


def test_empty_graph_has_empty_vector():
    assert repetition_vector(SDFGraph()) == {}


def test_disconnected_components_scaled_independently():
    graph = SDFGraph()
    for name in ("a", "b", "c", "d"):
        graph.add_actor(name)
    graph.add_channel("d1", "a", "b", 2, 1)
    graph.add_channel("d2", "c", "d", 1, 3)
    gamma = repetition_vector(graph)
    # Both components reduced jointly to the overall smallest vector.
    assert gamma["b"] == 2 * gamma["a"]
    assert gamma["c"] == 3 * gamma["d"]
    values = sorted(gamma.values())
    assert values[0] == 1


def test_self_loop_with_equal_rates_is_consistent():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_channel("s", "a", "a", 2, 2, 2)
    assert repetition_vector(graph) == {"a": 1}


def test_self_loop_with_unequal_rates_is_inconsistent():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_channel("s", "a", "a", 2, 3)
    with pytest.raises(InconsistentGraphError):
        repetition_vector(graph)


def test_iteration_length_matches_hsdf_size_claim():
    # the paper's H.263 figure: 1 + 2376 + 2376 + 1 = 4754
    graph = SDFGraph()
    for name in ("vld", "iq", "idct", "mc"):
        graph.add_actor(name)
    graph.add_channel("d1", "vld", "iq", 2376, 1)
    graph.add_channel("d2", "iq", "idct", 1, 1)
    graph.add_channel("d3", "idct", "mc", 1, 2376)
    assert iteration_length(graph) == 4754


def test_iteration_length_accepts_precomputed_gamma(multirate_graph):
    gamma = repetition_vector(multirate_graph)
    assert iteration_length(multirate_graph, gamma) == 5


# -- differential: the integer-pair solver against the same propagation
# on Fraction values, and SDF vectors against the verifier's own solver


def reference_balance(graph):
    """:func:`balance`'s propagation on ``Fraction`` values: the
    reference its integer pairs must match, rate for rate."""
    rates = {}
    conflicts = []
    for seed in graph.actor_names:
        if seed in rates:
            continue
        rates[seed] = Fraction(1)
        stack = [seed]
        clean = True
        while stack:
            actor = stack.pop()
            rate = rates[actor]
            implied = [
                (c, c.dst, rate * c.total_production / c.total_consumption)
                for c in graph.out_channels(actor)
            ]
            implied += [
                (c, c.src, rate * c.total_consumption / c.total_production)
                for c in graph.in_channels(actor)
            ]
            for channel, other, value in implied:
                known = rates.get(other)
                if known is None:
                    rates[other] = value
                    stack.append(other)
                elif known != value and clean:
                    conflicts.append((channel, other, value, known))
                    clean = False
    return rates, conflicts


def reference_repetition_vector(graph):
    """:func:`repetition_vector` on :func:`reference_balance`'s rates."""
    rates, conflicts = reference_balance(graph)
    if conflicts:
        channel, actor, implied, known = conflicts[0]
        raise InconsistentGraphError(
            f"graph {graph.name!r}: channel {channel.name!r} "
            f"implies gamma({actor}) = {implied}, but "
            f"{known} was already derived"
        )
    scale = lcm(*(rate.denominator for rate in rates.values()))
    cycles = {name: int(rate * scale) for name, rate in rates.items()}
    common = gcd(*cycles.values())
    return {
        name: count // common * graph.actor(name).phase_count
        for name, count in cycles.items()
    }


def _cycle_totals(rng, target, src, dst, balanced):
    """Phase-cycle totals of one channel: balanced against the target
    cycle counts (times a random factor) with probability ``balanced``,
    random otherwise."""
    if rng.random() < balanced:
        factor = rng.randint(1, 2)
        return target[dst] * factor, target[src] * factor
    return rng.randint(1, 6), rng.randint(1, 6)


def random_differential_sdf(rng, name):
    """Up to 8 actors and 12 channels.  Half the graphs have random
    rates only and one in four half random, so most graphs are
    inconsistent; the last quarter balances every channel, so that
    consistent graphs have cycles too.  Self-loops and several weakly
    connected components are common."""
    graph = SDFGraph(name)
    names = [f"a{i}" for i in range(rng.randint(1, 8))]
    target = {a: rng.randint(1, 6) for a in names}
    balanced = rng.choice((0.0, 0.0, 0.5, 1.0))
    for a in names:
        graph.add_actor(a)
    for k in range(rng.randint(0, 12)):
        src, dst = rng.choice(names), rng.choice(names)
        production, consumption = _cycle_totals(rng, target, src, dst, balanced)
        tokens = rng.randint(0, 3)
        graph.add_channel(f"c{k}", src, dst, production, consumption, tokens)
    return graph


def _split(rng, total, parts):
    """``total`` as ``parts`` non-negative phase rates."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_differential_csdf(rng, name):
    """Like :func:`random_differential_sdf`, with 1-3 phases per actor
    (at least one actor multi-phase) and each channel's cycle totals
    split over the phases at random, zero rates included."""
    graph = CSDFGraph(name)
    names = [f"a{i}" for i in range(rng.randint(1, 8))]
    phases = {a: rng.randint(1, 3) for a in names}
    phases[rng.choice(names)] = rng.randint(2, 3)
    target = {a: rng.randint(1, 6) for a in names}
    balanced = rng.choice((0.0, 0.0, 0.5, 1.0))
    for a in names:
        graph.add_actor(a, [rng.randint(1, 4) for _ in range(phases[a])])
    for k in range(rng.randint(0, 12)):
        src, dst = rng.choice(names), rng.choice(names)
        production, consumption = _cycle_totals(rng, target, src, dst, balanced)
        graph.add_channel(
            f"c{k}",
            src,
            dst,
            _split(rng, production, phases[src]),
            _split(rng, consumption, phases[dst]),
            tokens=rng.randint(0, 3),
        )
    return graph


def _outcome(solver, graph):
    try:
        return solver(graph)
    except InconsistentGraphError as error:
        return str(error)


def _solve_both(graph):
    """Assert the solver agrees with the reference on ``graph``; return
    whether ``graph`` is consistent."""
    rates, conflicts = balance(graph)
    expected_rates, expected_conflicts = reference_balance(graph)
    assert list(rates.items()) == list(expected_rates.items())
    assert all(type(rate) is Fraction for rate in rates.values())
    assert [(c.name, a, i, k) for c, a, i, k in conflicts] == [
        (c.name, a, i, k) for c, a, i, k in expected_conflicts
    ]
    assert all(
        type(implied) is Fraction and type(known) is Fraction
        for _, _, implied, known in conflicts
    )
    assert _outcome(repetition_vector, graph) == _outcome(
        reference_repetition_vector, graph
    )
    assert is_consistent(graph) == (not expected_conflicts)
    return not expected_conflicts


def _shape(graph):
    """Whether ``graph`` has a self-loop, and whether it has more than
    one weakly connected component."""
    parent = {a: a for a in graph.actor_names}

    def root(actor):
        while parent[actor] != actor:
            actor = parent[actor]
        return actor

    for channel in graph.channels:
        parent[root(channel.src)] = root(channel.dst)
    return (
        any(c.src == c.dst for c in graph.channels),
        len({root(a) for a in graph.actor_names}) > 1,
    )


def _tally(outcomes, graph, consistent):
    self_loop, disconnected = _shape(graph)
    outcomes["consistent" if consistent else "inconsistent"] += 1
    # as many channels as actors: some channel closes an undirected
    # cycle, so the solver compared a derived rate and found it equal
    outcomes["consistent with a cycle"] += consistent and len(
        graph.channels
    ) >= len(graph.actor_names)
    outcomes["self-loop"] += self_loop
    outcomes["disconnected"] += disconnected


def test_integer_solver_matches_fraction_solver_on_random_sdf():
    rng = random.Random(19)
    outcomes = Counter()
    for index in range(3000):
        graph = random_differential_sdf(rng, f"sdf{index}")
        consistent = _solve_both(graph)
        verified = _repetition_vector(graph_to_dict(graph))
        if consistent:
            assert verified == repetition_vector(graph)
        else:
            assert verified is None
        _tally(outcomes, graph, consistent)
    # most graphs are inconsistent; every shape is well represented
    assert outcomes["inconsistent"] > 1500, outcomes
    assert min(outcomes.values()) >= 300, outcomes


def test_integer_solver_matches_fraction_solver_on_random_csdf():
    rng = random.Random(1019)
    outcomes = Counter()
    for index in range(1000):
        graph = random_differential_csdf(rng, f"csdf{index}")
        _tally(outcomes, graph, _solve_both(graph))
    assert min(outcomes.values()) >= 100, outcomes
