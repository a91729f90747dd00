"""Edge cases of the SCC-decomposing driver in throughput/state_space.

The driver analyses every strongly connected component in isolation and
combines the component rates by taking the minimum (upstream components
throttle downstream ones).  These tests pin the behaviour for graphs
that are not strongly connected, trivial single-actor components,
deadlocks, and cross-component throttling.
"""

from fractions import Fraction

import pytest

from repro.csdf.graph import CSDFGraph
from repro.csdf.throughput import csdf_throughput
from repro.sdf.graph import SDFGraph
from repro.throughput.state_space import ThroughputResult, throughput


def _two_actor_cycle(graph, first, second, time_first, time_second, tokens):
    graph.add_actor(first, time_first)
    graph.add_actor(second, time_second)
    graph.add_channel(f"{first}{second}", first, second)
    graph.add_channel(f"{second}{first}", second, first, tokens=tokens)


class TestNonStronglyConnected:
    def test_acyclic_graph_is_unbounded(self):
        graph = SDFGraph("acyclic")
        graph.add_actor("a", 2)
        graph.add_actor("b", 3)
        graph.add_channel("ab", "a", "b")
        result = throughput(graph)
        assert result.iteration_rate == float("inf")
        assert result.of("a") == float("inf")
        assert not result.deadlocked
        assert result.scc_rates == {}

    def test_acyclic_without_auto_concurrency_limited_by_slowest(self):
        graph = SDFGraph("acyclic")
        graph.add_actor("a", 2)
        graph.add_actor("b", 5)
        graph.add_channel("ab", "a", "b")
        result = throughput(graph, auto_concurrency=False)
        # one-firing-at-a-time acts like a 1-token self-edge: 1/tau each
        assert result.iteration_rate == Fraction(1, 5)

    def test_cycle_feeding_an_acyclic_tail(self):
        graph = SDFGraph("cycle-tail")
        _two_actor_cycle(graph, "a", "b", 2, 3, tokens=1)
        graph.add_actor("sink", 100)  # unconstrained consumer
        graph.add_channel("bs", "b", "sink")
        result = throughput(graph)
        # only the (a, b) cycle constrains the rate; the sink's own
        # execution time is irrelevant under auto-concurrency
        assert result.iteration_rate == Fraction(1, 5)
        assert result.of("sink") == Fraction(1, 5)

    def test_component_rates_are_reported_per_scc(self):
        graph = SDFGraph("two-sccs")
        _two_actor_cycle(graph, "a", "b", 2, 3, tokens=1)
        _two_actor_cycle(graph, "c", "d", 1, 1, tokens=1)
        graph.add_channel("bc", "b", "c")
        result = throughput(graph)
        rates = {
            frozenset(component): rate
            for component, rate in result.scc_rates.items()
        }
        assert rates[frozenset({"a", "b"})] == Fraction(1, 5)
        assert rates[frozenset({"c", "d"})] == Fraction(1, 2)


class TestSingleActorComponents:
    def test_self_loop_actor_alone(self):
        graph = SDFGraph("selfloop")
        graph.add_actor("a", 4)
        graph.add_channel("aa", "a", "a", tokens=1)
        result = throughput(graph)
        assert result.iteration_rate == Fraction(1, 4)
        assert result.states_explored > 0

    def test_self_loop_with_two_tokens_pipelines(self):
        graph = SDFGraph("selfloop2")
        graph.add_actor("a", 4)
        graph.add_channel("aa", "a", "a", tokens=2)
        assert throughput(graph).iteration_rate == Fraction(2, 4)

    def test_tokenless_self_loop_deadlocks(self):
        graph = SDFGraph("stuck")
        graph.add_actor("a", 4)
        graph.add_channel("aa", "a", "a", tokens=0)
        result = throughput(graph)
        assert result.deadlocked
        assert result.of("a") == 0


class TestDeadlock:
    def test_tokenless_cycle_deadlocks_whole_graph(self):
        graph = SDFGraph("deadlock")
        _two_actor_cycle(graph, "a", "b", 2, 3, tokens=0)
        result = throughput(graph)
        assert result.deadlocked
        assert result.iteration_rate == 0

    def test_deadlocked_component_zeroes_a_live_one(self):
        graph = SDFGraph("half-dead")
        _two_actor_cycle(graph, "a", "b", 2, 3, tokens=1)  # live
        _two_actor_cycle(graph, "c", "d", 1, 1, tokens=0)  # deadlocked
        graph.add_channel("bc", "b", "c")
        result = throughput(graph)
        assert result.deadlocked
        assert result.iteration_rate == 0


class TestCrossComponentThrottling:
    def test_slow_upstream_throttles_fast_downstream(self):
        graph = SDFGraph("throttle")
        _two_actor_cycle(graph, "a", "b", 10, 10, tokens=1)  # period 20
        _two_actor_cycle(graph, "c", "d", 1, 1, tokens=1)  # period 2
        graph.add_channel("bc", "b", "c")
        result = throughput(graph)
        assert result.iteration_rate == Fraction(1, 20)
        # the downstream actors can only sustain the upstream rate
        assert result.of("c") == Fraction(1, 20)

    def test_fast_upstream_does_not_unthrottle_slow_downstream(self):
        graph = SDFGraph("slow-tail")
        _two_actor_cycle(graph, "a", "b", 1, 1, tokens=1)  # period 2
        _two_actor_cycle(graph, "c", "d", 10, 10, tokens=1)  # period 20
        graph.add_channel("bc", "b", "c")
        result = throughput(graph)
        assert result.iteration_rate == Fraction(1, 20)

    def test_multirate_components_scale_by_gamma(self):
        graph = SDFGraph("multirate-sccs")
        graph.add_actor("a", 4)
        graph.add_channel("aa", "a", "a", tokens=1)  # a alone: 1/4
        graph.add_actor("b", 1)
        graph.add_channel("bb", "b", "b", tokens=1)
        graph.add_channel("ab", "a", "b", 1, 2)  # a fires twice per b
        result = throughput(graph)
        # gamma = (a: 2, b: 1): an iteration needs two a firings at
        # 1/4 each (component rate 1/8) and one b firing (rate 1/1)
        assert result.gamma == {"a": 2, "b": 1}
        assert result.iteration_rate == Fraction(1, 8)
        assert result.of("a") == Fraction(1, 4)


class TestThroughputResultOf:
    def test_missing_actor_reports_zero_rate(self):
        result = ThroughputResult(iteration_rate=Fraction(1, 5), gamma={"a": 1})
        assert result.of("ghost") == Fraction(0)

    def test_missing_actor_on_unbounded_graph_reports_zero(self):
        result = ThroughputResult(iteration_rate=float("inf"), gamma={"a": 1})
        assert result.of("ghost") == Fraction(0)

    def test_known_actor_still_scales_by_gamma(self):
        result = ThroughputResult(iteration_rate=Fraction(1, 6), gamma={"a": 3})
        assert result.of("a") == Fraction(1, 2)

    def test_missing_actor_from_driver_result(self, simple_cycle_graph):
        result = throughput(simple_cycle_graph)
        assert result.of("not-an-actor") == Fraction(0)

    def test_missing_actor_from_csdf_result(self):
        graph = CSDFGraph("ring")
        graph.add_actor("a", [1, 2])
        graph.add_actor("b", [1])
        graph.add_channel("ab", "a", "b", [1, 1], [2])
        graph.add_channel("ba", "b", "a", [2], [1, 1], tokens=2)
        result = csdf_throughput(graph)
        assert result.of("ghost") == Fraction(0)
        assert result.of("a") == result.iteration_rate * 2
