"""Unit tests for the CSDF subsystem."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.analysis import analyse_csdf, analyse_graph
from repro.csdf.analysis import (
    InconsistentCSDFError,
    csdf_repetition_vector,
    is_csdf_consistent,
    is_csdf_deadlock_free,
)
from repro.csdf.convert import csdf_to_sdf, sdf_to_csdf
from repro.csdf.graph import CSDFGraph
from repro.csdf.throughput import csdf_throughput
from repro.generate.random_sdf import random_sdfg
from repro.sdf.analysis import is_deadlock_free
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import InconsistentGraphError, repetition_vector
from repro.throughput.state_space import throughput


@pytest.fixture
def two_phase_cycle():
    """a (phases 1,2) <-> b (phase 3) with cyclo-static rates."""
    graph = CSDFGraph("cs")
    graph.add_actor("a", [1, 2])
    graph.add_actor("b", [3])
    graph.add_channel("ab", "a", "b", [1, 1], [2])
    graph.add_channel("ba", "b", "a", [2], [1, 1], tokens=2)
    return graph


class TestModel:
    def test_phase_count_and_times(self, two_phase_cycle):
        actor = two_phase_cycle.actor("a")
        assert actor.phase_count == 2
        assert actor.execution_time(0) == 1
        assert actor.execution_time(1) == 2
        assert actor.execution_time(2) == 1  # wraps

    def test_rate_sequence_length_checked(self):
        graph = CSDFGraph()
        graph.add_actor("a", [1, 2])
        graph.add_actor("b", [1])
        with pytest.raises(ValueError, match="sequence length"):
            graph.add_channel("d", "a", "b", [1], [1])

    def test_zero_phase_rates_allowed_but_not_all_zero(self):
        graph = CSDFGraph()
        graph.add_actor("a", [1, 1])
        graph.add_actor("b", [1])
        graph.add_channel("d", "a", "b", [0, 2], [2])
        with pytest.raises(ValueError, match="at least one token"):
            graph.add_channel("z", "a", "b", [0, 0], [1])

    def test_negative_rates_rejected(self):
        graph = CSDFGraph()
        graph.add_actor("a", [1])
        graph.add_actor("b", [1])
        with pytest.raises(ValueError):
            graph.add_channel("d", "a", "b", [-1], [1])


class TestAnalysis:
    def test_repetition_vector_counts_firings(self, two_phase_cycle):
        gamma = csdf_repetition_vector(two_phase_cycle)
        # one phase cycle of a (2 firings, 2 tokens) = 1 firing of b
        assert gamma == {"a": 2, "b": 1}
        cycles = csdf_repetition_vector(two_phase_cycle, firings=False)
        assert cycles == {"a": 1, "b": 1}

    def test_inconsistent_detected(self):
        graph = CSDFGraph()
        graph.add_actor("a", [1])
        graph.add_actor("b", [1])
        graph.add_channel("d1", "a", "b", [1], [1])
        graph.add_channel("d2", "a", "b", [2], [1])
        assert not is_csdf_consistent(graph)
        with pytest.raises(InconsistentCSDFError):
            csdf_repetition_vector(graph)

    def test_liveness(self, two_phase_cycle):
        assert is_csdf_deadlock_free(two_phase_cycle)

    def test_deadlock_detected(self):
        graph = CSDFGraph()
        graph.add_actor("a", [1])
        graph.add_actor("b", [1])
        graph.add_channel("ab", "a", "b", [1], [1])
        graph.add_channel("ba", "b", "a", [1], [1])  # no tokens
        assert not is_csdf_deadlock_free(graph)

    def test_phase_order_matters_for_liveness(self):
        # consuming phase first deadlocks; producing phase first lives
        graph = CSDFGraph()
        graph.add_actor("a", [1, 1])
        graph.add_actor("b", [1])
        graph.add_channel("ab", "a", "b", [1, 0], [1])
        graph.add_channel("ba", "b", "a", [1], [0, 1])
        assert is_csdf_deadlock_free(graph)
        flipped = CSDFGraph()
        flipped.add_actor("a", [1, 1])
        flipped.add_actor("b", [1])
        flipped.add_channel("ab", "a", "b", [0, 1], [1])
        flipped.add_channel("ba", "b", "a", [1], [1, 0])
        assert not is_csdf_deadlock_free(flipped)


def random_rated_sdf(rng, name):
    """A small SDF graph with random rates and tokens: unlike
    ``random_sdfg`` it is often inconsistent or deadlocked."""
    graph = SDFGraph(name)
    names = [f"a{i}" for i in range(rng.randint(1, 6))]
    target = {a: rng.randint(1, 3) for a in names}
    for a in names:
        graph.add_actor(a)
    for k in range(rng.randint(0, 8)):
        src, dst = rng.choice(names), rng.choice(names)
        if rng.random() < 0.8:
            production, consumption = target[dst], target[src]
        else:
            production, consumption = rng.randint(1, 3), rng.randint(1, 3)
        tokens = rng.choice([0, rng.randint(1, 2 * production * consumption)])
        graph.add_channel(f"c{k}", src, dst, production, consumption, tokens)
    return graph


def structural_findings(report):
    """Rule number, location and stalled-actor witness of the
    consistency, deadlock and dead-actor findings."""
    return [
        (d.rule_id[3:], d.location.element, d.message.partition("owed by ")[2])
        for d in report
        if d.rule_id[3:] in ("001", "002", "003")
    ]


class TestOnePhaseAgreement:
    def test_lift_gets_the_same_answers(self):
        rng = random.Random(18)
        outcomes = Counter()
        for index in range(200):
            sdf = random_rated_sdf(rng, f"g{index}")
            lifted = sdf_to_csdf(sdf)
            try:
                gamma = repetition_vector(sdf)
            except InconsistentGraphError as error:
                with pytest.raises(InconsistentGraphError) as lifted_error:
                    csdf_repetition_vector(lifted)
                assert str(lifted_error.value) == str(error)
                outcomes["inconsistent"] += 1
            else:
                assert csdf_repetition_vector(lifted) == gamma
                live = is_deadlock_free(sdf)
                assert is_csdf_deadlock_free(lifted) == live
                outcomes["live" if live else "deadlocked"] += 1
            assert structural_findings(analyse_graph(sdf)) == (
                structural_findings(analyse_csdf(lifted))
            )
        # the sample exercises every outcome
        assert min(outcomes[k] for k in ("inconsistent", "live", "deadlocked")) >= 20


class TestThroughput:
    def test_single_phase_matches_sdf_engine(self):
        # both concurrency modes over many graphs: this sweep is what
        # caught a lost-decrement bug in the CSDF engine's completion
        # handling, so keep it broad
        rng = random.Random(17)
        for _ in range(30):
            sdf = random_sdfg(rng=rng)
            for actor in sdf.actors:
                actor.execution_time = rng.randint(1, 7)
            lifted = sdf_to_csdf(sdf)
            for auto_concurrency in (True, False):
                expected = throughput(sdf, auto_concurrency=auto_concurrency)
                assert (
                    csdf_throughput(
                        lifted, auto_concurrency=auto_concurrency
                    ).iteration_rate
                    == expected.iteration_rate
                )
                # one front end: the lifted graph is explored state for
                # state and certified byte for byte like the SDF graph
                result = throughput(lifted, auto_concurrency=auto_concurrency)
                assert result.states_explored == expected.states_explored
                assert result.scc_rates == expected.scc_rates
                assert json.dumps(list(result.certificates.items())) == (
                    json.dumps(list(expected.certificates.items()))
                )

    def test_override_of_a_phased_actor_raises(self, two_phase_cycle):
        with pytest.raises(ValueError, match="phased actor"):
            throughput(two_phase_cycle, execution_times={"a": 2})
        # a one-phase actor takes its override, as in SDF
        slower = throughput(
            two_phase_cycle, execution_times={"b": 30}, auto_concurrency=False
        )
        assert slower.iteration_rate == Fraction(1, 33)

    def test_two_phase_cycle_rate(self, two_phase_cycle):
        result = csdf_throughput(two_phase_cycle, auto_concurrency=False)
        # serial: a0(1) a1(2) b(3) = 6 per iteration
        assert result.iteration_rate == Fraction(1, 6)
        assert result.of("a") == Fraction(2, 6)

    def test_phases_enable_finer_pipelining(self):
        """Splitting an actor into phases that release tokens early can
        only help throughput — the CSDF advantage over SDF."""
        sdf_like = CSDFGraph("coarse")
        sdf_like.add_actor("p", [4])
        sdf_like.add_actor("c", [4])
        sdf_like.add_channel("pc", "p", "c", [2], [2])
        sdf_like.add_channel("cp", "c", "p", [2], [2], tokens=2)
        phased = CSDFGraph("fine")
        phased.add_actor("p", [2, 2])  # same total work
        phased.add_actor("c", [4])
        phased.add_channel("pc", "p", "c", [1, 1], [2])
        phased.add_channel("cp", "c", "p", [2], [1, 1], tokens=2)
        coarse = csdf_throughput(sdf_like, auto_concurrency=False)
        fine = csdf_throughput(phased, auto_concurrency=False)
        assert fine.iteration_rate >= coarse.iteration_rate

    def test_deadlocked_graph_rate_zero(self):
        graph = CSDFGraph()
        graph.add_actor("a", [1])
        graph.add_actor("b", [1])
        graph.add_channel("ab", "a", "b", [1], [1])
        graph.add_channel("ba", "b", "a", [1], [1])
        result = csdf_throughput(graph)
        assert result.deadlocked

    def test_acyclic_unbounded_with_auto_concurrency(self):
        graph = CSDFGraph()
        graph.add_actor("a", [1, 2])
        graph.add_actor("b", [1])
        graph.add_channel("ab", "a", "b", [1, 1], [1])
        assert csdf_throughput(graph).iteration_rate == float("inf")

    def test_acyclic_bounded_without_auto_concurrency(self):
        graph = CSDFGraph()
        graph.add_actor("a", [1, 2])
        graph.add_actor("b", [1])
        graph.add_channel("ab", "a", "b", [1, 1], [1])
        result = csdf_throughput(graph, auto_concurrency=False)
        # a's phase cycle takes 3 time units and yields one iteration
        assert result.iteration_rate == Fraction(1, 3)

    def test_zero_time_phases(self):
        graph = CSDFGraph("z")
        graph.add_actor("a", [0, 2])
        graph.add_channel("s", "a", "a", [1, 1], [1, 1], tokens=1)
        result = csdf_throughput(graph)
        # two firings (one phase cycle) per 2 time units
        assert result.of("a") == Fraction(2, 2)


class TestConvert:
    def test_roundtrip_single_phase(self, chain_graph):
        lifted = sdf_to_csdf(chain_graph)
        lowered = csdf_to_sdf(lifted)
        assert lowered.actor_names == chain_graph.actor_names
        assert [
            (c.src, c.dst, c.production, c.consumption, c.tokens)
            for c in lowered.channels
        ] == [
            (c.src, c.dst, c.production, c.consumption, c.tokens)
            for c in chain_graph.channels
        ]

    def test_multi_phase_cannot_lower(self, two_phase_cycle):
        with pytest.raises(ValueError, match="no SDF equivalent"):
            csdf_to_sdf(two_phase_cycle)


class TestAggregation:
    def test_aggregate_collapses_phases(self, two_phase_cycle):
        from repro.csdf.convert import aggregate_csdf_to_sdf

        sdf = aggregate_csdf_to_sdf(two_phase_cycle)
        assert sdf.actor("a").execution_time == 3  # 1 + 2
        assert sdf.channel("ab").production == 2  # 1 + 1
        assert sdf.channel("ab").consumption == 2

    def test_aggregate_is_conservative(self, two_phase_cycle):
        from repro.csdf.convert import aggregate_csdf_to_sdf

        phased = csdf_throughput(
            two_phase_cycle, auto_concurrency=False
        ).iteration_rate
        aggregated = throughput(
            aggregate_csdf_to_sdf(two_phase_cycle), auto_concurrency=False
        ).iteration_rate
        assert aggregated <= phased

    def test_aggregate_of_split_recovers_original(self, chain_graph):
        from repro.csdf.convert import aggregate_csdf_to_sdf
        from repro.csdf.random_csdf import split_phases

        phased = split_phases(
            chain_graph, {"x": 1, "y": 2, "z": 3}, random.Random(1)
        )
        recovered = aggregate_csdf_to_sdf(phased)
        for actor in chain_graph.actors:
            assert (
                recovered.actor(actor.name).execution_time
                == actor.execution_time
            )
        for channel in chain_graph.channels:
            rebuilt = recovered.channel(channel.name)
            assert rebuilt.production == channel.production
            assert rebuilt.consumption == channel.consumption
            assert rebuilt.tokens == channel.tokens


class TestRandomCSDF:
    def test_generated_graphs_wellformed(self):
        from repro.csdf.analysis import (
            is_csdf_consistent,
            is_csdf_deadlock_free,
        )
        from repro.csdf.random_csdf import random_csdf

        for seed in range(15):
            graph = random_csdf(random.Random(seed))
            assert is_csdf_consistent(graph)
            assert is_csdf_deadlock_free(graph)

    def test_phase_durations_strictly_positive(self):
        from repro.csdf.random_csdf import random_csdf

        for seed in range(15):
            graph = random_csdf(random.Random(seed))
            for actor in graph.actors:
                assert all(t >= 1 for t in actor.execution_times)

    def test_deterministic(self):
        from repro.csdf.random_csdf import random_csdf

        first = random_csdf(random.Random(5))
        second = random_csdf(random.Random(5))
        assert [a.execution_times for a in first.actors] == [
            a.execution_times for a in second.actors
        ]

    def test_split_positive_validation(self):
        from repro.csdf.random_csdf import _split_positive

        with pytest.raises(ValueError):
            _split_positive(2, 3, random.Random(0))
        parts = _split_positive(10, 4, random.Random(0))
        assert sum(parts) == 10
        assert all(p >= 1 for p in parts)


class TestSerialisation:
    def test_roundtrip(self, two_phase_cycle):
        from repro.csdf.serialization import csdf_from_json, csdf_to_json

        restored = csdf_from_json(csdf_to_json(two_phase_cycle))
        assert restored.name == two_phase_cycle.name
        assert [a.execution_times for a in restored.actors] == [
            a.execution_times for a in two_phase_cycle.actors
        ]
        assert [
            (c.src, c.dst, c.productions, c.consumptions, c.tokens)
            for c in restored.channels
        ] == [
            (c.src, c.dst, c.productions, c.consumptions, c.tokens)
            for c in two_phase_cycle.channels
        ]

    def test_roundtrip_preserves_throughput(self, two_phase_cycle):
        from repro.csdf.serialization import csdf_from_json, csdf_to_json

        restored = csdf_from_json(csdf_to_json(two_phase_cycle))
        assert (
            csdf_throughput(restored).iteration_rate
            == csdf_throughput(two_phase_cycle).iteration_rate
        )

    def test_tokens_default_to_zero(self):
        from repro.csdf.serialization import csdf_from_dict

        graph = csdf_from_dict(
            {
                "actors": [
                    {"name": "a", "execution_times": [1, 2]},
                    {"name": "b", "execution_times": [1]},
                ],
                "channels": [
                    {
                        "name": "d",
                        "src": "a",
                        "dst": "b",
                        "productions": [1, 1],
                        "consumptions": [2],
                    }
                ],
            }
        )
        assert graph.channel("d").tokens == 0
