"""Unit tests for the application model (Gamma, Theta, lambda)."""

from fractions import Fraction

import pytest

from repro.appmodel.application import (
    ActorRequirements,
    ApplicationGraph,
    ChannelRequirements,
)
from repro.arch.tile import ProcessorType
from repro.sdf import repetition
from repro.sdf.graph import SDFGraph, chain
from repro.sdf.validate import ValidationError

P1 = ProcessorType("p1")
P2 = ProcessorType("p2")


class TestActorRequirements:
    def test_supports(self):
        requirements = ActorRequirements()
        requirements.add(P1, 5, 100)
        assert requirements.supports(P1)
        assert not requirements.supports(P2)

    def test_lookup(self):
        requirements = ActorRequirements()
        requirements.add(P1, 5, 100)
        assert requirements.execution_time(P1) == 5
        assert requirements.memory(P1) == 100

    def test_worst_case_execution_time(self):
        requirements = ActorRequirements()
        requirements.add(P1, 5, 100)
        requirements.add(P2, 9, 50)
        assert requirements.worst_case_execution_time == 9

    def test_worst_case_requires_an_option(self):
        with pytest.raises(ValueError):
            _ = ActorRequirements().worst_case_execution_time

    def test_execution_time_must_be_positive(self):
        with pytest.raises(ValueError):
            ActorRequirements().add(P1, 0, 10)

    def test_memory_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ActorRequirements().add(P1, 1, -1)


class TestChannelRequirements:
    def test_crossable_depends_on_bandwidth(self):
        assert ChannelRequirements(bandwidth=10).crossable
        assert not ChannelRequirements(bandwidth=0).crossable

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            ChannelRequirements(token_size=-1)
        with pytest.raises(ValueError):
            ChannelRequirements(buffer_src=-1)


class TestApplicationGraph:
    def build(self):
        graph = chain(["a", "b"], [2, 3], tokens_on_back_edge=1)
        return ApplicationGraph(
            graph, throughput_constraint=Fraction(1, 10), output_actor="b"
        )

    def test_validates_graph_on_construction(self):
        bad = SDFGraph("bad")
        bad.add_actor("a")
        bad.add_actor("b")
        bad.add_channel("d1", "a", "b")
        bad.add_channel("d2", "b", "a")  # token-free cycle deadlocks
        with pytest.raises(ValidationError):
            ApplicationGraph(bad)

    def test_default_output_actor_is_last(self):
        graph = chain(["x", "y"], tokens_on_back_edge=1)
        assert ApplicationGraph(graph).output_actor == "y"

    def test_unknown_output_actor_rejected(self):
        graph = chain(["x", "y"], tokens_on_back_edge=1)
        with pytest.raises(KeyError):
            ApplicationGraph(graph, output_actor="ghost")

    def test_set_actor_requirements(self):
        app = self.build()
        app.set_actor_requirements("a", (P1, 4, 10), (P2, 6, 20))
        assert app.requirements("a").execution_time(P2) == 6

    def test_set_requirements_unknown_actor(self):
        app = self.build()
        with pytest.raises(KeyError):
            app.set_actor_requirements("ghost", (P1, 1, 1))

    def test_set_channel_requirements(self):
        app = self.build()
        app.set_channel_requirements("a->b", token_size=8, bandwidth=16)
        assert app.channel("a->b").token_size == 8

    def test_set_channel_requirements_unknown(self):
        app = self.build()
        with pytest.raises(KeyError):
            app.set_channel_requirements("nope")

    def test_gamma_exposed(self):
        app = self.build()
        assert app.gamma == {"a": 1, "b": 1}

    def test_validation_and_gamma_share_one_solve(self, monkeypatch):
        solved = []
        solve = repetition._propagate
        monkeypatch.setattr(
            repetition,
            "_propagate",
            lambda graph: solved.append(graph.name) or solve(graph),
        )
        app = self.build()
        clone = app.copy()
        assert solved == [app.name, clone.name]
        assert clone.gamma == app.gamma == {"a": 1, "b": 1}

    def test_check_complete_flags_missing_requirements(self):
        app = self.build()
        app.set_actor_requirements("a", (P1, 1, 1))
        with pytest.raises(ValueError, match="b"):
            app.check_complete()

    def test_total_worst_case_work(self):
        app = self.build()
        app.set_actor_requirements("a", (P1, 4, 10), (P2, 6, 20))
        app.set_actor_requirements("b", (P1, 10, 10))
        assert app.total_worst_case_work() == 16

    def test_repr_mentions_name_and_lambda(self):
        app = self.build()
        assert "1/10" in repr(app)


class TestPaperExampleModel:
    def test_table2_values(self, example_application):
        app = example_application
        assert app.requirements("a2").execution_time(P1) == 1
        assert app.requirements("a2").memory(P2) == 19
        theta = app.channel("d2")
        assert (theta.token_size, theta.buffer_tile, theta.bandwidth) == (
            100,
            2,
            10,
        )

    def test_d3_not_crossable(self, example_application):
        assert not example_application.channel("d3").crossable

    def test_table1_values(self, example_architecture):
        t1 = example_architecture.tile("t1")
        t2 = example_architecture.tile("t2")
        assert (t1.wheel, t1.memory, t1.max_connections) == (10, 700, 5)
        assert (t2.memory, t2.max_connections) == (500, 7)
        assert example_architecture.connection("t1", "t2").latency == 1

    def test_gamma_is_unit(self, example_application):
        assert example_application.gamma == {"a1": 1, "a2": 1, "a3": 1}
