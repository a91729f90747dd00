"""Unit tests for graph validation."""

import pytest

from repro.sdf.graph import SDFGraph, chain
from repro.sdf.validate import ValidationError, validate_graph, validation_problems


def test_valid_graph_passes(chain_graph):
    validate_graph(chain_graph)  # must not raise
    assert validation_problems(chain_graph) == []


def test_empty_graph_rejected():
    problems = validation_problems(SDFGraph())
    assert problems == ["graph has no actors"]
    with pytest.raises(ValidationError):
        validate_graph(SDFGraph())


def test_inconsistent_graph_reported():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("d1", "a", "b", 1, 1)
    graph.add_channel("d2", "b", "a", 2, 1)
    problems = validation_problems(graph)
    assert any("inconsistent" in p for p in problems)


def test_deadlock_reported():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("d1", "a", "b")
    graph.add_channel("d2", "b", "a")
    problems = validation_problems(graph)
    assert any("deadlock" in p for p in problems)


def test_deadlock_check_optional():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("d1", "a", "b")
    graph.add_channel("d2", "b", "a")
    assert validation_problems(graph, require_deadlock_free=False) == []


def test_disconnected_graph_reported():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    problems = validation_problems(graph)
    assert any("connected" in p for p in problems)


def test_connectivity_check_optional():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    assert validation_problems(graph, require_connected=False) == []


def test_multiple_problems_collected():
    graph = SDFGraph()
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_actor("c")
    graph.add_channel("d1", "a", "b")
    graph.add_channel("d2", "b", "a")
    problems = validation_problems(graph)
    assert len(problems) >= 2  # deadlock + disconnected 'c'


def test_error_carries_problem_list():
    try:
        validate_graph(SDFGraph())
    except ValidationError as error:
        assert error.problems == ["graph has no actors"]
    else:
        pytest.fail("expected ValidationError")


def test_valid_multirate_graph(multirate_graph):
    assert validate_graph(multirate_graph) == {"a": 3, "b": 2}
