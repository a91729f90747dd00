"""Sampled recurrence: the kernel keys a state only when its reference
actor has completed a firing since the last stored key
(``repro.throughput.kernel``; THEORY, "Sampled recurrence").

Periods, firings and rates are those of keying every instant; the
transient ends at the first key stored in the periodic phase.  A run
interrupted at any instant resumes to the uninterrupted result, a
checkpoint written before the rule is thinned to the keys it stores,
and a graph whose first actor can stop while others fire keys every
instant.
"""

import json

import pytest

from repro.appmodel.binding_aware import build_binding_aware_graph
from repro.appmodel.example import (
    paper_example_application,
    paper_example_architecture,
)
from repro.arch.presets import benchmark_architectures
from repro.core.strategy import ResourceAllocator
from repro.csdf.serialization import csdf_from_dict
from repro.generate.benchmark import generate_benchmark_set
from repro.obs import Metrics, collecting
from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.checkpoint import read_checkpoint, resume_from_checkpoint
from repro.sdf.graph import SDFGraph
from repro.throughput.constrained import (
    StaticOrderSchedule,
    TileConstraints,
    constrained_throughput,
)
from repro.throughput.kernel import Kernel
from repro.throughput.state_space import SelfTimedExecution, throughput
from tests.engine_golden import (
    CHECKPOINTS,
    FIXTURES,
    GOLDEN,
    _execution,
    _sdf,
    _throughput,
    _tiles,
)


def _charges(run):
    """Budget states an uninterrupted ``run(budget)`` charges."""
    budget = Budget()
    run(budget)
    return budget.states_charged


def _resumed_at_every_instant(run):
    """``run(budget)`` interrupted at every instant it visits, each
    checkpoint resumed from a JSON round trip."""
    for limit in range(1, _charges(run)):
        with pytest.raises(BudgetExceededError) as raised:
            run(Budget(max_states=limit))
        checkpoint = json.loads(json.dumps(raised.value.partial["checkpoint"]))
        yield limit, resume_from_checkpoint(checkpoint)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", ["self_timed", "csdf"])
def test_self_timed_runs_resume_from_every_instant(golden, kind):
    """The golden corpus's SDF and CSDF graphs of up to 200 states,
    under both concurrency settings."""
    runs = 0
    for case in golden["cases"][kind]:
        if kind == "csdf":
            graph = csdf_from_dict(golden["graphs"][case["graph"]])
            states = case["out"].get("states", 0)
        else:
            graph = _sdf(case, golden["graphs"])
            states = case["out"]["throughput"].get("states", 0)
        if not 2 <= states <= 200:
            continue

        def run(budget, graph=graph, concurrency=case["auto_concurrency"]):
            return throughput(graph, auto_concurrency=concurrency, budget=budget)

        # the certificates hold the period, the firings and the window
        # start, which is the transient plus one period
        full = _throughput(run(None))
        for limit, resumed in _resumed_at_every_instant(run):
            assert _throughput(resumed) == full, (case["graph"], limit)
            runs += 1
    assert runs >= 300


def _constrained_cases(golden):
    """Recorded constrained probes of the golden corpus, one per
    allocation source."""
    chosen = {}
    for case in golden["cases"]["constrained"]:
        out = case["out"]
        if (
            case["source"].startswith("zero-")
            or "error" in out
            or out["deadlocked"]
            or not 30 <= out["states"] <= 150
        ):
            continue
        chosen.setdefault(case["source"], case)
    return list(chosen.values())


def test_constrained_runs_resume_from_every_instant(golden):
    graphs, cases = golden["graphs"], _constrained_cases(golden)
    assert {case["source"] for case in cases} >= {"fig5", "flow-mixed-4", "exact"}
    for case in cases:
        graph, tiles = _sdf(case, graphs), _tiles(case["tiles"])

        def run(budget, graph=graph, tiles=tiles):
            return constrained_throughput(graph, tiles, budget=budget)

        full = run(None)
        assert full.states_explored == case["out"]["states"]
        for limit, resumed in _resumed_at_every_instant(run):
            assert _execution(resumed) == _execution(full), (case["source"], limit)
            assert resumed.certificate == full.certificate


def test_allocation_stores_fewer_keys_than_it_visits():
    """Every constrained exploration of a generated ``mixed``
    allocation reports its stored keys as ``hash_set_size`` and its
    visited instants as ``states``; keying every instant made the two
    equal."""

    class PerCall(Metrics):
        def __init__(self):
            super().__init__()
            self.calls = []

        def gauge(self, name, value):
            super().gauge(name, value)
            if name == "constrained.hash_set_size":
                self.calls.append(value)

        def counter(self, name, value=1):
            super().counter(name, value)
            if name == "constrained.states":
                self.calls.append(value)

    architecture = benchmark_architectures()[0]
    application = generate_benchmark_set(
        "mixed", 1, architecture.processor_types(), seed=1
    )[0]
    with collecting(PerCall()) as metrics:
        ResourceAllocator().allocate(application, architecture)
    # the engine records each call's states, then its hash-set size
    states, stored = metrics.calls[0::2], metrics.calls[1::2]
    assert len(states) == len(stored) > 0
    assert all(0 < kept <= visited for kept, visited in zip(stored, states))
    assert sum(stored) < sum(states)


def _disjoint_cycles():
    """Two cycles without a channel between them; actor ``a``'s has no
    token and deadlocks at once, while ``c`` and ``d`` fire forever."""
    graph = SDFGraph("disjoint")
    for actor, time in (("a", 2), ("b", 3), ("c", 2), ("d", 5)):
        graph.add_actor(actor, time)
    for src, dst, tokens in (
        ("a", "b", 0),
        ("b", "a", 0),
        ("c", "d", 1),
        ("d", "c", 1),
        ("c", "c", 1),
        ("d", "d", 1),
    ):
        graph.add_channel(f"{src}{dst}", src, dst, 1, 1, tokens)
    return graph


def test_first_actor_that_stops_keys_every_instant():
    graph = _disjoint_cycles()
    assert Kernel.compile(graph).reference is None
    firings = {"a": 0, "b": 0, "c": 1, "d": 1}
    for concurrency in (True, False):
        # a reference that never completes would store one key and
        # run into the state cap
        result = SelfTimedExecution(
            graph, auto_concurrency=concurrency, max_states=1_000
        ).execute()
        assert (result.period, result.transient_time) == (5, 0)
        assert (result.states_explored, result.period_firings) == (2, firings)
    tiles = [TileConstraints("t", 10, 7, StaticOrderSchedule(periodic=("c", "d")))]
    result = constrained_throughput(graph, tiles, max_states=1_000)
    assert (result.period, result.transient_time, result.states_explored) == (
        10,
        2,
        3,
    )
    assert result.period_firings == firings


def test_binding_aware_graph_has_a_reference():
    application = paper_example_application()
    architecture = paper_example_architecture()
    allocation = ResourceAllocator().allocate(application, architecture)
    bag = build_binding_aware_graph(application, architecture, allocation.binding)
    kernel = Kernel.compile(bag.graph)
    assert kernel.reference == 0
    assert kernel.actors[0] == application.graph.actors[0].name


def test_checkpoint_without_steps_is_thinned_to_reference_completions():
    """A file written when every instant was keyed resumes with one
    step per entry and keeps, in time order, the first entry and each
    one whose reference count rose."""
    thinned = 0
    for _, _, name in CHECKPOINTS:
        checkpoint = read_checkpoint(str(FIXTURES / name))
        engine = checkpoint["engine_state"]
        if "steps" in engine:
            continue
        entries = sorted(engine["seen"], key=lambda entry: entry[1][0])
        counts = [entry[1][1][0] for entry in entries]
        kept = 1 + sum(1 for a, b in zip(counts, counts[1:]) if b != a)
        # a budget that breaches at its first charge re-checkpoints the
        # restored frontier before any instant is visited
        with pytest.raises(BudgetExceededError) as raised:
            resume_from_checkpoint(checkpoint, budget=Budget(max_states=0))
        rewritten = raised.value.partial["checkpoint"]["engine_state"]
        assert rewritten["steps"] == len(entries)
        assert len(rewritten["seen"]) == kept
        thinned += kept < len(entries)
    assert thinned >= 2
