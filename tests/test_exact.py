"""Unit tests for the exact branch-and-bound backend.

The fig-5 paper example is small enough to pin the search's exact
outcome: the optimum packs all three actors onto tile ``t1`` with a
2-unit slice (cost 27/50 under the default weights), strictly cheaper
than the greedy flow's two-tile allocation.  The remaining tests cover
the facade knob, the platform layers (budget, metrics, tracing, fault
injection) and the CLI flag.
"""

import json
from fractions import Fraction
from random import Random

import pytest

from repro.appmodel.example import (
    paper_example,
    paper_example_binding,
)
from repro.appmodel.binding import Binding
from repro.appmodel.serialization import bundle_to_dict
from repro.core.flow import allocate_until_failure
from repro.core.strategy import AllocationError, ResourceAllocator
from repro.core.tile_cost import CostWeights
from repro.exact import (
    allocation_cost,
    binding_load_cost,
    exact_search,
    partial_throughput_bound,
    slice_cost,
)
from repro.obs import collecting, tracing
from repro.resilience.budget import Budget, BudgetExceededError
from repro.verify import VERDICT_CERTIFIED, certify_allocation

pytestmark = pytest.mark.exact

WEIGHTS = CostWeights.default()


def test_fig5_optimum_is_pinned():
    application, architecture, _ = paper_example()
    result = exact_search(application, architecture, weights=WEIGHTS)
    assert result.feasible
    assert result.cost == Fraction(27, 50)
    allocation = result.allocation
    assert allocation.binding.used_tiles() == ["t1"]
    assert allocation.scheduling.slices == {"t1": 2}
    assert allocation.satisfied
    assert allocation.achieved_throughput >= application.throughput_constraint
    assert result.nodes_explored > 0
    assert result.leaves_evaluated >= 1
    assert allocation.throughput_checks == result.throughput_checks


def test_fig5_exact_beats_greedy():
    application, architecture, _ = paper_example()
    greedy = ResourceAllocator(weights=WEIGHTS).allocate(
        application, architecture
    )
    greedy_cost = allocation_cost(
        application,
        architecture,
        greedy.binding,
        greedy.scheduling.slices,
        WEIGHTS,
    )
    exact = exact_search(application, architecture, weights=WEIGHTS)
    assert exact.cost < greedy_cost


def test_exact_allocation_certificate_replays(example_architecture):
    application, architecture, _ = paper_example()
    result = exact_search(application, architecture, weights=WEIGHTS)
    bundle = json.loads(
        json.dumps(bundle_to_dict(architecture, [result.allocation]))
    )
    report = certify_allocation(bundle)
    assert report.certified
    assert report.verdicts[0].verdict == VERDICT_CERTIFIED


def test_objective_decomposes():
    application, architecture, _ = paper_example()
    result = exact_search(application, architecture, weights=WEIGHTS)
    allocation = result.allocation
    assert result.cost == binding_load_cost(
        application, architecture, allocation.binding, WEIGHTS
    ) + slice_cost(architecture, allocation.scheduling.slices)
    assert result.cost == allocation_cost(
        application,
        architecture,
        allocation.binding,
        allocation.scheduling.slices,
        WEIGHTS,
    )


# -- the facade knob -------------------------------------------------------


def test_backend_knob_dispatches_to_exact():
    application, architecture, _ = paper_example()
    allocator = ResourceAllocator(weights=WEIGHTS, backend="exact")
    allocation = allocator.allocate(application, architecture)
    assert allocation.binding.used_tiles() == ["t1"]
    assert allocation.satisfied
    # the reservation commits like any greedy allocation's
    allocation.reservation.commit(architecture)
    assert architecture.tile("t1").wheel_remaining == 8


def test_unknown_backend_is_rejected():
    application, architecture, _ = paper_example()
    with pytest.raises(ValueError, match="unknown backend"):
        ResourceAllocator(backend="simulated-annealing").allocate(
            application, architecture
        )


def test_exact_backend_with_precomputed_binding():
    application, architecture, _ = paper_example()
    binding = paper_example_binding()
    allocator = ResourceAllocator(weights=WEIGHTS, backend="exact")
    allocation = allocator.allocate(application, architecture, binding=binding)
    # the fixed binding is honoured; only slices were optimised
    assert allocation.binding.assignment == binding.assignment
    assert allocation.satisfied


def test_prebinding_violating_section7_is_proven_infeasible():
    # t1 keeps 10 bits: the full binding onto t1 overflows its memory,
    # and so does the partial one, before any actor is branched on
    for actors in (("a1", "a2", "a3"), ("a1", "a2")):
        application, architecture, _ = paper_example()
        t1 = architecture.tile("t1")
        t1.memory_occupied = t1.memory - 10
        binding = Binding({actor: "t1" for actor in actors})
        result = exact_search(
            application, architecture, weights=WEIGHTS, binding=binding
        )
        assert not result.feasible, actors
        assert result.leaves_evaluated == 0


def test_exact_backend_in_flow():
    application, architecture, _ = paper_example()
    allocator = ResourceAllocator(weights=WEIGHTS, backend="exact")
    result = allocate_until_failure(architecture, [application], allocator=allocator)
    assert result.applications_bound == 1
    # committed: the one-tile optimum occupies only t1's wheel
    assert architecture.tile("t1").wheel_remaining == 8
    assert architecture.tile("t2").wheel_remaining == 10


def test_infeasible_constraint_is_proven():
    application, architecture, _ = paper_example()
    application.throughput_constraint = Fraction(1)  # above any bound
    result = exact_search(application, architecture, weights=WEIGHTS)
    assert not result.feasible
    assert result.cost is None
    # the root throughput bound rejects before any branching
    assert result.nodes_explored == 0
    with pytest.raises(AllocationError, match="proved the constraint"):
        ResourceAllocator(weights=WEIGHTS, backend="exact").allocate(
            application, architecture
        )


def test_infeasible_past_static_gate_is_proven_by_search():
    application, architecture, _ = paper_example()
    # 1/3 clears the root bound (the serialisation bound is 1/2) but
    # no actual allocation reaches it: the search must branch and
    # exhaust the tree to prove infeasibility
    application.throughput_constraint = Fraction(1, 3)
    result = exact_search(application, architecture, weights=WEIGHTS)
    assert not result.feasible
    assert result.nodes_explored > 0


def test_fixed_binding_below_its_root_bound_stops_at_the_root():
    # 1/3 clears the static bound (1/2), but a1 and a2 sharing t2 cap
    # every completion at 1/11: the root bound is read on the fixed
    # binding's ledger, so no actor is branched on
    application, architecture, _ = paper_example()
    application.throughput_constraint = Fraction(1, 3)
    binding = Binding({"a1": "t2", "a2": "t2"})
    with collecting() as metrics:
        result = exact_search(
            application, architecture, weights=WEIGHTS, binding=binding
        )
    assert not result.feasible
    assert result.nodes_explored == 0
    assert metrics.snapshot()["counters"]["exact.static_rejections"] == 1


def test_root_bound_of_an_empty_binding_is_the_static_bound():
    """The search's one root check replaced a ``static_throughput_bound``
    gate: with nothing fixed the two bounds agree, on the four benchmark
    sets on the three §10.1 meshes and the differential harness's small
    and heavy profiles."""
    from repro.analysis.bounds import static_throughput_bound
    from repro.arch.presets import benchmark_architectures
    from repro.core.tile_cost import TileLedger
    from repro.exact.bounds import ThroughputBound
    from repro.generate.benchmark import (
        SET_PROFILES,
        generate_application,
        generate_benchmark_set,
    )
    from tests.test_differential_allocation import (
        HEAVY_PROFILE,
        SMALL_PROFILE,
        TYPES,
        _architecture,
    )

    cases = []
    meshes = benchmark_architectures()
    types = meshes[0].processor_types()
    for set_name in [*SET_PROFILES, "mixed"]:
        for seed in range(3):
            for application in generate_benchmark_set(
                set_name, 6, types, seed=seed
            ):
                cases.extend((application, mesh) for mesh in meshes)
    for profile in (SMALL_PROFILE, HEAVY_PROFILE):
        for seed in range(80):
            application = generate_application(
                profile, TYPES, Random(seed), name=f"{profile.name}-{seed}"
            )
            cases.append((application, _architecture(seed)))
    assert len(cases) == 376
    for application, architecture in cases:
        root = ThroughputBound(application, architecture).of(
            TileLedger(application, architecture)
        )
        assert root == static_throughput_bound(
            application, architecture
        ), application.name


# -- input validation ------------------------------------------------------


def test_negative_weights_are_rejected():
    application, architecture, _ = paper_example()
    with pytest.raises(ValueError, match="non-negative"):
        exact_search(
            application, architecture, weights=CostWeights(-1.0, 1.0, 1.0)
        )


# -- platform layers -------------------------------------------------------


def test_budget_exhaustion_carries_partial_progress():
    application, architecture, _ = paper_example()
    budget = Budget(max_states=5)
    with pytest.raises(BudgetExceededError) as excinfo:
        exact_search(
            application, architecture, weights=WEIGHTS, budget=budget
        )
    progress = excinfo.value.partial.get("exact")
    assert progress is not None
    assert progress["nodes_explored"] >= 1
    assert "throughput_checks" in progress


def test_budget_propagates_unwrapped_through_facade():
    application, architecture, _ = paper_example()
    allocator = ResourceAllocator(weights=WEIGHTS, backend="exact")
    with pytest.raises(BudgetExceededError):
        allocator.allocate(
            application, architecture, budget=Budget(deadline=0.0)
        )


def test_search_emits_metrics_and_trace():
    application, architecture, _ = paper_example()
    with collecting() as metrics, tracing() as trace:
        exact_search(application, architecture, weights=WEIGHTS)
    counters = metrics.snapshot()["counters"]
    assert counters["exact.searches"] == 1
    assert counters["exact.nodes_explored"] > 0
    assert counters["exact.throughput_checks"] > 0
    assert counters["exact.incumbents"] >= 1
    events = [(e.category, e.name) for e in trace.events()]
    assert ("exact", "search") in events
    assert ("exact", "incumbent") in events


@pytest.mark.parametrize(
    "profile, seed", [("SMALL_PROFILE", 2), ("HEAVY_PROFILE", 201)]
)
def test_slice_floors_leave_the_search_unchanged(monkeypatch, profile, seed):
    """Leaf probes below a slice floor are counted checks without an
    exploration; the search is otherwise the one that explores them."""
    from repro.core.slices import SliceFloors
    import tests.test_differential_allocation as corpus

    application = corpus._application(getattr(corpus, profile), seed)

    def search():
        return exact_search(
            application, corpus._architecture(seed), weights=WEIGHTS
        )

    with collecting() as metrics:
        floored = search()
    counters = metrics.snapshot()["counters"]
    rejected = counters["slices.floor_rejections"]
    assert rejected > 0
    assert counters["constrained.executions"] == (
        floored.throughput_checks - rejected
    )
    monkeypatch.setattr(SliceFloors, "rejects", lambda self, slices: False)
    explored = search()
    assert floored.cost == explored.cost
    assert floored.allocation.binding == explored.allocation.binding
    assert (
        floored.allocation.scheduling.slices
        == explored.allocation.scheduling.slices
    )
    assert floored.allocation.certificate == explored.allocation.certificate
    assert [
        floored.nodes_explored,
        floored.nodes_pruned,
        floored.leaves_evaluated,
        floored.throughput_checks,
    ] == [
        explored.nodes_explored,
        explored.nodes_pruned,
        explored.leaves_evaluated,
        explored.throughput_checks,
    ]


def test_fault_injection_reaches_the_search():
    from repro.resilience.faults import (
        FaultInjector,
        FaultSpec,
        InjectedFaultError,
    )

    application, architecture, _ = paper_example()
    spec = FaultSpec(point="exact.search", error="runtime")
    with pytest.raises(InjectedFaultError):
        with FaultInjector(specs=[spec]):
            exact_search(application, architecture, weights=WEIGHTS)


# -- CLI -------------------------------------------------------------------


def test_cli_example_accepts_exact_backend(capsys):
    from repro.cli import main

    assert main(["example", "--backend", "exact"]) == 0
    out = capsys.readouterr().out
    assert "a1 -> t1" in out
    assert "a3 -> t1" in out


def test_cli_exact_deadline_exhaustion_exits_3(capsys):
    from repro.cli import main

    assert main(["example", "--backend", "exact", "--deadline", "0"]) == 3
