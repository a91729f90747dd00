"""Tests for the resilience layer: budgets, degradation, transactions.

Covers the cooperative :class:`~repro.resilience.budget.Budget`, its
threading through the exploration engines, the degradation ladder of
:mod:`repro.resilience.policy`, the hardened multi-application flow and
the transactional commit — plus a performance guard keeping the
``budget=None`` fast path below 5% overhead.
"""

import time
from fractions import Fraction

import pytest

from repro.appmodel.binding import SchedulingFunction
from repro.appmodel.binding_aware import build_binding_aware_graph
from repro.appmodel.example import (
    paper_example,
    paper_example_application,
    paper_example_architecture,
    paper_example_binding,
)
from repro.arch.resources import InsufficientResourcesError
from repro.baselines.tdma_inflation import tdma_inflated_throughput
from repro.core.flow import allocate_until_failure
from repro.core.scheduling import build_static_order_schedules
from repro.core.strategy import AllocationError, ResourceAllocator
from repro.resilience import Budget, BudgetExceededError
from repro.resilience.policy import (
    DEFAULT_LADDER,
    resilient_allocate,
    tdma_baseline_allocate,
)
from repro.sdf.graph import chain
from repro.throughput.constrained import constrained_throughput
from repro.throughput.state_space import throughput


# -- Budget unit semantics ------------------------------------------------


def test_budget_rejects_negative_limits():
    with pytest.raises(ValueError):
        Budget(deadline=-1.0)
    with pytest.raises(ValueError):
        Budget(max_states=-1)
    with pytest.raises(ValueError):
        Budget(max_throughput_checks=-1)
    with pytest.raises(ValueError):
        Budget(check_interval=0)


def test_unlimited_budget_never_raises():
    budget = Budget()
    for _ in range(5000):
        budget.tick()
    budget.checkpoint()
    budget.charge_check()
    assert not budget.expired()


def test_state_budget_breach_is_typed():
    budget = Budget(max_states=10)
    with pytest.raises(BudgetExceededError) as info:
        for _ in range(11):
            budget.tick()
    assert info.value.reason == "states"
    assert info.value.states == 11


def test_deadline_breach_via_checkpoint():
    budget = Budget(deadline=0.0).start()
    time.sleep(0.001)
    with pytest.raises(BudgetExceededError) as info:
        budget.checkpoint()
    assert info.value.reason == "deadline"
    assert budget.expired()


def test_throughput_check_budget():
    budget = Budget(max_throughput_checks=2)
    budget.charge_check()
    budget.charge_check()
    with pytest.raises(BudgetExceededError) as info:
        budget.charge_check()
    assert info.value.reason == "throughput-checks"


def test_budget_start_is_idempotent():
    budget = Budget(deadline=100.0)
    budget.start()
    first = budget.elapsed()
    budget.start()
    assert budget.elapsed() >= first
    assert budget.remaining_seconds() <= 100.0


# -- budget threading through the engines ---------------------------------


def test_throughput_engine_honours_state_budget():
    graph = chain(["a", "b", "c"], [1, 2, 3], tokens_on_back_edge=2)
    budget = Budget(max_states=3)
    with pytest.raises(BudgetExceededError) as info:
        throughput(graph, budget=budget)
    assert info.value.reason == "states"
    # the engine attached its partial progress before re-raising
    assert "graph" in info.value.partial


def test_throughput_engine_honours_deadline_immediately():
    graph = chain(["a", "b"], [1, 1], tokens_on_back_edge=1)
    budget = Budget(deadline=0.0)
    with pytest.raises(BudgetExceededError) as info:
        throughput(graph, budget=budget)
    assert info.value.reason == "deadline"


def test_scheduling_attaches_partial_progress():
    application, architecture, binding = paper_example()
    bag = build_binding_aware_graph(application, architecture, binding)
    with pytest.raises(BudgetExceededError) as info:
        build_static_order_schedules(bag, budget=Budget(max_states=2))
    assert info.value.partial.get("graph")
    assert "states_explored" in info.value.partial


def test_slice_search_charges_throughput_checks():
    application, architecture, binding = paper_example()
    bag = build_binding_aware_graph(application, architecture, binding)
    schedules = build_static_order_schedules(bag)
    from repro.core.slices import allocate_time_slices

    budget = Budget(max_throughput_checks=2)
    with pytest.raises(BudgetExceededError) as info:
        allocate_time_slices(bag, schedules, budget=budget)
    assert info.value.reason == "throughput-checks"
    # the search reports the best feasible slices it had confirmed
    assert "feasible_slices" in info.value.partial


def test_allocator_propagates_budget_error_unwrapped():
    application, architecture, _ = paper_example()
    with pytest.raises(BudgetExceededError):
        ResourceAllocator().allocate(
            application, architecture, budget=Budget(max_states=2)
        )


# -- degradation ladder ---------------------------------------------------


def test_resilient_allocate_prefers_exact_rung():
    application, architecture, _ = paper_example()
    result = resilient_allocate(application, architecture)
    assert result.rung == "exact"
    assert not result.degraded
    assert result.allocation.satisfied


@pytest.mark.parametrize("rung", DEFAULT_LADDER[:-1], ids=lambda r: r.name)
def test_every_strategy_rung_yields_sound_allocation(rung):
    """Each cheaper configuration still meets the throughput constraint."""
    application, architecture, _ = paper_example()
    allocator = rung.configure(ResourceAllocator())
    allocation = allocator.allocate(application, architecture)
    assert allocation.satisfied
    assert allocation.achieved_throughput >= application.throughput_constraint


def test_tdma_baseline_bound_is_sound():
    """The inflated model never over-promises vs the exact analysis."""
    application, architecture, binding = paper_example()
    bag = build_binding_aware_graph(application, architecture, binding)
    slices = {
        name: architecture.tile(name).wheel_remaining
        for name in binding.used_tiles()
    }
    schedules = build_static_order_schedules(bag, slices=dict(slices))
    inflated = tdma_inflated_throughput(bag, dict(slices))
    scheduling = SchedulingFunction()
    for name, schedule in schedules.items():
        scheduling.set_schedule(name, schedule)
        scheduling.set_slice(name, slices[name])
    exact = constrained_throughput(
        bag.graph, bag.tile_constraints(scheduling)
    )
    output = application.output_actor
    assert inflated.of(output) <= exact.of(output)


def test_tdma_baseline_allocation_is_valid():
    application, architecture, _ = paper_example()
    allocation = tdma_baseline_allocate(
        application, architecture, ResourceAllocator()
    )
    assert allocation.satisfied
    assert allocation.throughput_checks == 1
    # commits cleanly on the real architecture
    allocation.reservation.commit(architecture)


def test_tiny_deadline_degrades_to_baseline():
    application, architecture, _ = paper_example()
    result = resilient_allocate(
        application, architecture, budget=Budget(deadline=0.0)
    )
    assert result.degraded
    assert result.rung == "tdma-baseline"
    assert result.allocation.satisfied
    # every earlier rung is accounted for
    assert [name for name, _ in result.attempts] == [
        "exact",
        "no-refinement",
        "capped-search",
    ]


def test_genuine_infeasibility_is_not_masked():
    """An unreachable constraint must fail, not degrade to nonsense."""
    application = paper_example_application(
        throughput_constraint=Fraction(1, 1)
    )
    architecture = paper_example_architecture()
    with pytest.raises(AllocationError):
        resilient_allocate(application, architecture)


# -- hardened flow --------------------------------------------------------

UNIFORM_KEYS = {
    "application",
    "outcome",
    "seconds",
    "reason",
    "throughput_checks",
    "achieved_throughput",
    "tiles_used",
    "rung",
}


def test_flow_stats_schema_is_uniform():
    application, architecture, _ = paper_example()
    result = allocate_until_failure(architecture, [application])
    assert len(result.application_stats) == 1
    record = result.application_stats[0]
    assert set(record) == UNIFORM_KEYS
    assert record["outcome"] == "allocated"
    assert record["reason"] is None
    assert record["rung"] is None


def test_flow_failure_record_has_uniform_schema():
    # preflight off: the statically infeasible constraint must reach
    # the strategy and fail there (the gated path is covered below)
    application = paper_example_application(
        throughput_constraint=Fraction(1, 1)
    )
    architecture = paper_example_architecture()
    result = allocate_until_failure(
        architecture, [application], preflight=False
    )
    record = result.application_stats[0]
    assert set(record) == UNIFORM_KEYS
    assert record["outcome"] == "failed"
    assert record["reason"]
    assert record["throughput_checks"] is None


def test_flow_rejected_record_has_uniform_schema():
    application = paper_example_application(
        throughput_constraint=Fraction(1, 1)
    )
    architecture = paper_example_architecture()
    result = allocate_until_failure(architecture, [application])
    record = result.application_stats[0]
    assert set(record) == UNIFORM_KEYS
    assert record["outcome"] == "rejected"
    assert "statically infeasible" in record["reason"]


def test_tiny_deadline_flow_completes_degraded():
    """The acceptance scenario: deadline ~0, degrade on — flow completes."""
    application, architecture, _ = paper_example()
    result = allocate_until_failure(
        architecture,
        [application],
        budget=Budget(deadline=0.0),
        degrade=True,
    )
    assert result.applications_bound == 1
    assert result.degraded_applications == 1
    record = result.application_stats[0]
    assert record["outcome"] == "degraded"
    assert record["rung"] == "tdma-baseline"
    achieved = Fraction(record["achieved_throughput"])
    assert achieved >= application.throughput_constraint


def test_flow_budget_exhaustion_without_degrade():
    application, architecture, _ = paper_example()
    result = allocate_until_failure(
        architecture, [application], budget=Budget(deadline=0.0)
    )
    assert result.applications_bound == 0
    assert result.application_stats[0]["outcome"] == "budget-exhausted"
    assert result.failed_application == application.name


# -- transactional commit -------------------------------------------------


def _occupancy(architecture):
    return [
        (
            tile.name,
            tile.wheel_occupied,
            tile.memory_occupied,
            tile.connections_occupied,
            tile.bandwidth_in_occupied,
            tile.bandwidth_out_occupied,
        )
        for tile in architecture.tiles
    ]


def test_commit_insufficient_resources_leaves_architecture_untouched():
    application, architecture, _ = paper_example()
    allocation = ResourceAllocator().allocate(application, architecture)
    # make the claim not fit any more
    claimed = allocation.reservation
    some_tile = next(iter(claimed.tiles))
    tile = architecture.tile(some_tile)
    tile.memory_occupied = tile.memory  # no memory left
    before = _occupancy(architecture)
    with pytest.raises(InsufficientResourcesError):
        claimed.commit(architecture)
    assert _occupancy(architecture) == before


def test_commit_then_rollback_round_trips():
    application, architecture, _ = paper_example()
    allocation = ResourceAllocator().allocate(application, architecture)
    before = _occupancy(architecture)
    allocation.reservation.commit(architecture)
    assert _occupancy(architecture) != before
    allocation.reservation.rollback(architecture)
    assert _occupancy(architecture) == before


# -- performance guard ----------------------------------------------------


def test_disabled_budget_overhead_under_five_percent():
    """``budget=None`` must keep the engines within 5% of their old cost.

    Strategy mirrors the observability guard: (1) time the paper-example
    allocation without a budget, (2) count how many budget charge points
    that workload hits (via an unlimited budget's counters), (3) measure
    the unit cost of the ``budget is not None`` test, and (4) require
    the product to stay below 5% of the measured run time.
    """

    def workload(budget=None):
        return ResourceAllocator().allocate(
            paper_example_application(),
            paper_example_architecture(),
            budget=budget,
        )

    workload()  # warm caches
    started = time.perf_counter()
    workload()
    baseline = time.perf_counter() - started
    for _ in range(2):
        started = time.perf_counter()
        workload()
        baseline = min(baseline, time.perf_counter() - started)

    counting = Budget()
    workload(budget=counting)
    # ticks + checks is an upper bound on the per-iteration charge sites
    charge_points = counting.states_charged + counting.checks_charged + 64
    assert charge_points > 0

    sentinel = None
    rounds = 100_000
    started = time.perf_counter()
    acc = 0
    for _ in range(rounds):
        if sentinel is not None:  # the disabled fast path under test
            acc += 1
    per_check = (time.perf_counter() - started) / rounds

    overhead = charge_points * per_check
    assert overhead < 0.05 * baseline, (
        f"{charge_points} disabled budget checks at "
        f"{per_check * 1e9:.0f} ns each = {overhead * 1e3:.3f} ms, over 5% "
        f"of the {baseline * 1e3:.1f} ms baseline"
    )
