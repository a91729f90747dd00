"""Unit tests for TDMA time-slice allocation (paper §9.3)."""

from fractions import Fraction

import pytest

from repro.appmodel.binding_aware import build_binding_aware_graph
from repro.appmodel.example import paper_example_application
from repro.core.scheduling import build_static_order_schedules
from repro.core.slices import (
    SliceAllocationError,
    SliceFloors,
    allocate_time_slices,
)
from repro.obs import collecting


def setup_bag(example_architecture, example_binding, constraint):
    application = paper_example_application(throughput_constraint=constraint)
    bag = build_binding_aware_graph(
        application, example_architecture, example_binding
    )
    schedules = build_static_order_schedules(bag)
    return bag, schedules


def test_loose_constraint_gets_minimal_slices(
    example_architecture, example_binding
):
    bag, schedules = setup_bag(
        example_architecture, example_binding, Fraction(1, 1000)
    )
    result = allocate_time_slices(bag, schedules)
    assert set(result.slices.values()) == {1}
    assert result.achieved_throughput >= Fraction(1, 1000)


def test_tight_constraint_gets_larger_slices(
    example_architecture, example_binding
):
    loose_bag, loose_schedules = setup_bag(
        example_architecture, example_binding, Fraction(1, 1000)
    )
    loose = allocate_time_slices(loose_bag, loose_schedules)
    tight_bag, tight_schedules = setup_bag(
        example_architecture, example_binding, Fraction(1, 12)
    )
    tight = allocate_time_slices(tight_bag, tight_schedules)
    assert sum(tight.slices.values()) > sum(loose.slices.values())
    assert tight.achieved_throughput >= Fraction(1, 12)


def test_infeasible_constraint_raises(example_architecture, example_binding):
    bag, schedules = setup_bag(
        example_architecture, example_binding, Fraction(1, 2)
    )
    with pytest.raises(SliceAllocationError):
        allocate_time_slices(bag, schedules)


def test_infeasible_error_reports_the_explored_full_wheel_rate(
    example_architecture, example_binding
):
    # every floor exceeds the wheel, yet the first probe is explored
    bag, schedules = setup_bag(example_architecture, example_binding, Fraction(1))
    assert all(
        floor > 10 for floor in SliceFloors.of(bag).floors.values()
    )
    with pytest.raises(SliceAllocationError, match=r"reach only \d+/\d+ <"):
        allocate_time_slices(bag, schedules)


@pytest.mark.parametrize(
    "profile, seed", [("SMALL_PROFILE", 2), ("HEAVY_PROFILE", 209)]
)
def test_floors_decide_probes_without_changing_the_search(
    monkeypatch, profile, seed
):
    """On greedy-vs-exact corpus applications whose §9.3 search meets a
    probe below a slice floor: that probe still counts as a throughput
    check but runs no exploration, and the search visits the same
    points and returns the same allocation as one that explores every
    probe."""
    import tests.test_differential_allocation as corpus

    application = corpus._application(getattr(corpus, profile), seed)
    with collecting() as metrics:
        floored = corpus._greedy(application, corpus._architecture(seed))
    counters = metrics.snapshot()["counters"]
    rejected = counters["slices.floor_rejections"]
    assert rejected > 0
    assert counters["slices.throughput_checks"] == floored.throughput_checks
    assert counters["constrained.executions"] == (
        floored.throughput_checks - rejected
    )
    monkeypatch.setattr(SliceFloors, "rejects", lambda self, slices: False)
    explored = corpus._greedy(application, corpus._architecture(seed))
    assert (
        floored.binding,
        floored.scheduling.slices,
        floored.achieved_throughput,
        floored.throughput_checks,
        floored.certificate,
    ) == (
        explored.binding,
        explored.scheduling.slices,
        explored.achieved_throughput,
        explored.throughput_checks,
        explored.certificate,
    )


def test_occupied_wheel_limits_search(example_architecture, example_binding):
    example_architecture.tile("t1").wheel_occupied = 10
    bag, schedules = setup_bag(
        example_architecture, example_binding, Fraction(1, 1000)
    )
    with pytest.raises(SliceAllocationError, match="no remaining time wheel"):
        allocate_time_slices(bag, schedules)


def test_partially_occupied_wheel_caps_slices(
    example_architecture, example_binding
):
    example_architecture.tile("t1").wheel_occupied = 6
    bag, schedules = setup_bag(
        example_architecture, example_binding, Fraction(1, 1000)
    )
    result = allocate_time_slices(bag, schedules)
    assert result.slices["t1"] <= 4


def test_throughput_checks_counted(example_architecture, example_binding):
    bag, schedules = setup_bag(
        example_architecture, example_binding, Fraction(1, 40)
    )
    result = allocate_time_slices(bag, schedules)
    assert result.throughput_checks >= 2


def test_refinement_never_increases_slices(
    example_architecture, example_binding
):
    bag, schedules = setup_bag(
        example_architecture, example_binding, Fraction(1, 30)
    )
    refined = allocate_time_slices(bag, schedules, refine=True)
    bag2, schedules2 = setup_bag(
        example_architecture, example_binding, Fraction(1, 30)
    )
    unrefined = allocate_time_slices(bag2, schedules2, refine=False)
    for tile in refined.slices:
        assert refined.slices[tile] <= unrefined.slices[tile]


def test_result_meets_constraint_exactly_when_verified(
    example_architecture, example_binding
):
    constraint = Fraction(1, 30)
    bag, schedules = setup_bag(example_architecture, example_binding, constraint)
    result = allocate_time_slices(bag, schedules)
    assert result.achieved_throughput >= constraint


def test_relaxation_band_allows_early_stop(
    example_architecture, example_binding
):
    constraint = Fraction(1, 40)
    bag, schedules = setup_bag(example_architecture, example_binding, constraint)
    eager = allocate_time_slices(bag, schedules, relaxation=10.0)
    bag2, schedules2 = setup_bag(
        example_architecture, example_binding, constraint
    )
    exhaustive = allocate_time_slices(bag2, schedules2, relaxation=0.0)
    # a huge relaxation band stops the search earlier (or equal)
    assert eager.throughput_checks <= exhaustive.throughput_checks
    assert eager.achieved_throughput >= constraint
    assert exhaustive.achieved_throughput >= constraint
