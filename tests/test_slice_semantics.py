"""Deep semantic checks of the slice allocation (§9.3).

These go beyond the unit tests: they sweep the slice space exhaustively
on the running example to check the two facts the binary searches rely
on — throughput is monotone in every slice, and the allocation the
strategy returns is locally minimal (no single slice can shrink without
breaking the constraint).  Monotonicity is also sampled on greedy
allocations of generated applications, and so is the utilisation bound
behind the slice floors both searches decide probes with.
"""

import random
from fractions import Fraction

import pytest

from repro.appmodel.binding import SchedulingFunction
from repro.appmodel.binding_aware import build_binding_aware_graph
from repro.appmodel.example import (
    paper_example_application,
    paper_example_architecture,
    paper_example_binding,
)
from repro.arch.presets import benchmark_architectures
from repro.core.scheduling import build_static_order_schedules
from repro.core.slices import SliceFloors, allocate_time_slices
from repro.core.strategy import ResourceAllocator
from repro.generate.benchmark import generate_benchmark_set
from repro.throughput.constrained import constrained_throughput


def evaluate(application, architecture, binding, schedules, slices):
    bag = build_binding_aware_graph(
        application, architecture, binding, slices=slices
    )
    scheduling = SchedulingFunction()
    for tile, schedule in schedules.items():
        scheduling.set_schedule(tile, schedule)
        scheduling.set_slice(tile, slices[tile])
    return constrained_throughput(
        bag.graph, bag.tile_constraints(scheduling)
    ).of(application.output_actor)


@pytest.fixture(scope="module")
def example_setup():
    application = paper_example_application()
    architecture = paper_example_architecture()
    binding = paper_example_binding()
    bag = build_binding_aware_graph(application, architecture, binding)
    schedules = build_static_order_schedules(bag)
    return application, architecture, binding, schedules


def test_throughput_monotone_in_each_slice(example_setup):
    application, architecture, binding, schedules = example_setup
    wheel = architecture.tile("t1").wheel
    # full 10x10 sweep of both slices
    rates = {}
    for slice_t1 in range(1, wheel + 1):
        for slice_t2 in range(1, wheel + 1):
            rates[(slice_t1, slice_t2)] = evaluate(
                application,
                architecture,
                binding,
                schedules,
                {"t1": slice_t1, "t2": slice_t2},
            )
    for (slice_t1, slice_t2), rate in rates.items():
        if slice_t1 < wheel:
            assert rates[(slice_t1 + 1, slice_t2)] >= rate
        if slice_t2 < wheel:
            assert rates[(slice_t1, slice_t2 + 1)] >= rate


def _greedy_allocations():
    """``(application, architecture, allocation, samples)`` for greedy
    allocations of the six ``mixed`` applications of generator seed 3
    on the first §10.1 mesh (20 samples each), and of the greedy-vs-exact
    corpus's small and heavy profiles on its 1x2 and 1x3 wheel-8 meshes
    (5 samples each; all 40 seeds allocate, infeasible ones would be
    skipped)."""
    from tests.test_differential_allocation import (
        HEAVY_PROFILE,
        SMALL_PROFILE,
        _application,
        _architecture,
        _greedy,
    )

    architecture = benchmark_architectures()[0]
    allocator = ResourceAllocator()
    for application in generate_benchmark_set(
        "mixed", 6, architecture.processor_types(), seed=3
    ):
        yield (
            application,
            architecture,
            allocator.allocate(application, architecture),
            20,
        )
    for profile, seeds in (
        (SMALL_PROFILE, range(20)),
        (HEAVY_PROFILE, range(60, 80)),
    ):
        for seed in seeds:
            application = _application(profile, seed)
            architecture = _architecture(seed)
            allocation = _greedy(application, architecture)
            if allocation is not None:
                yield application, architecture, allocation, 5


def test_throughput_monotone_in_each_slice_on_generated_applications():
    """At random slice vectors of greedy allocations of generated
    applications, one more slot on one tile never lowers the output
    actor's constrained throughput."""
    rng = random.Random(4)
    pairs = 0
    for application, architecture, allocation, samples in _greedy_allocations():
        tiles = allocation.binding.used_tiles()
        wheels = {t: architecture.tile(t).wheel for t in tiles}
        schedules = {t: allocation.scheduling.schedule_of(t) for t in tiles}

        def rate(slices):
            return evaluate(
                application, architecture, allocation.binding, schedules, slices
            )

        for _ in range(samples):
            tile = rng.choice(tiles)
            slices = {t: rng.randint(1, wheels[t]) for t in tiles}
            slices[tile] = rng.randint(1, wheels[tile] - 1)
            lower = rate(slices)
            slices[tile] += 1
            raised = rate(slices)
            assert raised >= lower, (application.name, tile, slices, lower, raised)
            pairs += 1
    assert pairs == 120 + 200


def test_floor_bounds_the_explored_rate_on_generated_applications():
    """At random slice vectors of greedy allocations of generated
    applications, the explored rate never exceeds the utilisation bound
    ``min_t gamma(out) * omega_t / (w_t * sum gamma*tau)`` — so no probe
    a slice floor rejects can reach the constraint."""
    rng = random.Random(6)
    vectors = rejected = 0
    for application, architecture, allocation, samples in _greedy_allocations():
        binding = allocation.binding
        tiles = binding.used_tiles()
        wheels = {t: architecture.tile(t).wheel for t in tiles}
        schedules = {t: allocation.scheduling.schedule_of(t) for t in tiles}
        floors = SliceFloors.of(
            build_binding_aware_graph(application, architecture, binding)
        )
        gamma_out = application.gamma[application.output_actor]
        for _ in range(2 * samples):
            slices = {t: rng.randint(1, wheels[t]) for t in tiles}
            rate = evaluate(application, architecture, binding, schedules, slices)
            bound = min(
                Fraction(gamma_out * slices[t], wheels[t] * floors.work[t])
                for t in tiles
            )
            assert rate <= bound, (application.name, slices, rate, bound)
            if floors.rejects(slices):
                assert bound < application.throughput_constraint
                assert rate < application.throughput_constraint
                rejected += 1
            vectors += 1
    assert vectors == 2 * (120 + 200)
    assert rejected >= vectors // 10  # 94 of the 640


@pytest.mark.parametrize(
    "constraint",
    [Fraction(1, 60), Fraction(1, 30), Fraction(1, 15), Fraction(3, 40)],
)
def test_allocated_slices_are_locally_minimal(example_setup, constraint):
    application_template, architecture, binding, schedules = example_setup
    application = paper_example_application(constraint)
    bag = build_binding_aware_graph(application, architecture, binding)
    result = allocate_time_slices(bag, schedules, relaxation=0.0)
    assert result.achieved_throughput >= constraint
    for tile in result.slices:
        if result.slices[tile] == 1:
            continue
        reduced = dict(result.slices)
        reduced[tile] -= 1
        rate = evaluate(
            application, architecture, binding, schedules, reduced
        )
        assert rate < constraint, (
            f"slice of {tile} could shrink to {reduced[tile]} and still "
            f"achieve {rate} >= {constraint}"
        )


def test_full_strategy_matches_exhaustive_minimum():
    """For one constraint, compare the strategy's total slice budget to
    the true optimum found by exhaustive search over the 10x10 grid."""
    constraint = Fraction(1, 25)
    application = paper_example_application(constraint)
    architecture = paper_example_architecture()
    binding = paper_example_binding()
    bag = build_binding_aware_graph(application, architecture, binding)
    schedules = build_static_order_schedules(bag)
    result = allocate_time_slices(bag, schedules, relaxation=0.0)

    best_total = None
    wheel = architecture.tile("t1").wheel
    for slice_t1 in range(1, wheel + 1):
        for slice_t2 in range(1, wheel + 1):
            rate = evaluate(
                application,
                architecture,
                binding,
                schedules,
                {"t1": slice_t1, "t2": slice_t2},
            )
            if rate >= constraint:
                total = slice_t1 + slice_t2
                if best_total is None or total < best_total:
                    best_total = total
    assert best_total is not None
    strategy_total = sum(result.slices.values())
    # the two-phase search is a heuristic: allow a small gap but no
    # gross over-allocation
    assert strategy_total <= best_total + 2
