"""Unit tests for schedule/TDMA-constrained throughput (paper §8.2)."""

from fractions import Fraction

import pytest

from repro.sdf.graph import SDFGraph
from repro.throughput.constrained import (
    StaticOrderSchedule,
    TileConstraints,
    busy_time,
    constrained_throughput,
    gated_finish,
)
from repro.throughput.state_space import StateSpaceExplosionError


class TestBusyTime:
    def test_full_slice_wheel(self):
        assert busy_time(0, 10, 10, 10) == 10

    def test_inside_slice(self):
        assert busy_time(1, 4, 10, 5) == 3

    def test_spanning_gap(self):
        # slice [0,5): busy in [3,12) = [3,5) + [10,12)
        assert busy_time(3, 12, 10, 5) == 4

    def test_entirely_outside_slice(self):
        assert busy_time(5, 10, 10, 5) == 0

    def test_multiple_rotations(self):
        assert busy_time(0, 30, 10, 5) == 15

    def test_zero_slice(self):
        assert busy_time(0, 100, 10, 0) == 0


class TestGatedFinish:
    def test_zero_work_finishes_immediately(self):
        assert gated_finish(7, 0, 10, 5) == 7

    def test_full_wheel_is_plain_addition(self):
        assert gated_finish(3, 12, 10, 10) == 15

    def test_zero_slice_never_finishes(self):
        assert gated_finish(0, 1, 10, 0) is None

    def test_fits_in_current_slice(self):
        assert gated_finish(1, 3, 10, 5) == 4

    def test_spills_into_next_rotation(self):
        # at t=3 with slice [0,5): 2 units now, 2 more from t=10
        assert gated_finish(3, 4, 10, 5) == 12

    def test_starts_outside_slice(self):
        assert gated_finish(7, 2, 10, 5) == 12

    def test_exactly_fills_slices(self):
        # 10 units of work in 5-unit slices starting at 0: ends at t=15
        assert gated_finish(0, 10, 10, 5) == 15

    def test_consistency_with_busy_time(self):
        for start in range(0, 20):
            for work in range(1, 15):
                finish = gated_finish(start, work, 7, 3)
                assert busy_time(start, finish, 7, 3) == work
                assert busy_time(start, finish - 1, 7, 3) < work


class TestStaticOrderSchedule:
    def test_empty_periodic_rejected(self):
        with pytest.raises(ValueError):
            StaticOrderSchedule(periodic=())

    def test_entry_walks_transient_then_period(self):
        schedule = StaticOrderSchedule(periodic=("b", "c"), transient=("a",))
        assert [schedule.entry(i) for i in range(5)] == ["a", "b", "c", "b", "c"]

    def test_canonical_position_folds_period(self):
        schedule = StaticOrderSchedule(periodic=("b", "c"), transient=("a",))
        assert schedule.canonical_position(0) == 0
        assert schedule.canonical_position(1) == 1
        assert schedule.canonical_position(3) == 1
        assert schedule.canonical_position(4) == 2

    def test_actors_deduplicated(self):
        schedule = StaticOrderSchedule(periodic=("a", "b", "a"))
        assert schedule.actors == ("a", "b")


@pytest.fixture
def two_actor_pipeline():
    """a -> b with a buffer back edge; both bound to one tile."""
    graph = SDFGraph("pipe")
    graph.add_actor("a", 2)
    graph.add_actor("b", 3)
    graph.add_channel("self:a", "a", "a", tokens=1)
    graph.add_channel("self:b", "b", "b", tokens=1)
    graph.add_channel("ab", "a", "b")
    graph.add_channel("ba", "b", "a", tokens=1)
    return graph


class TestConstrainedThroughput:
    def test_full_slice_matches_serial_execution(self, two_actor_pipeline):
        tiles = [
            TileConstraints(
                "t", 10, 10, StaticOrderSchedule(periodic=("a", "b"))
            )
        ]
        result = constrained_throughput(two_actor_pipeline, tiles)
        # strict alternation: one firing of each per 5 time units
        assert result.of("a") == Fraction(1, 5)
        assert result.of("b") == Fraction(1, 5)

    def test_half_slice_halves_throughput_at_most(self, two_actor_pipeline):
        tiles = [
            TileConstraints(
                "t", 10, 5, StaticOrderSchedule(periodic=("a", "b"))
            )
        ]
        result = constrained_throughput(two_actor_pipeline, tiles)
        assert Fraction(1, 10) <= result.of("a") <= Fraction(1, 5)

    def test_zero_slice_deadlocks(self, two_actor_pipeline):
        tiles = [
            TileConstraints(
                "t", 10, 0, StaticOrderSchedule(periodic=("a", "b"))
            )
        ]
        result = constrained_throughput(two_actor_pipeline, tiles)
        assert result.deadlocked
        assert result.of("a") == 0

    def test_zero_duration_cycle_through_tile_is_reported(self):
        graph = SDFGraph("zero-loop")
        graph.add_actor("a", 0)
        graph.add_channel("self:a", "a", "a", tokens=1)
        tiles = [TileConstraints("t", 10, 5, StaticOrderSchedule(periodic=("a",)))]
        with pytest.raises(StateSpaceExplosionError):
            constrained_throughput(graph, tiles)

    def test_unscheduled_source_burst_is_reported(self):
        graph = SDFGraph("source")
        graph.add_actor("a", 2)
        graph.add_actor("src", 1)  # no inputs, bound to no tile
        graph.add_channel("self:a", "a", "a", tokens=1)
        tiles = [TileConstraints("t", 10, 5, StaticOrderSchedule(periodic=("a",)))]
        with pytest.raises(StateSpaceExplosionError):
            constrained_throughput(graph, tiles)

    def test_bad_schedule_order_deadlocks(self, two_actor_pipeline):
        # b first but ab carries no tokens: nothing can ever fire
        tiles = [
            TileConstraints(
                "t", 10, 10, StaticOrderSchedule(periodic=("b", "a"))
            )
        ]
        result = constrained_throughput(two_actor_pipeline, tiles)
        assert result.deadlocked

    def test_unscheduled_actors_run_free(self):
        graph = SDFGraph("mixed")
        graph.add_actor("a", 2)
        graph.add_actor("c", 7)  # models a connection actor
        graph.add_channel("self:a", "a", "a", tokens=1)
        graph.add_channel("self:c", "c", "c", tokens=1)
        graph.add_channel("ac", "a", "c")
        graph.add_channel("ca", "c", "a", tokens=1)
        tiles = [
            TileConstraints("t", 10, 10, StaticOrderSchedule(periodic=("a",)))
        ]
        result = constrained_throughput(graph, tiles)
        assert result.of("c") == Fraction(1, 9)

    def test_schedule_with_unknown_actor_rejected(self, two_actor_pipeline):
        tiles = [
            TileConstraints(
                "t", 10, 5, StaticOrderSchedule(periodic=("ghost",))
            )
        ]
        with pytest.raises(KeyError):
            constrained_throughput(two_actor_pipeline, tiles)

    def test_actor_on_two_tiles_rejected(self, two_actor_pipeline):
        tiles = [
            TileConstraints("t1", 10, 5, StaticOrderSchedule(periodic=("a",))),
            TileConstraints("t2", 10, 5, StaticOrderSchedule(periodic=("a",))),
        ]
        with pytest.raises(ValueError):
            constrained_throughput(two_actor_pipeline, tiles)

    def test_transient_schedule_prefix_respected(self):
        # schedule a (a b)*: the transient extra 'a' needs 2 slots of
        # buffer space on the back edge
        graph = SDFGraph("pipe2")
        graph.add_actor("a", 2)
        graph.add_actor("b", 3)
        graph.add_channel("self:a", "a", "a", tokens=1)
        graph.add_channel("self:b", "b", "b", tokens=1)
        graph.add_channel("ab", "a", "b")
        graph.add_channel("ba", "b", "a", tokens=2)
        tiles = [
            TileConstraints(
                "t",
                10,
                10,
                StaticOrderSchedule(periodic=("a", "b"), transient=("a",)),
            )
        ]
        result = constrained_throughput(graph, tiles)
        assert not result.deadlocked
        # steady state is still strict alternation: 1 firing per 5 units
        assert result.of("b") == Fraction(1, 5)

    def test_insufficient_buffer_for_transient_deadlocks(self, two_actor_pipeline):
        tiles = [
            TileConstraints(
                "t",
                10,
                10,
                StaticOrderSchedule(periodic=("a", "b"), transient=("a",)),
            )
        ]
        result = constrained_throughput(two_actor_pipeline, tiles)
        assert result.deadlocked

    def test_tile_constraint_validation(self):
        with pytest.raises(ValueError):
            TileConstraints("t", 0, 0, StaticOrderSchedule(periodic=("a",)))
        with pytest.raises(ValueError):
            TileConstraints("t", 10, 11, StaticOrderSchedule(periodic=("a",)))

    def test_two_tiles_interleave(self):
        graph = SDFGraph("two-tiles")
        graph.add_actor("a", 1)
        graph.add_actor("b", 1)
        graph.add_channel("self:a", "a", "a", tokens=1)
        graph.add_channel("self:b", "b", "b", tokens=1)
        graph.add_channel("ab", "a", "b")
        graph.add_channel("ba", "b", "a", tokens=1)
        tiles = [
            TileConstraints("t1", 4, 2, StaticOrderSchedule(periodic=("a",))),
            TileConstraints("t2", 4, 2, StaticOrderSchedule(periodic=("b",))),
        ]
        result = constrained_throughput(graph, tiles)
        assert not result.deadlocked
        # serial dependency + 50% wheels: between 1/8 and 1/2
        assert Fraction(1, 8) <= result.of("b") <= Fraction(1, 2)
