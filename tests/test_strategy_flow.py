"""Unit tests for the full strategy facade and the multi-application flow."""

from fractions import Fraction

import pytest

from repro.appmodel.example import (
    paper_example_application,
    paper_example_architecture,
)
from repro.core.flow import allocate_until_failure
from repro.core.strategy import AllocationError, ResourceAllocator
from repro.core.tile_cost import CostWeights


class TestResourceAllocator:
    def test_successful_allocation(self):
        app = paper_example_application()
        arch = paper_example_architecture()
        allocation = ResourceAllocator().allocate(app, arch)
        assert allocation.satisfied
        assert set(allocation.binding.assignment) == {"a1", "a2", "a3"}
        assert allocation.throughput_checks > 0
        for tile in allocation.binding.used_tiles():
            assert allocation.scheduling.slice_of(tile) >= 1
            assert allocation.scheduling.schedule_of(tile).periodic

    def test_allocation_not_committed_automatically(self):
        app = paper_example_application()
        arch = paper_example_architecture()
        ResourceAllocator().allocate(app, arch)
        assert arch.total_usage()["timewheel"] == 0

    def test_reservation_commit(self):
        app = paper_example_application()
        arch = paper_example_architecture()
        allocation = ResourceAllocator().allocate(app, arch)
        allocation.reservation.commit(arch)
        usage = arch.total_usage()
        assert usage["timewheel"] > 0
        assert usage["memory"] > 0

    def test_infeasible_constraint_raises_allocation_error(self):
        app = paper_example_application(throughput_constraint=Fraction(1, 2))
        arch = paper_example_architecture()
        with pytest.raises(AllocationError):
            ResourceAllocator().allocate(app, arch)

    def test_precomputed_binding_honoured(self):
        from repro.appmodel.example import paper_example_binding

        app = paper_example_application()
        arch = paper_example_architecture()
        binding = paper_example_binding()
        allocation = ResourceAllocator().allocate(app, arch, binding=binding)
        assert allocation.binding.assignment == binding.assignment

    @pytest.mark.parametrize("backend", ["greedy", "exact"])
    def test_precomputed_binding_violating_section7_is_refused(self, backend):
        from repro.appmodel.binding import Binding
        from repro.core.binding import BindingError

        app = paper_example_application()
        arch = paper_example_architecture()
        t1 = arch.tile("t1")
        t1.memory_occupied = t1.memory - 10
        binding = Binding({"a1": "t1", "a2": "t1", "a3": "t1"})
        with pytest.raises(AllocationError) as excinfo:
            ResourceAllocator(backend=backend).allocate(
                app, arch, binding=binding
            )
        if backend == "greedy":
            assert isinstance(excinfo.value.__cause__, BindingError)
            assert "tile 't1': memory needs" in str(excinfo.value)

    def test_weights_influence_binding(self):
        app = paper_example_application()
        arch = paper_example_architecture()
        clustered = ResourceAllocator(weights=CostWeights(0, 0, 1)).allocate(
            app, arch
        )
        assert len(clustered.binding.used_tiles()) == 1

    def test_achieved_throughput_is_fraction(self):
        app = paper_example_application()
        arch = paper_example_architecture()
        allocation = ResourceAllocator().allocate(app, arch)
        assert isinstance(allocation.achieved_throughput, Fraction)


class TestFlow:
    def apps(self, count):
        return [
            paper_example_application(throughput_constraint=Fraction(1, 200))
            for _ in range(count)
        ]

    def test_allocates_until_wheel_runs_out(self):
        arch = paper_example_architecture()
        result = allocate_until_failure(arch, self.apps(30))
        assert 1 <= result.applications_bound < 30
        assert result.failed_application is not None
        assert result.resource_usage["timewheel"] > 0

    def test_committed_resources_accumulate(self):
        arch = paper_example_architecture()
        result = allocate_until_failure(arch, self.apps(2))
        assert result.applications_bound == 2
        assert arch.total_usage()["memory"] == sum(
            claim.memory
            for allocation in result.allocations
            for claim in allocation.reservation.tiles.values()
        )

    def test_stops_at_first_failure_by_default(self):
        arch = paper_example_architecture()
        # one impossible app in the middle stops the flow
        apps = self.apps(1)
        apps.append(
            paper_example_application(throughput_constraint=Fraction(1, 2))
        )
        apps.extend(self.apps(1))
        result = allocate_until_failure(arch, apps)
        assert result.applications_bound == 1
        assert result.failed_application == apps[1].name

    def test_continue_after_failure(self):
        arch = paper_example_architecture()
        apps = self.apps(1)
        apps.append(
            paper_example_application(throughput_constraint=Fraction(1, 2))
        )
        apps.extend(self.apps(1))
        result = allocate_until_failure(arch, apps, continue_after_failure=True)
        assert result.applications_bound == 2
        assert result.failed_application == apps[1].name

    def test_utilisation_fractions(self):
        arch = paper_example_architecture()
        result = allocate_until_failure(arch, self.apps(30))
        utilisation = result.utilisation()
        assert 0 < utilisation["timewheel"] <= 1

    def test_allocator_and_weights_mutually_exclusive(self):
        arch = paper_example_architecture()
        with pytest.raises(ValueError):
            allocate_until_failure(
                arch,
                [],
                allocator=ResourceAllocator(),
                weights=CostWeights(),
            )

    def test_total_throughput_checks_aggregated(self):
        arch = paper_example_architecture()
        result = allocate_until_failure(arch, self.apps(2))
        assert result.total_throughput_checks == sum(
            a.throughput_checks for a in result.allocations
        )


class TestFlowCheckpoints:
    """Crash-safety plumbing of ``allocate_until_failure``.

    The flow checkpoint at ``checkpoint_path`` is the only file the flow
    writes: an application that was not committed is searched again
    from the start on resume, so no engine frontier is kept for it.
    """

    def apps(self, count):
        from repro.appmodel.example import paper_example_application

        apps = [
            paper_example_application(throughput_constraint=Fraction(1, 200))
            for _ in range(count)
        ]
        for index, app in enumerate(apps):
            app.name = app.graph.name = f"ck-app-{index}"
        return apps

    def test_successful_flow_leaves_only_the_flow_checkpoint(self, tmp_path):
        path = tmp_path / "flow.json"
        result = allocate_until_failure(
            paper_example_architecture(), self.apps(3), checkpoint_path=str(path)
        )
        assert result.applications_bound == 3
        assert [p.name for p in tmp_path.iterdir()] == ["flow.json"]

    def test_interrupted_application_leaves_scoped_engine_checkpoint(
        self, tmp_path
    ):
        """An application interrupted by the budget leaves no engine
        checkpoint of its own beside the flow checkpoint."""
        from repro.resilience.budget import Budget

        path = tmp_path / "flow.json"
        result = allocate_until_failure(
            paper_example_architecture(),
            self.apps(3),
            budget=Budget(max_states=250),
            checkpoint_path=str(path),
        )
        exhausted = [
            record["application"]
            for record in result.application_stats
            if record["outcome"] == "budget-exhausted"
        ]
        assert exhausted, "budget was expected to interrupt an application"
        assert result.applications_bound > 0  # so flow.json was written
        assert [p.name for p in tmp_path.iterdir()] == ["flow.json"]

    def test_resume_skips_committed_applications_and_cleans_up(
        self, tmp_path
    ):
        from repro.resilience.budget import Budget

        path = tmp_path / "flow.json"
        interrupted = allocate_until_failure(
            paper_example_architecture(),
            self.apps(3),
            budget=Budget(max_states=250),
            checkpoint_path=str(path),
        )
        committed = interrupted.applications_bound
        assert 0 < committed < 3
        resumed = allocate_until_failure(
            paper_example_architecture(),
            self.apps(3),
            checkpoint_path=str(path),
            resume=str(path),
        )
        assert resumed.applications_bound == 3
        # committed applications were re-applied, not re-searched: their
        # resumed stats are the recorded ones, check for free
        for record in resumed.application_stats[:committed]:
            assert record["outcome"] == "allocated"
        # the resumed flow matches a fresh uninterrupted run exactly
        fresh = allocate_until_failure(paper_example_architecture(), self.apps(3))
        assert [
            dict(a.binding.assignment) for a in resumed.allocations
        ] == [dict(a.binding.assignment) for a in fresh.allocations]
        assert [
            a.achieved_throughput for a in resumed.allocations
        ] == [a.achieved_throughput for a in fresh.allocations]
        assert [p.name for p in tmp_path.iterdir()] == ["flow.json"]
