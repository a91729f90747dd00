"""Unit tests for the bounded trace buffer and its Chrome export."""

import json
import threading

import pytest

from repro.obs.trace import (
    DEFAULT_CAPACITY,
    NULL_TRACE,
    PARENT_PID,
    NullTraceBuffer,
    TraceBuffer,
    TraceEvent,
    chrome_trace,
    disable_trace,
    enable_trace,
    get_trace,
    merged_chrome_trace,
    tracing,
    write_chrome_trace,
)


class FakeClock:
    def __init__(self):
        self.value = 0.0

    def __call__(self):
        return self.value

    def advance(self, seconds):
        self.value += seconds


class TestRecording:
    def test_instant_records_at_current_clock(self):
        clock = FakeClock()
        buffer = TraceBuffer(clock=clock)
        clock.advance(1.5)
        buffer.instant("engine", "tick", states=7)
        (event,) = buffer.events()
        assert event.category == "engine"
        assert event.name == "tick"
        assert event.timestamp == 1.5
        assert event.duration is None
        assert event.args == {"states": 7}

    def test_complete_records_duration(self):
        buffer = TraceBuffer(clock=FakeClock())
        buffer.complete("engine", "execute", 1.0, 3.5, graph="g")
        (event,) = buffer.events()
        assert event.duration == 2.5
        assert event.args == {"graph": "g"}

    def test_complete_clamps_negative_durations(self):
        buffer = TraceBuffer(clock=FakeClock())
        buffer.complete("engine", "execute", 5.0, 4.0)
        assert buffer.events()[0].duration == 0.0

    def test_span_records_complete_event_on_exit(self):
        clock = FakeClock()
        buffer = TraceBuffer(clock=clock)
        with buffer.span("flow", "application", application="app") as span:
            clock.advance(2.0)
            span.set("outcome", "allocated")
        (event,) = buffer.events()
        assert event.name == "application"
        assert event.duration == 2.0
        assert event.args == {"application": "app", "outcome": "allocated"}

    def test_default_capacity_is_bounded(self):
        assert TraceBuffer().capacity == DEFAULT_CAPACITY

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)


class TestRingBuffer:
    def test_oldest_events_are_evicted(self):
        buffer = TraceBuffer(capacity=3, clock=FakeClock())
        for i in range(5):
            buffer.instant("engine", f"event-{i}")
        names = [event.name for event in buffer.events()]
        assert names == ["event-2", "event-3", "event-4"]
        assert buffer.dropped == 2

    def test_summary_counts_categories_and_drops(self):
        buffer = TraceBuffer(capacity=2, clock=FakeClock())
        buffer.instant("engine", "a")
        buffer.instant("tdma", "b")
        buffer.instant("tdma", "c")
        assert buffer.summary() == {
            "events": 2,
            "dropped": 1,
            "categories": {"tdma": 2},
        }

    def test_clear_resets_events_and_drop_count(self):
        buffer = TraceBuffer(capacity=1, clock=FakeClock())
        buffer.instant("engine", "a")
        buffer.instant("engine", "b")
        buffer.clear()
        assert buffer.events() == []
        assert buffer.dropped == 0

    def test_concurrent_appends_lose_nothing(self):
        buffer = TraceBuffer(clock=FakeClock())

        def record():
            for _ in range(500):
                buffer.instant("engine", "tick")

        threads = [threading.Thread(target=record) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(buffer.events()) == 2000
        assert buffer.dropped == 0


class TestActiveBuffer:
    def test_default_is_the_null_buffer(self):
        assert get_trace() is NULL_TRACE
        assert get_trace().enabled is False

    def test_null_buffer_is_inert(self):
        null = NullTraceBuffer()
        null.instant("engine", "a")
        null.complete("engine", "b", 0.0, 1.0)
        with null.span("engine", "c") as span:
            span.set("key", "value")
        assert null.events() == []
        assert null.dropped == 0
        assert null.now() == 0.0
        assert null.summary() == {"events": 0, "dropped": 0, "categories": {}}

    def test_enable_disable_swaps_active_buffer(self):
        buffer = enable_trace()
        try:
            assert get_trace() is buffer
        finally:
            assert disable_trace() is buffer
        assert get_trace() is NULL_TRACE

    def test_tracing_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert get_trace() is NULL_TRACE


class TestChromeExport:
    def test_instants_and_completes_map_to_phases(self):
        buffer = TraceBuffer(clock=FakeClock())
        buffer.complete("engine", "execute", 1.0, 1.5, states=3)
        buffer.instant("checkpoint", "write", path="ck.json")
        document = chrome_trace(buffer)
        assert document["displayTimeUnit"] == "ms"
        meta, complete, instant = document["traceEvents"]
        assert meta["ph"] == "M"
        assert meta["args"] == {"name": "repro-alloc"}
        assert complete["ph"] == "X"
        assert complete["cat"] == "engine"
        # rebased to the earliest event: the instant fired at clock 0.0
        assert instant["ts"] == 0.0
        assert complete["ts"] == pytest.approx(1_000_000.0)  # microseconds
        assert complete["dur"] == pytest.approx(500_000.0)
        assert instant["ph"] == "i"
        assert instant["s"] == "t"

    def test_export_accepts_plain_event_lists(self):
        events = [TraceEvent("engine", "tick", 2.0)]
        document = chrome_trace(events, process_name="custom")
        assert document["traceEvents"][0]["args"] == {"name": "custom"}
        assert document["traceEvents"][1]["ts"] == 0.0

    def test_single_process_export_is_the_one_lane_merged_export(self):
        buffer = TraceBuffer(clock=FakeClock())
        buffer.complete("engine", "execute", 1.0, 1.5, states=3)
        buffer.instant("checkpoint", "write", path="ck.json")
        lane = {"name": "p", "pid": PARENT_PID, "events": buffer.events()}
        assert json.dumps(chrome_trace(buffer, "p")) == json.dumps(
            merged_chrome_trace([lane])
        )

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        buffer = TraceBuffer(clock=FakeClock())
        buffer.instant("engine", "tick")
        path = tmp_path / "trace.json"
        assert write_chrome_trace(str(path), buffer) == str(path)
        document = json.loads(path.read_text())
        assert {event["ph"] for event in document["traceEvents"]} == {
            "M",
            "i",
        }

    def test_write_stringifies_non_json_args(self, tmp_path):
        from fractions import Fraction

        buffer = TraceBuffer(clock=FakeClock())
        buffer.instant("engine", "tick", rate=Fraction(1, 3))
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), buffer)
        document = json.loads(path.read_text())
        assert document["traceEvents"][1]["args"]["rate"] == "1/3"


def _events(buffer, category, name):
    return [
        event
        for event in buffer.events()
        if (event.category, event.name) == (category, name)
    ]


class TestEngineIntegration:
    def test_state_space_emits_engine_events(self, simple_cycle_graph):
        from repro.throughput.state_space import throughput

        with tracing() as buffer:
            throughput(simple_cycle_graph)
        categories = buffer.summary()["categories"]
        assert categories.get("engine", 0) >= 1

    def test_allocation_emits_engine_and_tdma_events(self):
        from repro.appmodel.example import (
            paper_example_application,
            paper_example_architecture,
        )
        from repro.core.strategy import ResourceAllocator

        with tracing() as buffer:
            ResourceAllocator().allocate(
                paper_example_application(), paper_example_architecture()
            )
        categories = buffer.summary()["categories"]
        assert categories.get("engine", 0) >= 1
        assert categories.get("tdma", 0) >= 1

    def test_budget_exhaustion_emits_resilience_event(self):
        from repro.resilience.budget import Budget, BudgetExceededError

        with tracing() as buffer:
            budget = Budget(max_states=1)
            with pytest.raises(BudgetExceededError):
                budget.tick(2)
        (event,) = buffer.events()
        assert event.category == "resilience"
        assert event.name == "budget.exhausted"
        assert event.args["reason"] == "states"

    def test_checkpoint_write_and_read_emit_events(self, tmp_path):
        from repro.resilience.checkpoint import (
            read_checkpoint,
            write_checkpoint,
        )

        path = str(tmp_path / "ck.json")
        payload = {
            "format": "repro-checkpoint",
            "version": 1,
            "kind": "state-space",
        }
        with tracing() as buffer:
            write_checkpoint(path, payload)
            read_checkpoint(path)
        names = [event.name for event in buffer.events()]
        assert names == ["write", "read"]
        assert all(
            event.category == "checkpoint" for event in buffer.events()
        )

    def test_state_space_throughput_event_counts_components(self):
        from repro.sdf.graph import SDFGraph
        from repro.throughput.state_space import throughput

        graph = SDFGraph("two-sccs")
        for name, time in (("a", 2), ("b", 3), ("c", 1), ("d", 4)):
            graph.add_actor(name, time)
        graph.add_channel("ab", "a", "b")
        graph.add_channel("ba", "b", "a", tokens=1)
        graph.add_channel("bc", "b", "c")
        graph.add_channel("cd", "c", "d")
        graph.add_channel("dc", "d", "c", tokens=1)
        with tracing() as buffer:
            result = throughput(graph)
        (event,) = _events(buffer, "engine", "state_space.throughput")
        assert event.args["graph"] == "two-sccs"
        assert event.args["sccs"] == 2
        assert event.args["sccs_explored"] == 2
        assert event.args["states"] == result.states_explored
        assert event.args["iteration_rate"] == str(result.iteration_rate)

    def test_greedy_allocation_leaves_one_strategy_event(self):
        from fractions import Fraction

        from repro.appmodel.example import (
            paper_example_application,
            paper_example_architecture,
        )
        from repro.core.strategy import AllocationError, ResourceAllocator

        with tracing() as buffer:
            allocation = ResourceAllocator().allocate(
                paper_example_application(), paper_example_architecture()
            )
        (event,) = _events(buffer, "strategy", "allocate")
        assert event.duration is not None
        assert event.args["outcome"] == "allocated"
        assert event.args["throughput_checks"] == allocation.throughput_checks
        assert event.args["achieved_throughput"] == str(
            allocation.achieved_throughput
        )
        assert event.args["tiles_used"] == len(
            allocation.binding.used_tiles()
        )
        with tracing() as buffer:
            with pytest.raises(AllocationError):
                ResourceAllocator().allocate(
                    paper_example_application(
                        throughput_constraint=Fraction(1, 1)
                    ),
                    paper_example_architecture(),
                )
        (event,) = _events(buffer, "strategy", "allocate")
        assert event.args["outcome"] == "failed"
        assert event.args["reason"]

    def test_exact_search_stopped_by_its_budget_leaves_its_event(self):
        from repro.appmodel.example import paper_example
        from repro.exact import exact_search
        from repro.resilience.budget import Budget, BudgetExceededError

        application, architecture, _ = paper_example()
        with tracing() as buffer:
            with pytest.raises(BudgetExceededError):
                exact_search(
                    application, architecture, budget=Budget(max_states=5)
                )
        (event,) = _events(buffer, "exact", "search")
        assert event.args["outcome"] == "budget-exhausted"
        assert event.args["reason"] == "states"

    def test_flow_application_that_raises_records_its_error_type(self):
        from repro.appmodel.example import (
            paper_example_application,
            paper_example_architecture,
        )
        from repro.core.flow import allocate_until_failure
        from repro.resilience.faults import FaultInjector, FaultSpec

        spec = FaultSpec(point="scheduling.build", error="runtime")
        with tracing() as buffer, FaultInjector(specs=[spec]):
            result = allocate_until_failure(
                paper_example_architecture(), [paper_example_application()]
            )
        assert result.application_stats[0]["outcome"] == "error"
        (event,) = _events(buffer, "flow", "application")
        assert event.args["outcome"] == "error"
        assert event.args["error_type"] == "InjectedFaultError"
        assert event.args["reason"] == result.application_stats[0]["reason"]

    def test_disabled_tracing_records_nothing(self, simple_cycle_graph):
        from repro.throughput.state_space import throughput

        assert get_trace() is NULL_TRACE
        throughput(simple_cycle_graph)
        assert NULL_TRACE.events() == []
