"""Unit tests for the repro.obs metrics layer."""

import io
import json

import pytest

from repro.obs import (
    JsonSink,
    Metrics,
    NULL_METRICS,
    NULL_TRACE,
    NullMetrics,
    NullSink,
    SummarySink,
    TraceBuffer,
    chrome_trace,
    collecting,
    disable,
    enable,
    format_summary,
    get_metrics,
    to_json,
    tracing,
)

AGGREGATES = {"counters", "gauges", "timers", "histograms"}


class FakeClock:
    """Deterministic clock: each reading advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestCounters:
    def test_counter_defaults_to_one(self):
        metrics = Metrics()
        metrics.counter("hits")
        metrics.counter("hits")
        assert metrics.snapshot()["counters"]["hits"] == 2

    def test_counter_accumulates_values(self):
        metrics = Metrics()
        metrics.counter("states", 10)
        metrics.counter("states", 32)
        assert metrics.snapshot()["counters"]["states"] == 42

    def test_gauge_keeps_last_value(self):
        metrics = Metrics()
        metrics.gauge("size", 5)
        metrics.gauge("size", 3)
        assert metrics.snapshot()["gauges"]["size"] == 3


class TestTimers:
    def test_timer_aggregates_count_and_total(self):
        metrics = Metrics(clock=FakeClock(step=1.0))
        with metrics.timer("phase"):
            pass
        with metrics.timer("phase"):
            pass
        stat = metrics.snapshot()["timers"]["phase"]
        assert stat["count"] == 2
        assert stat["total_seconds"] == pytest.approx(2.0)
        assert stat["min_seconds"] == pytest.approx(1.0)
        assert stat["max_seconds"] == pytest.approx(1.0)

    def test_observe_feeds_timer_directly(self):
        metrics = Metrics()
        metrics.observe("engine", 0.25)
        metrics.observe("engine", 0.75)
        stat = metrics.snapshot()["timers"]["engine"]
        assert stat["count"] == 2
        assert stat["total_seconds"] == pytest.approx(1.0)
        assert stat["min_seconds"] == pytest.approx(0.25)
        assert stat["max_seconds"] == pytest.approx(0.75)

    def test_nested_timers_are_independent(self):
        metrics = Metrics(clock=FakeClock(step=1.0))
        with metrics.timer("outer"):
            with metrics.timer("inner"):
                pass
        timers = metrics.snapshot()["timers"]
        assert timers["outer"]["count"] == 1
        assert timers["inner"]["count"] == 1
        # the fake clock ticks once per reading: outer spans 3 ticks
        assert timers["outer"]["total_seconds"] > timers["inner"]["total_seconds"]


class TestAggregatesOnly:
    def test_snapshot_holds_only_the_four_aggregates(self):
        metrics = Metrics()
        metrics.counter("c")
        metrics.observe("t", 0.5)
        assert set(metrics.snapshot()) == AGGREGATES
        assert set(NULL_METRICS.snapshot()) == AGGREGATES

    def test_registries_have_no_span_method(self):
        import repro.obs

        assert not hasattr(Metrics, "span")
        assert not hasattr(NullMetrics, "span")
        assert not hasattr(repro.obs, "Span")


class TestSnapshotExport:
    def test_json_round_trip(self):
        metrics = Metrics()
        metrics.counter("c", 3)
        metrics.gauge("g", 7)
        metrics.observe("t", 0.5)
        trace = TraceBuffer()
        with trace.span("test", "s", key="value"):
            pass
        restored = json.loads(to_json(metrics.snapshot()))
        assert restored["counters"] == {"c": 3}
        assert restored["gauges"] == {"g": 7}
        assert restored["timers"]["t"]["count"] == 1
        (event,) = json.loads(to_json(chrome_trace(trace)))["traceEvents"][1:]
        assert event["name"] == "s"
        assert event["args"] == {"key": "value"}

    def test_non_json_values_are_stringified(self):
        from fractions import Fraction

        metrics = Metrics()
        metrics.gauge("rate", Fraction(1, 3))
        restored = json.loads(to_json(metrics.snapshot()))
        assert restored["gauges"]["rate"] == "1/3"

    def test_json_sink_writes_file(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        metrics = Metrics(sink=JsonSink(path))
        metrics.counter("c")
        metrics.flush()
        assert json.load(open(path))["counters"] == {"c": 1}

    def test_json_sink_writes_stream(self):
        stream = io.StringIO()
        JsonSink(stream).emit({"counters": {"x": 1}})
        assert json.loads(stream.getvalue())["counters"] == {"x": 1}

    def test_summary_sink_renders_names(self):
        stream = io.StringIO()
        metrics = Metrics(sink=SummarySink(stream))
        metrics.counter("engine.states", 12)
        metrics.observe("engine.run", 0.001)
        metrics.histogram("top", 0.5)
        metrics.flush()
        text = stream.getvalue()
        assert "engine.states: 12" in text
        assert "engine.run" in text
        assert "top" in text

    def test_empty_summary_has_placeholder(self):
        assert format_summary(Metrics().snapshot()) == "(no metrics recorded)"

    def test_reset_clears_everything(self):
        metrics = Metrics()
        metrics.counter("c")
        metrics.observe("t", 1.0)
        metrics.histogram("h", 0.5)
        metrics.reset()
        assert metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "timers": {},
            "histograms": {},
        }


class TestNullRegistry:
    def test_default_registry_is_disabled(self):
        metrics = get_metrics()
        assert metrics is NULL_METRICS
        assert not metrics.enabled

    def test_null_operations_record_nothing(self):
        null = NULL_METRICS
        null.counter("c", 5)
        null.gauge("g", 1)
        null.observe("t", 1.0)
        null.histogram("h", 0.5)
        with null.timer("t"):
            pass
        with NULL_TRACE.span("test", "s", k=1) as span:
            span.set("x", 2)
        assert null.snapshot() == {
            "counters": {},
            "gauges": {},
            "timers": {},
            "histograms": {},
        }
        assert NULL_TRACE.events() == []

    def test_null_sink_discards(self):
        NullSink().emit({"counters": {"a": 1}})  # must not raise

    def test_enable_disable_swaps_active_registry(self):
        metrics = enable()
        try:
            assert get_metrics() is metrics
            metrics.counter("c")
        finally:
            disable()
        assert get_metrics() is NULL_METRICS
        assert metrics.snapshot()["counters"] == {"c": 1}

    def test_collecting_restores_on_exit(self):
        with collecting() as metrics:
            assert get_metrics() is metrics
        assert get_metrics() is NULL_METRICS

    def test_collecting_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with collecting():
                raise RuntimeError("boom")
        assert get_metrics() is NULL_METRICS

    def test_flush_without_sink_is_safe(self):
        Metrics().flush()  # default sink is the null sink


class TestEngineIntegration:
    def test_state_space_counters_recorded(self, simple_cycle_graph):
        from repro.throughput.state_space import throughput

        with collecting() as metrics, tracing() as trace:
            result = throughput(simple_cycle_graph)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["state_space.executions"] == 1
        assert (
            snapshot["counters"]["state_space.states"]
            == result.states_explored
        )
        assert snapshot["timers"]["state_space.execute"]["count"] == 1
        (event,) = [
            e for e in trace.events()
            if (e.category, e.name) == ("engine", "state_space.throughput")
        ]
        assert event.args["states"] == result.states_explored

    def test_disabled_collection_leaves_no_trace(self, simple_cycle_graph):
        from repro.throughput.state_space import throughput

        throughput(simple_cycle_graph)
        assert get_metrics().snapshot()["counters"] == {}

    def test_allocation_spans_and_phase_timers(self):
        from repro.appmodel.example import (
            paper_example_application,
            paper_example_architecture,
        )
        from repro.core.strategy import ResourceAllocator

        with collecting() as metrics, tracing() as trace:
            ResourceAllocator().allocate(
                paper_example_application(), paper_example_architecture()
            )
        snapshot = metrics.snapshot()
        for phase in (
            "allocate.binding",
            "allocate.scheduling",
            "allocate.slices",
        ):
            assert snapshot["timers"][phase]["count"] == 1
        allocate_events = [
            e for e in trace.events()
            if (e.category, e.name) == ("strategy", "allocate")
        ]
        assert allocate_events[0].args["outcome"] == "allocated"
        assert snapshot["counters"]["slices.throughput_checks"] >= 1


class TestSinkEdgeCases:
    def test_format_summary_on_the_empty_null_snapshot(self):
        from repro.obs import NULL_METRICS

        assert format_summary(NULL_METRICS.snapshot()) == (
            "(no metrics recorded)"
        )

    def test_format_summary_with_only_gauges(self):
        metrics = Metrics()
        metrics.gauge("flow.applications_bound", 4)
        text = format_summary(metrics.snapshot())
        assert "flow.applications_bound" in text
        assert "4" in text

    def test_fraction_gauges_survive_to_json_and_back(self):
        from fractions import Fraction

        metrics = Metrics()
        metrics.gauge("rate.exact", Fraction(7, 12))
        metrics.gauge("rate.whole", Fraction(3, 1))
        restored = json.loads(to_json(metrics.snapshot()))
        assert restored["gauges"]["rate.exact"] == "7/12"
        assert restored["gauges"]["rate.whole"] == "3"

    def test_infinite_timer_min_is_never_exported(self):
        metrics = Metrics()
        stat = metrics.snapshot()
        metrics.observe("t", 0.5)
        stat = metrics.snapshot()["timers"]["t"]
        assert stat["min_seconds"] == 0.5
        json.dumps(stat)


class TestThreadSafety:
    def test_concurrent_recording_is_not_lost(self):
        import threading

        metrics = Metrics()

        def record():
            for _ in range(1000):
                metrics.counter("shared")
                metrics.observe("timer", 0.001)
                metrics.gauge("last", 1)

        threads = [threading.Thread(target=record) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["shared"] == 4000
        assert snapshot["timers"]["timer"]["count"] == 4000
