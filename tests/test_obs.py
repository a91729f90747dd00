"""Unit tests for the repro.obs metrics layer."""

import json

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Metrics,
    NULL_METRICS,
    NULL_TRACE,
    NullMetrics,
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

AGGREGATES = {"counters", "gauges", "histograms"}

#: index of each latency bucket bound, for reading per-bucket counts
LATENCY_BUCKET = {bound: i for i, bound in enumerate(DEFAULT_LATENCY_BUCKETS)}


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
        with metrics.timer("phase_seconds"):
            pass
        with metrics.timer("phase_seconds"):
            pass
        stat = metrics.snapshot()["histograms"]["phase_seconds"]
        assert stat["buckets"] == list(DEFAULT_LATENCY_BUCKETS)
        assert stat["count"] == 2
        assert stat["sum"] == pytest.approx(2.0)
        assert stat["counts"][LATENCY_BUCKET[1.0]] == 2

    def test_nested_timers_are_independent(self):
        metrics = Metrics(clock=FakeClock(step=1.0))
        with metrics.timer("outer_seconds"):
            with metrics.timer("inner_seconds"):
                pass
        histograms = metrics.snapshot()["histograms"]
        assert histograms["outer_seconds"]["count"] == 1
        assert histograms["inner_seconds"]["count"] == 1
        # the fake clock ticks once per reading: outer spans 3 ticks
        assert histograms["outer_seconds"]["sum"] == pytest.approx(3.0)
        assert histograms["inner_seconds"]["sum"] == pytest.approx(1.0)


class TestAggregatesOnly:
    def test_snapshot_holds_only_the_three_aggregates(self):
        metrics = Metrics()
        metrics.counter("c")
        metrics.gauge("g", 1)
        with metrics.timer("t_seconds"):
            pass
        assert set(metrics.snapshot()) == AGGREGATES
        assert set(NULL_METRICS.snapshot()) == AGGREGATES

    def test_registries_have_no_span_method(self):
        import repro.obs

        assert not hasattr(Metrics, "span")
        assert not hasattr(NullMetrics, "span")
        assert not hasattr(repro.obs, "Span")

    def test_registries_have_no_timer_aggregate_or_sink(self):
        import importlib.util

        import repro.obs
        import repro.obs.metrics

        for registry in (Metrics, NullMetrics):
            assert not hasattr(registry, "observe")
            assert not hasattr(registry, "flush")
        for name in ("TimerStat", "Sink", "NullSink", "NULL_SINK",
                     "JsonSink", "SummarySink"):
            assert not hasattr(repro.obs, name)
        assert not hasattr(repro.obs.metrics, "RESERVOIR_SIZE")
        assert importlib.util.find_spec("repro.obs.sinks") is None
        with pytest.raises(TypeError):
            Metrics(sink=None)


class TestSnapshotExport:
    def test_json_round_trip(self):
        metrics = Metrics()
        metrics.counter("c", 3)
        metrics.gauge("g", 7)
        metrics.histogram("t_seconds", 0.5)
        trace = TraceBuffer()
        with trace.span("test", "s", key="value"):
            pass
        restored = json.loads(to_json(metrics.snapshot()))
        assert restored["counters"] == {"c": 3}
        assert restored["gauges"] == {"g": 7}
        assert restored["histograms"]["t_seconds"]["count"] == 1
        (event,) = json.loads(to_json(chrome_trace(trace)))["traceEvents"][1:]
        assert event["name"] == "s"
        assert event["args"] == {"key": "value"}

    def test_non_json_values_are_stringified(self):
        from fractions import Fraction

        metrics = Metrics()
        metrics.gauge("rate", Fraction(1, 3))
        restored = json.loads(to_json(metrics.snapshot()))
        assert restored["gauges"]["rate"] == "1/3"

    def test_format_summary_renders_names(self):
        metrics = Metrics()
        metrics.counter("engine.states", 12)
        metrics.histogram("engine.run_seconds", 0.001)
        metrics.histogram("top", 0.5)
        text = format_summary(metrics.snapshot())
        assert "engine.states: 12" in text
        assert "engine.run_seconds: 1x mean 0.001 sum 0.001" in text
        assert "top" in text

    def test_empty_summary_has_placeholder(self):
        assert format_summary(Metrics().snapshot()) == "(no metrics recorded)"

    def test_reset_clears_everything(self):
        metrics = Metrics()
        metrics.counter("c")
        metrics.gauge("g", 1)
        metrics.histogram("h", 0.5)
        metrics.reset()
        assert metrics.snapshot() == {
            "counters": {},
            "gauges": {},
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
        null.histogram("h", 0.5)
        with null.timer("t_seconds"):
            pass
        null.merge_snapshot({"counters": {"c": 1}}, prefix="child.")
        with NULL_TRACE.span("test", "s", k=1) as span:
            span.set("x", 2)
        assert null.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert NULL_TRACE.events() == []

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
        assert (
            snapshot["histograms"]["state_space.execute_seconds"]["count"]
            == 1
        )
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
            "allocate.binding_seconds",
            "allocate.binding_aware_seconds",
            "allocate.scheduling_seconds",
            "allocate.slices_seconds",
        ):
            assert snapshot["histograms"][phase]["count"] == 1
        allocate_events = [
            e for e in trace.events()
            if (e.category, e.name) == ("strategy", "allocate")
        ]
        assert allocate_events[0].args["outcome"] == "allocated"
        assert snapshot["counters"]["slices.throughput_checks"] >= 1


class TestSinkEdgeCases:
    """Edge cases of the snapshot renderers, ``format_summary`` and
    ``to_json``."""

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


class TestThreadSafety:
    def test_concurrent_recording_is_not_lost(self):
        import threading

        metrics = Metrics()

        def record():
            for _ in range(1000):
                metrics.counter("shared")
                metrics.histogram("timer_seconds", 0.001)
                metrics.gauge("last", 1)

        threads = [threading.Thread(target=record) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["shared"] == 4000
        assert snapshot["histograms"]["timer_seconds"]["count"] == 4000


def _timed(name, seconds, times):
    """A registry holding ``times`` timer blocks of ``seconds`` each."""
    readings = iter([0.0, seconds] * times)
    metrics = Metrics(clock=lambda: next(readings))
    for _ in range(times):
        with metrics.timer(name):
            pass
    return metrics


class TestMergeSnapshot:
    def test_prefix_namespaces_every_merged_name(self):
        child = Metrics()
        child.counter("state_space.states", 7)
        child.gauge("state_space.period", 3)
        child.histogram("state_space.execute_seconds", 0.002)
        parent = Metrics()
        parent.counter("state_space.states", 1)
        parent.merge_snapshot(child.snapshot(), prefix="child.")
        snapshot = parent.snapshot()
        assert snapshot["counters"] == {
            "state_space.states": 1,
            "child.state_space.states": 7,
        }
        assert snapshot["gauges"] == {"child.state_space.period": 3}
        assert set(snapshot["histograms"]) == {
            "child.state_space.execute_seconds"
        }

    def test_counters_are_summed(self):
        parent = Metrics()
        parent.counter("c", 2)
        parent.merge_snapshot({"counters": {"c": 3, "d": 1}})
        parent.merge_snapshot({"counters": {"c": 4}})
        assert parent.snapshot()["counters"] == {"c": 9, "d": 1}

    def test_gauges_last_write_wins(self):
        parent = Metrics()
        parent.gauge("g", 1)
        parent.merge_snapshot({"gauges": {"g": 2}})
        parent.merge_snapshot({"gauges": {"g": 5}})
        assert parent.snapshot()["gauges"] == {"g": 5}

    def test_histograms_merge_bucket_by_bucket(self):
        child = Metrics()
        for value in (0.002, 0.02, 0.02, 100.0):
            child.histogram("h_seconds", value)
        parent = Metrics()
        parent.histogram("h_seconds", 0.02)
        before = parent.snapshot()["histograms"]["h_seconds"]
        side = child.snapshot()["histograms"]["h_seconds"]
        parent.merge_snapshot(child.snapshot())
        merged = parent.snapshot()["histograms"]["h_seconds"]
        assert merged["buckets"] == before["buckets"]
        assert merged["counts"] == [
            a + b for a, b in zip(before["counts"], side["counts"])
        ]
        assert merged["counts"][LATENCY_BUCKET[0.05]] == 3
        assert merged["counts"][-1] == 1  # 100 s overflows to +Inf
        assert merged["count"] == 5
        assert merged["sum"] == pytest.approx(100.062)

    def test_mismatched_bucket_layout_is_skipped(self):
        parent = Metrics()
        parent.histogram("h", 0.5)
        before = parent.snapshot()["histograms"]["h"]
        child = Metrics()
        child.histogram("h", 50.0, buckets=DEFAULT_SIZE_BUCKETS)
        parent.merge_snapshot(child.snapshot())
        assert parent.snapshot()["histograms"]["h"] == before

    def test_merged_durations_keep_every_observation(self):
        """128 parent timings of 1 ms and 10,000 child timings of
        100 ms: every observation survives the harvest, so the median
        lies in the 100 ms bucket, not at 1 ms."""
        name = "constrained.execute_seconds"
        parent = _timed(name, 0.001, 128)
        child = _timed(name, 0.1, 10_000)
        before = parent.snapshot()["histograms"][name]
        side = child.snapshot()["histograms"][name]
        parent.merge_snapshot(child.snapshot())
        merged = parent.snapshot()["histograms"][name]
        assert merged["counts"] == [
            a + b for a, b in zip(before["counts"], side["counts"])
        ]
        assert merged["counts"][LATENCY_BUCKET[0.001]] == 128
        assert merged["counts"][LATENCY_BUCKET[0.1]] == 10_000
        assert merged["count"] == 10_128
        assert merged["sum"] == pytest.approx(1000.128)
