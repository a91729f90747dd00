"""Performance regression guards.

Generous wall-clock and state-count bounds on the engines' costs; these
fail loudly if an accidental change makes an engine tick-by-tick or
quadratic (e.g. a broken hash key exploding the state space).  Bounds
are ~10x above currently observed values so normal machine variance
never trips them.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.appmodel.example import (
    paper_example_application,
    paper_example_architecture,
)
from repro.core.strategy import ResourceAllocator
from repro.generate.multimedia import h263_decoder
from repro.throughput.state_space import throughput


def test_h263_direct_throughput_stays_linear():
    application = h263_decoder()  # full 2376 macroblocks
    started = time.perf_counter()
    result = throughput(application.graph)
    elapsed = time.perf_counter() - started
    # auto-concurrent H.263 collapses to a handful of states
    assert result.states_explored < 1_000
    assert elapsed < 5.0


def test_constrained_engine_never_ticks():
    """Wheel size must not affect the state count (event-driven gating):
    scale the example's wheel 100x and expect the same exploration."""
    from repro.appmodel.binding import SchedulingFunction
    from repro.appmodel.binding_aware import build_binding_aware_graph
    from repro.appmodel.example import paper_example_binding
    from repro.throughput.constrained import constrained_throughput

    counts = []
    for scale in (1, 100):
        application = paper_example_application()
        architecture = paper_example_architecture()
        for tile in architecture.tiles:
            tile.wheel *= scale
        binding = paper_example_binding()
        slices = {"t1": 5 * scale, "t2": 5 * scale}
        bag = build_binding_aware_graph(
            application, architecture, binding, slices=slices
        )
        scheduling = SchedulingFunction()
        from repro.core.scheduling import build_static_order_schedules

        for tile_name, schedule in build_static_order_schedules(bag).items():
            scheduling.set_schedule(tile_name, schedule)
            scheduling.set_slice(tile_name, slices[tile_name])
        result = constrained_throughput(
            bag.graph, bag.tile_constraints(scheduling)
        )
        counts.append(result.states_explored)
    small, large = counts
    assert large <= 3 * small  # event-driven: no tick-per-time-unit blowup


def test_example_allocation_stays_fast():
    started = time.perf_counter()
    allocation = ResourceAllocator().allocate(
        paper_example_application(), paper_example_architecture()
    )
    elapsed = time.perf_counter() - started
    assert allocation.satisfied
    assert elapsed < 5.0


_LEAN_IMPORT_PROBE = """
import json, sys
import repro, repro.cli, repro.service.sandbox_child
loaded = sorted(name for name in ("numpy", "networkx") if name in sys.modules)
from repro.sdf.graph import SDFGraph
from repro.throughput.mcr import max_cycle_ratio_numeric
loop = SDFGraph("loop")
loop.add_actor("a", 3)
loop.add_channel("s", "a", "a", tokens=2)
ratio = max_cycle_ratio_numeric(loop)
print(json.dumps([loaded, str(ratio), "numpy" in sys.modules]))
"""


def test_import_loads_neither_numpy_nor_networkx():
    """Every run and every sandboxed child imports the package; numpy
    loads only when the Lawler baseline runs, and networkx never."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    completed = subprocess.run(
        [sys.executable, "-c", _LEAN_IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded, ratio, numpy_after = json.loads(completed.stdout)
    assert loaded == []
    assert ratio == "3/2"
    assert numpy_after


class _CountingMetrics:
    """Counts every instrumentation API call a workload makes.

    Mimics the Metrics duck type with ``enabled = True`` so that even
    the guarded (enabled-only) call sites are exercised — an upper
    bound on the calls the disabled null registry would receive.
    """

    enabled = True

    def __init__(self):
        self.calls = 0

    def counter(self, name, value=1):
        self.calls += 1

    def gauge(self, name, value):
        self.calls += 1

    def histogram(self, name, value, buckets=None):
        self.calls += 1

    def timer(self, name):
        self.calls += 1
        return self._noop()

    class _noop:
        def set(self, key, value):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            pass


def test_disabled_instrumentation_overhead_under_five_percent():
    """The permanently-wired obs layer must cost <5% when disabled.

    Strategy: (1) time the paper-example allocation with instrumentation
    off, (2) count how many obs calls that workload makes, (3) measure
    the unit cost of a null-registry call, and (4) require the product
    to stay below 5% of the measured run time.
    """
    from repro.obs import NULL_METRICS, get_metrics

    assert get_metrics() is NULL_METRICS  # collection must be off

    def workload():
        return ResourceAllocator().allocate(
            paper_example_application(), paper_example_architecture()
        )

    workload()  # warm imports and caches
    baseline = min(
        _timed(workload) for _ in range(3)
    )

    import repro.obs.metrics as obs_metrics

    counting = _CountingMetrics()
    previous = obs_metrics._active
    obs_metrics._active = counting
    try:
        workload()
    finally:
        obs_metrics._active = previous
    instrumentation_calls = counting.calls
    assert instrumentation_calls > 0  # the workload is instrumented

    null = NULL_METRICS
    rounds = 50_000
    started = time.perf_counter()
    for _ in range(rounds):
        null.counter("guard.counter")
        with null.timer("guard.timer"):
            pass
    per_call = (time.perf_counter() - started) / (2 * rounds)

    overhead = instrumentation_calls * per_call
    assert overhead < 0.05 * baseline, (
        f"{instrumentation_calls} null instrumentation calls at "
        f"{per_call * 1e9:.0f} ns each = {overhead * 1e3:.3f} ms, over 5% "
        f"of the {baseline * 1e3:.1f} ms baseline"
    )


class _CountingTrace:
    """Counts every trace API call a workload makes.

    ``enabled = True`` so even the guarded (enabled-only) trace call
    sites are exercised — an upper bound on the calls the disabled
    null buffer would receive.
    """

    enabled = True

    def __init__(self):
        self.calls = 0

    def now(self):
        self.calls += 1
        return 0.0

    def instant(self, category, name, **args):
        self.calls += 1

    def complete(self, category, name, started, ended, **args):
        self.calls += 1

    def span(self, category, name, **args):
        self.calls += 1
        return _CountingMetrics._noop()


def test_disabled_trace_overhead_under_five_percent():
    """The permanently-wired trace call sites must cost <5% when off.

    Same strategy as the metrics guard: time the workload untraced,
    count the trace calls it would make with tracing on, measure the
    null buffer's unit cost, and bound the product.
    """
    from repro.obs.trace import NULL_TRACE, get_trace

    assert get_trace() is NULL_TRACE  # tracing must be off

    def workload():
        return ResourceAllocator().allocate(
            paper_example_application(), paper_example_architecture()
        )

    workload()  # warm imports and caches
    baseline = min(_timed(workload) for _ in range(3))

    import repro.obs.trace as obs_trace

    counting = _CountingTrace()
    previous = obs_trace._active
    obs_trace._active = counting
    try:
        workload()
    finally:
        obs_trace._active = previous
    trace_calls = counting.calls
    assert trace_calls > 0  # the workload hits trace call sites

    null = NULL_TRACE
    rounds = 50_000
    started = time.perf_counter()
    for _ in range(rounds):
        null.now()
        null.instant("guard", "instant")
        null.complete("guard", "complete", 0.0, 0.0)
    per_call = (time.perf_counter() - started) / (3 * rounds)

    overhead = trace_calls * per_call
    assert overhead < 0.05 * baseline, (
        f"{trace_calls} null trace calls at {per_call * 1e9:.0f} ns "
        f"each = {overhead * 1e3:.3f} ms, over 5% of the "
        f"{baseline * 1e3:.1f} ms baseline"
    )


class _CountingLogger:
    """Counts every structured-log call a workload makes.

    ``enabled = True`` so even the guarded (enabled-only) call sites
    and the ``bind()`` fan-out are exercised — an upper bound on the
    calls the disabled null logger would receive.
    """

    enabled = True

    def __init__(self):
        self.calls = 0

    def bind(self, **fields):
        self.calls += 1
        return self

    def debug(self, event, **fields):
        self.calls += 1

    info = warning = error = debug


@pytest.mark.service
@pytest.mark.telemetry
def test_disabled_telemetry_overhead_under_five_percent(tmp_path):
    """The service's telemetry plane must cost <5% when switched off.

    The daemon's permanently-wired call sites — structured logging
    through the service/journal/watchdog paths plus the queue-wait and
    attempt-latency histograms — follow the same null-by-default
    contract as the engine instrumentation.  Strategy as above: time a
    full submit-to-certified service round trip with everything off,
    count the logging + metrics calls that round trip makes when the
    registries claim to be enabled, measure the null unit cost, and
    bound the product.
    """
    import itertools

    import repro.obs.log as obs_log
    import repro.obs.metrics as obs_metrics
    from repro.obs import NULL_METRICS
    from repro.obs.log import NULL_LOGGER, get_logger
    from repro.service import AllocationService

    from tests.service_helpers import fast_request

    assert get_logger() is NULL_LOGGER  # logging must be off

    application, architecture = fast_request()
    spools = itertools.count()

    def workload():
        spool = str(tmp_path / f"spool-{next(spools)}")
        service = AllocationService(
            spool, workers=1, isolation="thread"
        ).start()
        try:
            record = service.wait(
                service.submit(application, architecture), timeout=60
            )
            assert record["state"] == "certified"
        finally:
            service.drain(cancel_running=True)

    workload()  # warm imports and caches
    baseline = min(_timed(workload) for _ in range(3))

    counting_log = _CountingLogger()
    counting_metrics = _CountingMetrics()
    previous_log = obs_log._active
    previous_metrics = obs_metrics._active
    obs_log._active = counting_log
    obs_metrics._active = counting_metrics
    try:
        workload()
    finally:
        obs_log._active = previous_log
        obs_metrics._active = previous_metrics
    telemetry_calls = counting_log.calls + counting_metrics.calls
    assert counting_log.calls > 0  # the service narrates its lifecycle
    assert counting_metrics.calls > 0

    rounds = 50_000
    started = time.perf_counter()
    for _ in range(rounds):
        NULL_LOGGER.debug("guard.event", job="job", attempt=1)
        NULL_LOGGER.bind(job="job")
        NULL_METRICS.counter("guard.counter")
        NULL_METRICS.histogram("guard.histogram", 0.1)
    per_call = (time.perf_counter() - started) / (4 * rounds)

    overhead = telemetry_calls * per_call
    assert overhead < 0.05 * baseline, (
        f"{telemetry_calls} null telemetry calls at "
        f"{per_call * 1e9:.0f} ns each = {overhead * 1e3:.3f} ms, over "
        f"5% of the {baseline * 1e3:.1f} ms baseline"
    )


def _timed(workload):
    started = time.perf_counter()
    workload()
    return time.perf_counter() - started
