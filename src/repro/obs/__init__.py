"""``repro.obs`` — zero-dependency observability for the engines.

The throughput engines, MCR oracles and the allocation strategy are
permanently instrumented against this package.  Collection is off by
default: :func:`get_metrics` then returns the shared
:data:`NULL_METRICS` no-op, whose cost is one attribute lookup plus an
empty call (guarded by ``tests/test_performance_guards.py`` to stay
under 5% of engine run time).  Event-level tracing
(:mod:`repro.obs.trace`) and the run-report schema
(:mod:`repro.obs.report`) follow the same null-by-default pattern.

Typical use::

    from repro.obs import collecting, tracing, write_chrome_trace

    with collecting() as metrics, tracing() as trace:
        result = throughput(graph)
    print(format_summary(metrics.snapshot()))
    write_chrome_trace("trace.json", trace)   # open in Perfetto

See ``docs/OBSERVABILITY.md`` for the metric names, the trace-event
catalogue and the snapshot/report schemas.
"""

from repro.obs.log import (
    JsonLogger,
    NULL_LOGGER,
    NullLogger,
    configure_logging,
    disable_logging,
    get_logger,
    logging_to,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    HistogramStat,
    Metrics,
    MetricsLike,
    NULL_METRICS,
    NullMetrics,
    collecting,
    disable,
    enable,
    format_summary,
    get_metrics,
    to_json,
)
from repro.obs.prom import (
    parse_exposition,
    render_prometheus,
    validate_exposition,
)
from repro.obs.report import (
    REPORT_FORMAT,
    REPORT_VERSION,
    ReportError,
    build_report,
    environment_fingerprint,
    read_report,
    write_report,
)
from repro.obs.telemetry import (
    FlightRecorder,
    JobTelemetry,
    TelemetryError,
    capture_clock,
    read_telemetry,
    rebase_events,
    write_telemetry,
)
from repro.obs.trace import (
    NULL_TRACE,
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

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "FlightRecorder",
    "HistogramStat",
    "JobTelemetry",
    "JsonLogger",
    "Metrics",
    "MetricsLike",
    "NULL_LOGGER",
    "NULL_METRICS",
    "NULL_TRACE",
    "NullLogger",
    "NullMetrics",
    "NullTraceBuffer",
    "REPORT_FORMAT",
    "REPORT_VERSION",
    "ReportError",
    "TelemetryError",
    "TraceBuffer",
    "TraceEvent",
    "build_report",
    "capture_clock",
    "chrome_trace",
    "collecting",
    "configure_logging",
    "disable",
    "disable_logging",
    "disable_trace",
    "enable",
    "enable_trace",
    "environment_fingerprint",
    "format_summary",
    "get_logger",
    "get_metrics",
    "get_trace",
    "logging_to",
    "merged_chrome_trace",
    "parse_exposition",
    "read_report",
    "read_telemetry",
    "rebase_events",
    "render_prometheus",
    "to_json",
    "tracing",
    "validate_exposition",
    "write_chrome_trace",
    "write_report",
    "write_telemetry",
]
