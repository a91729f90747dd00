"""Metrics registry: counters, gauges and histograms.

The registry is deliberately tiny and dependency-free so it can stay
permanently wired into the hot paths of the throughput engines.  It
holds aggregates only, each bounded in size however long the process
runs; timed, attributed sections of one run are trace events
(:mod:`repro.obs.trace`).  Two implementations share one duck-typed
API:

* :class:`Metrics` — the real registry.  Counters accumulate, gauges
  keep the last value and histograms bucket observations, durations
  included (their names end in ``_seconds``).
* :class:`NullMetrics` — the module-level no-op used whenever
  instrumentation is disabled.  Every method returns immediately (the
  timer object is a shared stateless singleton), so instrumented code
  pays only an attribute lookup and an empty call.

Instrumented code fetches the active registry with :func:`get_metrics`
and, on hot paths, guards non-trivial bookkeeping behind the
``enabled`` attribute::

    obs = get_metrics()
    started = time.perf_counter() if obs.enabled else 0.0
    ...                                   # the actual work
    if obs.enabled:
        obs.counter("engine.states", states)
        obs.histogram("engine.execute_seconds",
                      time.perf_counter() - started)

:func:`enable` / :func:`disable` swap the active registry;
:func:`collecting` does so for the duration of a ``with`` block.
:func:`to_json` and :func:`format_summary` render a snapshot.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence, Union

from repro.obs.lockcheck import make_lock

Number = Union[int, float]

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "HistogramStat",
    "Metrics",
    "NullMetrics",
    "collecting",
    "disable",
    "enable",
    "format_summary",
    "get_metrics",
    "to_json",
]

#: histogram bucket upper bounds for latency-style observations (s)
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0,
)

#: histogram bucket upper bounds for count-style observations
#: (states explored, queue depths, ...): decades from 10 to 10^7
DEFAULT_SIZE_BUCKETS = (
    10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0,
)


class HistogramStat:
    """Cumulative-bucket histogram of one named observation stream.

    ``buckets`` are the finite upper bounds (sorted ascending); an
    implicit ``+Inf`` bucket catches everything else.  ``counts`` are
    per-bucket (non-cumulative) with the overflow count last — the
    Prometheus exporter (:mod:`repro.obs.prom`) turns them into the
    cumulative ``le``-labelled series the text format requires.
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def merge(self, data: Dict[str, Any]) -> bool:
        """Fold a serialised histogram in; False on a bucket mismatch."""
        if tuple(float(b) for b in data.get("buckets", ())) != self.buckets:
            return False
        counts = data.get("counts", ())
        if len(counts) != len(self.counts):
            return False
        for index, value in enumerate(counts):
            self.counts[index] += int(value)
        self.count += int(data.get("count", 0))
        self.sum += float(data.get("sum", 0.0))
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class _Timer:
    """Context manager feeding one duration into a named histogram."""

    __slots__ = ("_metrics", "_name", "_start")

    def __init__(self, metrics: "Metrics", name: str) -> None:
        self._metrics = metrics
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = self._metrics._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._metrics.histogram(
            self._name, self._metrics._clock() - self._start
        )


class _NullTimer:
    """Shared stateless no-op standing in for timers."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_TIMER = _NullTimer()


class NullMetrics:
    """Disabled instrumentation: every operation is a no-op."""

    enabled = False

    def counter(self, name: str, value: Number = 1) -> None:
        pass

    def gauge(self, name: str, value: Any) -> None:
        pass

    def histogram(
        self,
        name: str,
        value: float,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        pass

    def timer(self, name: str) -> _NullTimer:
        return _NULL_TIMER

    def merge_snapshot(
        self, snapshot: Dict[str, Any], prefix: str = ""
    ) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        pass


class Metrics:
    """The collecting registry.

    ``clock`` times :meth:`timer` blocks and is injectable for
    deterministic tests (defaults to :func:`time.perf_counter`).

    All recording paths take a single internal lock, so several worker
    threads may share one registry without corrupting snapshots.  The
    null registry stays lock-free.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = make_lock("repro.obs.metrics.Metrics._lock")
        self._counters: Dict[str, Number] = {}  # guarded-by: _lock
        self._gauges: Dict[str, Any] = {}  # guarded-by: _lock
        self._histograms: Dict[str, HistogramStat] = {}  # guarded-by: _lock

    # -- recording -----------------------------------------------------
    def counter(self, name: str, value: Number = 1) -> None:
        """Add ``value`` (default 1) to the named counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: Any) -> None:
        """Record the last-seen value of the named gauge."""
        with self._lock:
            self._gauges[name] = value

    def histogram(
        self,
        name: str,
        value: float,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        """Feed one value into the named histogram.

        The bucket bounds are fixed by the first call for a name
        (``buckets`` defaults to :data:`DEFAULT_LATENCY_BUCKETS`);
        later calls ignore the argument.
        """
        with self._lock:
            stat = self._histograms.get(name)
            if stat is None:
                stat = self._histograms[name] = HistogramStat(
                    buckets if buckets is not None
                    else DEFAULT_LATENCY_BUCKETS
                )
            stat.add(value)

    def timer(self, name: str) -> _Timer:
        """Context manager recording its body's duration as a histogram."""
        return _Timer(self, name)

    def merge_snapshot(
        self, snapshot: Dict[str, Any], prefix: str = ""
    ) -> None:
        """Fold another registry's snapshot into this one.

        Counters are summed, histograms added bucket by bucket
        (mismatched bucket layouts are skipped), gauges last-write-wins.
        ``prefix`` is prepended to every merged name — the sandbox
        harvest uses ``"child."`` so a child's ``state_space.states``
        lands as ``child.state_space.states`` without colliding with
        the daemon's own series.
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                key = prefix + name
                self._counters[key] = self._counters.get(key, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[prefix + name] = value
            for name, data in snapshot.get("histograms", {}).items():
                key = prefix + name
                hist = self._histograms.get(key)
                if hist is None:
                    bounds = data.get("buckets") or DEFAULT_LATENCY_BUCKETS
                    hist = self._histograms[key] = HistogramStat(bounds)
                hist.merge(data)

    # -- export --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: stat.to_dict()
                    for name, stat in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Drop everything recorded so far."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


MetricsLike = Union[Metrics, NullMetrics]

#: the permanent no-op registry handed out while instrumentation is off
NULL_METRICS = NullMetrics()

_active: MetricsLike = NULL_METRICS


def get_metrics() -> MetricsLike:
    """The active registry (the shared :data:`NULL_METRICS` when off)."""
    return _active


def enable(metrics: Optional[Metrics] = None) -> Metrics:
    """Install ``metrics`` (or a fresh registry) as the active one."""
    global _active
    active = metrics if metrics is not None else Metrics()
    _active = active
    return active


def disable() -> MetricsLike:
    """Deactivate collection; returns the registry that was active."""
    global _active
    previous = _active
    _active = NULL_METRICS
    return previous


@contextmanager
def collecting(metrics: Optional[Metrics] = None) -> Iterator[Metrics]:
    """Enable collection for the duration of a ``with`` block."""
    active = enable(metrics)
    try:
        yield active
    finally:
        if _active is active:
            disable()


def to_json(snapshot: Dict[str, Any], indent: Optional[int] = 2) -> str:
    """Serialise a snapshot; non-JSON values become their ``str()``.

    Instrumented code may record exact rationals (``Fraction`` gauges)
    or ``inf`` without caring about the export format.
    """
    return json.dumps(snapshot, indent=indent, default=str)


def format_summary(snapshot: Dict[str, Any]) -> str:
    """Human-readable rendering of a snapshot (stable ordering)."""
    lines = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name}: {counters[name]}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name}: {gauges[name]}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            stat = histograms[name]
            count = stat.get("count", 0)
            total = stat.get("sum", 0.0)
            mean = total / count if count else 0.0
            lines.append(f"  {name}: {count}x mean {mean:.4g} sum {total:.4g}")
    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)
