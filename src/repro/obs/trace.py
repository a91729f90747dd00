"""Bounded event-level tracing with Chrome/Perfetto export.

While :mod:`repro.obs.metrics` answers *how much* (aggregated counters
and histograms), this module answers *where inside the run*: a
:class:`TraceBuffer` records structured, timestamped events — engine
phase transitions, TDMA-wheel rotations, checkpoint writes/reads,
budget exhaustion, degradation-rung transitions, certificate verdicts —
into a bounded ring buffer, and :func:`chrome_trace` exports them in
the Chrome Trace Event Format that ``chrome://tracing`` and
`Perfetto <https://ui.perfetto.dev>`_ open directly.

The same null-by-default pattern as the metrics registry applies:
:func:`get_trace` returns the shared :data:`NULL_TRACE` no-op unless
tracing was switched on, so the permanently wired call sites cost one
attribute lookup plus an empty call when tracing is off (guarded by
``tests/test_performance_guards.py``).  A timed, attributed section is
one :meth:`TraceBuffer.span` block, which records its complete event
on every exit, exceptions included; attribute values that cost
something are computed only behind the ``enabled`` attribute::

    tr = get_trace()
    with tr.span("engine", "state_space.throughput", graph=name) as span:
        ...                               # the actual work
        if tr.enabled:
            span.set("iteration_rate", str(rate))

Event categories used across the repository (``docs/OBSERVABILITY.md``
has the full catalogue): ``engine``, ``tdma``, ``checkpoint``,
``resilience``, ``strategy``, ``flow``, ``exact``, ``verify``,
``lint``, ``service``, ``sandbox``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.durable import write_atomic
from repro.obs.lockcheck import make_lock

__all__ = [
    "DEFAULT_CAPACITY",
    "NULL_TRACE",
    "NullTraceBuffer",
    "PARENT_PID",
    "TraceBuffer",
    "TraceEvent",
    "chrome_trace",
    "disable_trace",
    "enable_trace",
    "get_trace",
    "merged_chrome_trace",
    "tracing",
    "write_chrome_trace",
]

#: ring-buffer size when none is given: generous for one allocation run,
#: bounded so pathological explorations cannot exhaust memory
DEFAULT_CAPACITY = 100_000

#: pid of the parent/service lane in Chrome traces (the only lane of a
#: single-process trace)
PARENT_PID = 1


class TraceEvent:
    """One recorded event.

    ``duration`` is ``None`` for instant events and the elapsed seconds
    for complete (begin/end) events; ``timestamp`` is in the buffer
    clock's domain (:func:`time.perf_counter` seconds by default).
    """

    __slots__ = ("category", "name", "timestamp", "duration", "args")

    def __init__(
        self,
        category: str,
        name: str,
        timestamp: float,
        duration: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.category = category
        self.name = name
        self.timestamp = timestamp
        self.duration = duration
        self.args = args or {}

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "category": self.category,
            "name": self.name,
            "timestamp": self.timestamp,
        }
        if self.duration is not None:
            payload["duration"] = self.duration
        if self.args:
            payload["args"] = dict(self.args)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent({self.category!r}, {self.name!r}, "
            f"ts={self.timestamp:.6f}, dur={self.duration})"
        )


class _TraceSpan:
    """Context manager recording one complete event on exit."""

    __slots__ = ("_buffer", "_category", "_name", "_args", "_start")

    def __init__(
        self, buffer: "TraceBuffer", category: str, name: str, args: Dict
    ) -> None:
        self._buffer = buffer
        self._category = category
        self._name = name
        self._args = args
        self._start = 0.0

    def set(self, key: str, value: Any) -> None:
        self._args[key] = value

    def __enter__(self) -> "_TraceSpan":
        self._start = self._buffer.now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._buffer.complete(
            self._category,
            self._name,
            self._start,
            self._buffer.now(),
            **self._args,
        )


class _NullTraceSpan:
    """Shared stateless no-op span of the null buffer."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullTraceSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_TRACE_SPAN = _NullTraceSpan()


class NullTraceBuffer:
    """Disabled tracing: every operation is a no-op (and lock-free)."""

    enabled = False

    def now(self) -> float:
        return 0.0

    def instant(self, category: str, name: str, **args: Any) -> None:
        pass

    def complete(
        self, category: str, name: str, started: float, ended: float,
        **args: Any,
    ) -> None:
        pass

    def span(self, category: str, name: str, **args: Any) -> _NullTraceSpan:
        return _NULL_TRACE_SPAN

    def events(self) -> List[TraceEvent]:
        return []

    @property
    def dropped(self) -> int:
        return 0

    def summary(self) -> Dict[str, Any]:
        return {"events": 0, "dropped": 0, "categories": {}}

    def clear(self) -> None:
        pass


class TraceBuffer:
    """A bounded, thread-safe ring buffer of :class:`TraceEvent` records.

    ``capacity`` bounds memory: once full, the *oldest* events are
    evicted and counted in :attr:`dropped` (the tail of a run is almost
    always the interesting part).  ``clock`` is injectable for
    deterministic tests and defaults to :func:`time.perf_counter`.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock=time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError("trace buffer capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._lock = make_lock("repro.obs.trace.TraceBuffer._lock")
        self._events: deque = deque(maxlen=capacity)  # guarded-by: _lock
        self._dropped = 0  # guarded-by: _lock

    # -- recording -----------------------------------------------------
    def now(self) -> float:
        """A reading of the buffer's clock (for ``complete`` bounds)."""
        return self._clock()

    def _append(self, event: TraceEvent) -> None:
        with self._lock:
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(event)

    def instant(self, category: str, name: str, **args: Any) -> None:
        """Record a point-in-time event at the current clock reading."""
        self._append(TraceEvent(category, name, self._clock(), None, args))

    def complete(
        self, category: str, name: str, started: float, ended: float,
        **args: Any,
    ) -> None:
        """Record a duration event spanning ``[started, ended]``."""
        self._append(
            TraceEvent(category, name, started, max(0.0, ended - started), args)
        )

    def span(self, category: str, name: str, **args: Any) -> _TraceSpan:
        """Context manager recording its body as a complete event."""
        return _TraceSpan(self, category, name, args)

    # -- export --------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted because the ring was full."""
        with self._lock:
            return self._dropped

    def events(self) -> List[TraceEvent]:
        """Snapshot of the retained events, oldest first."""
        with self._lock:
            return list(self._events)

    def summary(self) -> Dict[str, Any]:
        """JSON-ready digest: totals and per-category counts."""
        categories: Dict[str, int] = {}
        with self._lock:
            for event in self._events:
                categories[event.category] = (
                    categories.get(event.category, 0) + 1
                )
            return {
                "events": len(self._events),
                "dropped": self._dropped,
                "categories": categories,
            }

    def clear(self) -> None:
        """Drop every retained event and reset the eviction counter."""
        with self._lock:
            self._events.clear()
            self._dropped = 0


TraceLike = Union[TraceBuffer, NullTraceBuffer]

#: the permanent no-op buffer handed out while tracing is off
NULL_TRACE = NullTraceBuffer()

_active: TraceLike = NULL_TRACE


def get_trace() -> TraceLike:
    """The active trace buffer (the shared :data:`NULL_TRACE` when off)."""
    return _active


def enable_trace(buffer: Optional[TraceBuffer] = None) -> TraceBuffer:
    """Install ``buffer`` (or a fresh one) as the active trace buffer."""
    global _active
    active = buffer if buffer is not None else TraceBuffer()
    _active = active
    return active


def disable_trace() -> TraceLike:
    """Deactivate tracing; returns the buffer that was active."""
    global _active
    previous = _active
    _active = NULL_TRACE
    return previous


@contextmanager
def tracing(buffer: Optional[TraceBuffer] = None) -> Iterator[TraceBuffer]:
    """Enable tracing for the duration of a ``with`` block."""
    active = enable_trace(buffer)
    try:
        yield active
    finally:
        if _active is active:
            disable_trace()


# -- Chrome Trace Event Format export ---------------------------------


def merged_chrome_trace(lanes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Event streams as one Chrome Trace Event Format document.

    Each lane is ``{"name": str, "pid": int, "events": [TraceEvent]}``
    and becomes one pid lane.  The returned dict serialises to JSON
    that ``chrome://tracing`` and Perfetto load directly: complete
    events become phase ``"X"`` slices with microsecond durations,
    instants phase ``"i"`` marks.  All timestamps must already share one
    clock domain (rebase child lanes first); the earliest event across
    *all* lanes is rebased to t=0 so Perfetto opens at the interesting
    part.  Categories map to Chrome's ``cat`` field, so Perfetto can
    filter by ``engine``, ``tdma``, ``checkpoint``, ``resilience``, ....
    """
    base = min(
        (
            event.timestamp
            for lane in lanes
            for event in lane.get("events", [])
        ),
        default=0.0,
    )
    trace_events: List[Dict[str, Any]] = []
    for lane in lanes:
        pid = int(lane.get("pid", PARENT_PID))
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": str(lane.get("name", f"pid {pid}"))},
            }
        )
        for event in lane.get("events", []):
            record: Dict[str, Any] = {
                "name": event.name,
                "cat": event.category,
                "ts": round((event.timestamp - base) * 1e6, 3),
                "pid": pid,
                "tid": 1,
            }
            if event.duration is None:
                record["ph"] = "i"
                record["s"] = "t"
            else:
                record["ph"] = "X"
                record["dur"] = round(event.duration * 1e6, 3)
            if event.args:
                record["args"] = dict(event.args)
            trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def chrome_trace(
    events: Union[TraceBuffer, List[TraceEvent]],
    process_name: str = "repro-alloc",
) -> Dict[str, Any]:
    """One process's events as a one-lane :func:`merged_chrome_trace`."""
    if isinstance(events, (TraceBuffer, NullTraceBuffer)):
        events = events.events()
    return merged_chrome_trace(
        [{"name": process_name, "pid": PARENT_PID, "events": events}]
    )


def write_chrome_trace(
    path: str,
    events: Union[TraceBuffer, List[TraceEvent]],
    process_name: str = "repro-alloc",
) -> str:
    """Atomically write :func:`chrome_trace` JSON to ``path``.

    Written by :func:`repro.durable.write_atomic`, like checkpoints, so
    a crash mid-write never leaves a truncated trace; non-JSON argument
    values are stringified.  Returns ``path``.
    """
    payload = json.dumps(
        chrome_trace(events, process_name=process_name), default=str
    )
    return write_atomic(path, payload + "\n")
