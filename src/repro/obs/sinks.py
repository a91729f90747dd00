"""Pluggable destinations for metrics snapshots.

A *sink* consumes the JSON-ready snapshot produced by
``Metrics.snapshot()``.  Three implementations cover the needs of the
repository:

* :class:`NullSink` — discard (the module-level default, so enabled
  registries without an explicit sink never fail on flush);
* :class:`JsonSink` — serialise to a file path or a text stream;
* :class:`SummarySink` — render the human-readable summary of
  :func:`format_summary` to a text stream.

Values that are not natively JSON-serialisable (``Fraction``,
``inf``, …) are stringified by :func:`to_json`, so instrumented code
may record exact rationals without caring about the export format.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Optional, Union

from repro.durable import write_atomic

__all__ = [
    "JsonSink",
    "NULL_SINK",
    "NullSink",
    "Sink",
    "SummarySink",
    "format_summary",
    "to_json",
]


class Sink:
    """Base sink: receives snapshots via :meth:`emit`."""

    def emit(self, snapshot: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError


class NullSink(Sink):
    """Discards every snapshot."""

    def emit(self, snapshot: Dict[str, Any]) -> None:
        pass


#: shared default sink of every registry without an explicit one
NULL_SINK = NullSink()


def to_json(snapshot: Dict[str, Any], indent: Optional[int] = 2) -> str:
    """Serialise a snapshot; non-JSON values become their ``str()``."""
    return json.dumps(snapshot, indent=indent, default=str)


class JsonSink(Sink):
    """Writes snapshots as JSON to a file path or an open text stream."""

    def __init__(
        self, target: Union[str, IO[str]], indent: Optional[int] = 2
    ) -> None:
        self.target = target
        self.indent = indent

    def emit(self, snapshot: Dict[str, Any]) -> None:
        payload = to_json(snapshot, indent=self.indent)
        if isinstance(self.target, str):
            write_atomic(self.target, payload + "\n")
        else:
            self.target.write(payload + "\n")


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
    timers = snapshot.get("timers", {})
    if timers:
        lines.append("timers:")
        for name in sorted(timers):
            stat = timers[name]
            lines.append(
                f"  {name}: {stat['count']}x "
                f"total {stat['total_seconds'] * 1e3:.2f} ms "
                f"(min {stat['min_seconds'] * 1e3:.3f}, "
                f"max {stat['max_seconds'] * 1e3:.3f})"
            )
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


class SummarySink(Sink):
    """Writes the human-readable summary to an open text stream."""

    def __init__(self, stream: IO[str]) -> None:
        self.stream = stream

    def emit(self, snapshot: Dict[str, Any]) -> None:
        self.stream.write(format_summary(snapshot) + "\n")
