"""Cross-process telemetry: sidecar spool files, clock rebasing, merge.

A sandboxed attempt runs in a child process whose metrics registry and
trace ring would otherwise die with it.  This module is the bridge:

* the child periodically calls :func:`write_telemetry` to spool its
  ``Metrics`` snapshot plus ``TraceBuffer`` contents to a per-
  (job, attempt) sidecar file next to the heartbeat file
  (:func:`repro.durable.write_atomic`, so the parent never reads a
  torn file, even while the heartbeat thread and the final spool
  write it at once);
* the parent reads it back with :func:`read_telemetry` after the child
  exits, folds the counters, gauges and histograms into the daemon
  registry under the ``child.`` namespace (``Metrics.merge_snapshot``),
  and rebases the child's trace events into its own clock domain with
  :func:`rebase_events`;
* :class:`JobTelemetry` retains the rebased per-attempt segments so the
  service can answer ``/jobs/<id>/timeline`` and export one merged
  Chrome trace (:func:`repro.obs.trace.merged_chrome_trace`) where the
  parent and each sandbox child occupy distinct pid lanes.

Clock rebasing: ``perf_counter`` domains are process-private, so the
sidecar carries a ``(wall, perf)`` reference pair captured together
(:func:`capture_clock`).  A child event at perf time ``t`` happened at
wall time ``child.wall + (t - child.perf)``; mapping through the
parent's own pair lands it in the parent's perf domain.  Wall-clock
skew between the two captures is bounded by NTP slew over the attempt's
lifetime — microseconds, invisible at trace resolution.

:class:`FlightRecorder` is the post-mortem hook: when a job is
quarantined or the crash-loop breaker trips, the service dumps the
current trace ring + metrics snapshot + the job's harvested segments to
``<spool>/flightrec/`` for offline inspection.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

from repro.durable import read_json, write_atomic
from repro.obs.lockcheck import make_lock
from repro.obs.metrics import MetricsLike
from repro.obs.trace import (
    PARENT_PID,
    NullTraceBuffer,
    TraceBuffer,
    TraceEvent,
    merged_chrome_trace,
)

__all__ = [
    "FlightRecorder",
    "JobTelemetry",
    "TELEMETRY_FORMAT",
    "TELEMETRY_VERSION",
    "TelemetryError",
    "capture_clock",
    "events_from_dicts",
    "read_telemetry",
    "rebase_events",
    "write_telemetry",
]

TELEMETRY_FORMAT = "repro-telemetry"
TELEMETRY_VERSION = 1

#: retained job histories before FIFO eviction (bounds daemon memory)
MAX_TRACKED_JOBS = 256

#: flight-recorder dump cap — a crash-looping job must not fill the disk
MAX_FLIGHT_DUMPS = 64


class TelemetryError(Exception):
    """A sidecar file is missing, torn, or from an unknown format."""


def capture_clock() -> Dict[str, float]:
    """A ``(pid, wall, perf)`` reference pair for clock rebasing.

    ``wall`` and ``perf`` are read back to back so the pair ties this
    process's private ``perf_counter`` domain to the shared wall clock.
    """
    return {
        "pid": float(os.getpid()),
        "wall": time.time(),
        "perf": time.perf_counter(),
    }


def write_telemetry(
    path: str,
    metrics: MetricsLike,
    trace: "TraceBuffer | NullTraceBuffer",
    clock: Optional[Dict[str, float]] = None,
) -> str:
    """Atomically spool a telemetry sidecar file; returns ``path``.

    Safe to call repeatedly (the heartbeat loop does): each call
    replaces the previous snapshot wholesale, so the parent always
    reads a consistent, most-recent view even if the child is later
    SIGKILLed mid-attempt.
    """
    payload = {
        "format": TELEMETRY_FORMAT,
        "version": TELEMETRY_VERSION,
        "clock": clock if clock is not None else capture_clock(),
        "metrics": metrics.snapshot(),
        "trace": {
            "dropped": trace.dropped,
            "events": [event.to_dict() for event in trace.events()],
        },
    }
    return write_atomic(path, json.dumps(payload, default=str))


def read_telemetry(path: str) -> Dict[str, Any]:
    """Read and validate a sidecar written by :func:`write_telemetry`."""
    payload = read_json(path, TelemetryError, "telemetry sidecar")
    if not isinstance(payload, dict):
        raise TelemetryError(f"telemetry sidecar {path} is not an object")
    if payload.get("format") != TELEMETRY_FORMAT:
        raise TelemetryError(
            f"telemetry sidecar {path} has format "
            f"{payload.get('format')!r}, expected {TELEMETRY_FORMAT!r}"
        )
    if payload.get("version") != TELEMETRY_VERSION:
        raise TelemetryError(
            f"telemetry sidecar {path} has version "
            f"{payload.get('version')!r}, expected {TELEMETRY_VERSION}"
        )
    for key in ("clock", "metrics", "trace"):
        if key not in payload:
            raise TelemetryError(f"telemetry sidecar {path} missing {key!r}")
    return payload


def events_from_dicts(records: List[Dict[str, Any]]) -> List[TraceEvent]:
    """Rehydrate serialised trace events (inverse of ``to_dict``)."""
    events: List[TraceEvent] = []
    for record in records:
        if not isinstance(record, dict):
            continue
        try:
            events.append(
                TraceEvent(
                    str(record["category"]),
                    str(record["name"]),
                    float(record["timestamp"]),
                    (
                        float(record["duration"])
                        if record.get("duration") is not None
                        else None
                    ),
                    dict(record.get("args") or {}),
                )
            )
        except (KeyError, TypeError, ValueError):
            continue
    return events


def rebase_events(
    events: List[TraceEvent],
    child_clock: Dict[str, float],
    parent_clock: Optional[Dict[str, float]] = None,
) -> List[TraceEvent]:
    """Map child perf-domain timestamps into the parent's perf domain.

    ``ts_parent = parent.perf + (child.wall - parent.wall)
    + (ts_child - child.perf)`` — route through the shared wall clock,
    then back into the parent's private monotonic domain so the rebased
    events sort correctly against the parent's own trace ring.
    """
    if parent_clock is None:
        parent_clock = capture_clock()
    offset = (
        parent_clock["perf"]
        + (child_clock["wall"] - parent_clock["wall"])
        - child_clock["perf"]
    )
    return [
        TraceEvent(
            event.category,
            event.name,
            event.timestamp + offset,
            event.duration,
            dict(event.args),
        )
        for event in events
    ]


class JobTelemetry:
    """Per-job store of harvested child telemetry segments.

    Thread-safe; bounded to :data:`MAX_TRACKED_JOBS` jobs with oldest-
    first eviction so a long-running daemon's memory stays flat.  Events
    handed to :meth:`record` must already be rebased into the parent's
    clock domain.
    """

    def __init__(self, max_jobs: int = MAX_TRACKED_JOBS) -> None:
        self._lock = make_lock("repro.obs.telemetry.JobTelemetry._lock")
        self._max_jobs = max(1, max_jobs)
        # insertion-ordered: job id -> list of segment dicts
        self._jobs: Dict[str, List[Dict[str, Any]]] = {}  # guarded-by: _lock

    def record(
        self,
        job: str,
        attempt: int,
        pid: int,
        events: List[TraceEvent],
        metrics: Dict[str, Any],
    ) -> None:
        segment = {
            "job": job,
            "attempt": attempt,
            "pid": pid,
            "events": events,
            "metrics": metrics,
        }
        with self._lock:
            if job not in self._jobs and len(self._jobs) >= self._max_jobs:
                oldest = next(iter(self._jobs))
                del self._jobs[oldest]
            self._jobs.setdefault(job, []).append(segment)

    def segments(self, job: str) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._jobs.get(job, []))

    def jobs(self) -> List[str]:
        with self._lock:
            return list(self._jobs)

    def timeline(
        self, job: str, parent_events: List[TraceEvent]
    ) -> List[Dict[str, Any]]:
        """The job's merged event timeline, oldest first.

        Parent events are filtered to those whose args carry this job's
        id; child events come from every harvested attempt segment.
        """
        entries: List[Dict[str, Any]] = []
        for event in parent_events:
            if event.args.get("job") != job:
                continue
            entry = event.to_dict()
            entry["source"] = "service"
            entries.append(entry)
        for segment in self.segments(job):
            source = f"sandbox-a{segment['attempt']}"
            for event in segment["events"]:
                entry = event.to_dict()
                entry["source"] = source
                entries.append(entry)
        entries.sort(key=lambda entry: entry["timestamp"])
        return entries

    def chrome_trace(
        self,
        job: str,
        parent_events: List[TraceEvent],
        process_name: str = "repro-alloc service",
    ) -> Dict[str, Any]:
        """One Chrome trace: the service lane plus one lane per attempt."""
        lanes: List[Dict[str, Any]] = [
            {
                "name": process_name,
                "pid": PARENT_PID,
                "events": [
                    event
                    for event in parent_events
                    if event.args.get("job") == job
                ],
            }
        ]
        for segment in self.segments(job):
            pid = int(segment.get("pid") or 0)
            if pid in (0, PARENT_PID):
                # Never collide with the parent lane even if the
                # sidecar carried a degenerate pid.
                pid = PARENT_PID + 1 + segment["attempt"]
            lanes.append(
                {
                    "name": f"sandbox {job} attempt {segment['attempt']}",
                    "pid": pid,
                    "events": segment["events"],
                }
            )
        return merged_chrome_trace(lanes)


class FlightRecorder:
    """Dumps post-mortem telemetry bundles into ``<root>/flightrec/``.

    Best-effort by design: a failed dump (full disk, unlinked spool)
    must never take the quarantine path down with it, so :meth:`dump`
    returns ``None`` instead of raising.  Capped at
    :data:`MAX_FLIGHT_DUMPS` files per recorder instance.
    """

    def __init__(self, root: str, max_dumps: int = MAX_FLIGHT_DUMPS) -> None:
        self.root = root
        self._lock = make_lock("repro.obs.telemetry.FlightRecorder._lock")
        self._max_dumps = max(1, max_dumps)
        self._dumps = 0  # guarded-by: _lock

    def dump(
        self,
        job: str,
        tag: str,
        metrics: Dict[str, Any],
        events: List[TraceEvent],
        extra: Optional[Dict[str, Any]] = None,
    ) -> Optional[str]:
        with self._lock:
            if self._dumps >= self._max_dumps:
                return None
            self._dumps += 1
            count = self._dumps
        safe_job = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in job
        )
        safe_tag = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in tag
        )
        path = os.path.join(
            self.root, f"{safe_job}.{safe_tag}.{count:03d}.json"
        )
        payload = {
            "format": "repro-flightrec",
            "version": 1,
            "job": job,
            "tag": tag,
            "clock": capture_clock(),
            "metrics": metrics,
            "trace": [event.to_dict() for event in events],
        }
        if extra:
            payload["extra"] = extra
        try:
            os.makedirs(self.root, exist_ok=True)
            return write_atomic(path, json.dumps(payload, default=str))
        except OSError:
            return None
