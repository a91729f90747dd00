"""Process-isolated execution of one allocation attempt.

The worker threads of :class:`~repro.service.service.AllocationService`
supervise *retries*, but a thread cannot contain a runaway search: one
state-space exploration that eats all memory or spins forever takes the
whole daemon — and every in-flight job — down with it.  This module
moves the blast radius to the OS: each attempt runs in a dedicated
child process (:mod:`repro.service.sandbox_child`) under
``resource.setrlimit`` caps, reporting liveness and progress through a
heartbeat spool file, while the parent-side
:class:`~repro.service.watchdog.Watchdog` SIGKILLs children that stall
or breach their limits.

The contract, per attempt:

* The parent writes a **request spec** (`<job>.a<n>.request.json`) and
  spawns ``python -m repro.service.sandbox_child`` on it
  (``service.sandbox.spawn`` fault point fires just before the spawn).
  It holds the ``request`` and ``backend`` that
  :func:`~repro.service.sandbox_child.run_attempt` reads, plus
  ``budget``, ``limits``, the heartbeat interval and the per-attempt
  file paths.
* The child applies its rlimits, then appends **heartbeat** lines
  (`<job>.a<n>.beat`: beat counter, ``ru_maxrss``, states charged) from
  a daemon thread while the engine runs.
* The child writes its **outcome** (`<job>.a<n>.result.json`,
  atomic) and exits 0; dedicated exit codes distinguish OOM
  (:data:`EXIT_OOM`), CPU-limit breach (:data:`EXIT_CPU`) and a
  malformed spec (:data:`EXIT_SPEC`).
* The parent classifies the exit into a typed
  :class:`SandboxVerdict` — ``completed`` / ``oom`` / ``cpu-exceeded``
  / ``stalled`` / ``crashed`` — with the exit status, last-seen peak
  RSS and beat count attached.  Non-``completed`` verdicts raise
  :class:`SandboxFailure`, which the service's supervision boundary
  turns into a retry (transient crash) or a quarantine carrying the
  verdict (reproducible crash).  The daemon itself never dies.

Every document on disk is written by :func:`repro.durable.write_atomic`
and named per (job, attempt), so an orphaned child from a SIGKILLed
daemon can never clobber the files of the retried attempt.  Once the
verdict is classified and the telemetry harvested, whatever the
verdict, :func:`run_sandboxed` removes the attempt's four files.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any, Dict, Optional

from repro.durable import read_json, write_atomic
from repro.exitcodes import EXIT_CPU, EXIT_OOM, EXIT_SPEC
from repro.obs import get_metrics
from repro.obs.lockcheck import make_lock
from repro.obs.log import get_logger
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS
from repro.obs.telemetry import (
    JobTelemetry,
    TelemetryError,
    capture_clock,
    events_from_dicts,
    read_telemetry,
    rebase_events,
)
from repro.obs.trace import get_trace
from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.faults import fault_point

SANDBOX_FORMAT = "repro-sandbox-request"
SANDBOX_VERSION = 1

# EXIT_OOM / EXIT_CPU / EXIT_SPEC are defined in repro.exitcodes (the
# single exit-code registry) and re-exported here for the child and the
# existing importers.
__all__ = [
    "EXIT_CPU",
    "EXIT_OOM",
    "EXIT_SPEC",
    "SandboxFailure",
    "SandboxHandle",
    "SandboxVerdict",
    "classify_exit",
    "harvest_telemetry",
    "run_sandboxed",
    "write_request_spec",
]

VERDICT_COMPLETED = "completed"
VERDICT_OOM = "oom"
VERDICT_CPU = "cpu-exceeded"
VERDICT_STALLED = "stalled"
VERDICT_CRASHED = "crashed"

#: every kind a :class:`SandboxVerdict` may carry
VERDICT_KINDS = frozenset(
    (
        VERDICT_COMPLETED,
        VERDICT_OOM,
        VERDICT_CPU,
        VERDICT_STALLED,
        VERDICT_CRASHED,
    )
)


@dataclass(frozen=True)
class SandboxVerdict:
    """How one sandboxed attempt ended, as the parent saw it.

    ``exit_status`` is the raw :attr:`subprocess.Popen.returncode`
    (negative = killed by that signal, ``None`` = never exited);
    ``peak_rss_kb`` is the child's last self-reported peak resident
    set (``VmHWM``, or ``ru_maxrss`` where ``/proc`` is missing);
    ``beats`` counts heartbeat lines observed.  ``reason`` is a short
    human-readable sentence for the job record.
    """

    kind: str
    exit_status: Optional[int] = None
    peak_rss_kb: Optional[int] = None
    beats: int = 0
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind not in VERDICT_KINDS:
            raise ValueError(f"unknown sandbox verdict kind {self.kind!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "exit_status": self.exit_status,
            "peak_rss_kb": self.peak_rss_kb,
            "beats": self.beats,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SandboxVerdict":
        return cls(
            kind=data["kind"],
            exit_status=data.get("exit_status"),
            peak_rss_kb=data.get("peak_rss_kb"),
            beats=int(data.get("beats", 0)),
            reason=data.get("reason", ""),
        )


class SandboxFailure(RuntimeError):
    """A sandboxed attempt did not complete; carries the verdict.

    Raised for every non-``completed`` verdict.  The service treats it
    like any other unexpected worker exception — retry, then quarantine
    with the verdict attached to the job record.
    """

    def __init__(self, verdict: SandboxVerdict) -> None:
        super().__init__(
            f"sandboxed attempt {verdict.kind}: {verdict.reason}"
        )
        self.verdict = verdict


def write_request_spec(
    path: str,
    job: str,
    attempt: int,
    spec: Dict[str, Any],
    budget: Dict[str, Any],
    limits: Dict[str, Any],
    heartbeat_path: str,
    result_path: str,
    heartbeat_interval: float,
    telemetry_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Atomically persist ``spec`` plus the sandbox fields; returns it."""
    request_spec = {
        "format": SANDBOX_FORMAT,
        "version": SANDBOX_VERSION,
        "job": job,
        "attempt": attempt,
        **spec,
        "budget": budget,
        "limits": limits,
        "heartbeat_path": heartbeat_path,
        "result_path": result_path,
        "heartbeat_interval": heartbeat_interval,
        "telemetry_path": telemetry_path,
    }
    write_atomic(path, json.dumps(request_spec, indent=2))
    return request_spec


def _child_env() -> Dict[str, str]:
    """The daemon's environment with ``repro`` importable by the child."""
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{existing}" if existing else src
    )
    return env


@dataclass
class SandboxHandle:
    """One live sandboxed child, as tracked by the watchdog.

    The handle is shared between the worker thread that spawned the
    child (which blocks in :func:`run_sandboxed`) and the watchdog
    thread (which polls heartbeats and may kill); ``kill`` records the
    *first* reason only, so the eventual verdict names whichever
    enforcement fired first.
    """

    job: str
    attempt: int
    process: subprocess.Popen
    heartbeat_path: str
    memory_mb: Optional[int] = None
    deadline: Optional[float] = None
    stall_timeout: float = 10.0
    spawn_grace: float = 15.0
    spawned_at: float = field(default_factory=perf_counter)
    last_beat: Dict[str, Any] = field(default_factory=dict)  # guarded-by: _lock
    beats: int = 0  # guarded-by: _lock
    _beat_size: int = 0  # guarded-by: _lock
    _last_progress: float = field(default_factory=perf_counter)  # guarded-by: _lock
    _kill_reason: Optional[str] = None  # guarded-by: _lock
    _lock: threading.Lock = field(
        default_factory=lambda: make_lock(
            "repro.service.sandbox.SandboxHandle._lock"
        )
    )

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def kill_reason(self) -> Optional[str]:
        with self._lock:
            return self._kill_reason

    def alive(self) -> bool:
        return self.process.poll() is None

    def read_heartbeat(self) -> None:
        """Poll the beat file; update progress/rss bookkeeping.

        Called from both the watchdog thread and the worker thread (the
        final post-exit snapshot), so every bookkeeping update happens
        in one locked step — the file I/O itself stays outside the
        lock.  ``service.sandbox.heartbeat`` fires before the read so
        tests can deterministically blind the watchdog (an injected
        fault is indistinguishable from a child that stopped beating).
        """
        fault_point(
            "service.sandbox.heartbeat", job=self.job, attempt=self.attempt
        )
        with self._lock:
            known_size = self._beat_size
        try:
            size = os.path.getsize(self.heartbeat_path)
            if size == known_size:
                return
            with open(self.heartbeat_path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return
        beat: Optional[Dict[str, Any]] = None
        for line in reversed(lines):
            try:
                beat = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write; use the previous full line
            break
        with self._lock:
            self._beat_size = size
            self._last_progress = perf_counter()
            if beat is not None:
                self.last_beat = beat
                self.beats = max(self.beats, int(beat.get("beat", 0)) + 1)

    def watch_stats(self) -> Dict[str, Any]:
        """Locked snapshot of the heartbeat bookkeeping.

        The watchdog's status digest and the post-exit classification
        read through this instead of peeking at attributes the polling
        thread may be mid-update on.
        """
        with self._lock:
            return {
                "last_beat": dict(self.last_beat),
                "beats": self.beats,
                "last_progress": self._last_progress,
            }

    def stalled(self) -> bool:
        """No fresh heartbeat within the stall window.

        Children get ``spawn_grace`` to boot the interpreter and write
        their first beat; after that, silence for ``stall_timeout``
        seconds counts as a stall.
        """
        now = perf_counter()
        with self._lock:
            beats = self.beats
            last_progress = self._last_progress
        if beats == 0:
            return now - self.spawned_at > max(
                self.spawn_grace, self.stall_timeout
            )
        return now - last_progress > self.stall_timeout

    def over_memory(self) -> bool:
        if self.memory_mb is None:
            return False
        with self._lock:
            rss_kb = self.last_beat.get("rss_kb")
        return rss_kb is not None and rss_kb > self.memory_mb * 1024

    def over_deadline(self) -> bool:
        """Far past the cooperative deadline: the child ignored it."""
        if self.deadline is None:
            return False
        grace = max(10.0, self.deadline)
        return perf_counter() - self.spawned_at > self.deadline + grace

    def peak_rss_kb(self) -> Optional[int]:
        with self._lock:
            rss = self.last_beat.get("rss_kb")
        return int(rss) if rss is not None else None

    def kill(self, reason: str) -> None:
        """SIGKILL the child, recording the first kill reason."""
        with self._lock:
            if self._kill_reason is None:
                self._kill_reason = reason
        try:
            self.process.kill()
        except OSError:
            pass
        get_metrics().counter("sandbox.killed")
        tr = get_trace()
        if tr.enabled:
            tr.instant(
                "sandbox",
                "kill",
                job=self.job,
                attempt=self.attempt,
                reason=reason,
            )


def classify_exit(handle: SandboxHandle) -> SandboxVerdict:
    """Turn an exited child's status + kill bookkeeping into a verdict."""
    status = handle.process.returncode
    stats = handle.watch_stats()
    peak_rss = stats["last_beat"].get("rss_kb")
    peak = int(peak_rss) if peak_rss is not None else None
    beats = int(stats["beats"])
    reason = handle.kill_reason
    if reason == "stalled":
        return SandboxVerdict(
            VERDICT_STALLED,
            exit_status=status,
            peak_rss_kb=peak,
            beats=beats,
            reason=(
                f"no heartbeat for {handle.stall_timeout:g}s; "
                "killed by the watchdog"
            ),
        )
    if reason == "oom":
        return SandboxVerdict(
            VERDICT_OOM,
            exit_status=status,
            peak_rss_kb=peak,
            beats=beats,
            reason=(
                f"resident set exceeded {handle.memory_mb} MB; "
                "killed by the watchdog"
            ),
        )
    if reason == "deadline":
        return SandboxVerdict(
            VERDICT_STALLED,
            exit_status=status,
            peak_rss_kb=peak,
            beats=beats,
            reason=(
                f"ran {handle.deadline:g}s past its deadline grace; "
                "killed by the watchdog"
            ),
        )
    if status == EXIT_OOM:
        return SandboxVerdict(
            VERDICT_OOM,
            exit_status=status,
            peak_rss_kb=peak,
            beats=beats,
            reason="child hit its address-space limit (MemoryError)",
        )
    if status == EXIT_CPU or (
        status is not None and status == -int(signal.SIGXCPU)
    ):
        return SandboxVerdict(
            VERDICT_CPU,
            exit_status=status,
            peak_rss_kb=peak,
            beats=beats,
            reason="child exhausted its CPU-seconds limit",
        )
    if status == 0:
        return SandboxVerdict(
            VERDICT_COMPLETED,
            exit_status=0,
            peak_rss_kb=peak,
            beats=beats,
            reason="",
        )
    if status is not None and status < 0:
        return SandboxVerdict(
            VERDICT_CRASHED,
            exit_status=status,
            peak_rss_kb=peak,
            beats=beats,
            reason=f"child killed by signal {-status}",
        )
    return SandboxVerdict(
        VERDICT_CRASHED,
        exit_status=status,
        peak_rss_kb=peak,
        beats=beats,
        reason=f"child exited with status {status}",
    )


def harvest_telemetry(
    telemetry_path: str,
    job: str,
    attempt: int,
    telemetry: Optional[JobTelemetry] = None,
) -> bool:
    """Fold a child's telemetry sidecar into the parent's registries.

    Counters, gauges and histograms merge into the active metrics
    registry under the ``child.`` namespace; trace events are rebased
    into this process's clock domain and recorded against the job in
    ``telemetry`` (when given).  Best-effort: a child that crashed
    before its first spool leaves no sidecar
    (``service.telemetry.missing``), a torn or alien file counts as
    ``service.telemetry.errors`` — neither fails the attempt.  Returns
    ``True`` when a sidecar was harvested.
    """
    obs = get_metrics()
    log = get_logger()
    try:
        payload = read_telemetry(telemetry_path)
    except TelemetryError as error:
        if os.path.exists(telemetry_path):
            obs.counter("service.telemetry.errors")
            log.warning(
                "telemetry.harvest_failed",
                job=job,
                attempt=attempt,
                detail=str(error),
            )
        else:
            obs.counter("service.telemetry.missing")
            log.debug("telemetry.missing", job=job, attempt=attempt)
        return False
    child_clock = payload["clock"]
    obs.merge_snapshot(payload["metrics"], prefix="child.")
    events = rebase_events(
        events_from_dicts(payload["trace"].get("events", [])),
        child_clock,
        capture_clock(),
    )
    if telemetry is not None:
        telemetry.record(
            job,
            attempt,
            pid=int(child_clock.get("pid", 0)),
            events=events,
            metrics=payload["metrics"],
        )
    obs.counter("service.telemetry.harvested")
    log.debug(
        "telemetry.harvested",
        job=job,
        attempt=attempt,
        events=len(events),
        dropped=payload["trace"].get("dropped", 0),
    )
    return True


def run_sandboxed(
    sandbox_dir: str,
    job: str,
    attempt: int,
    spec: Dict[str, Any],
    budget_spec: Dict[str, Any],
    limits: Dict[str, Any],
    watchdog: "Any",
    budget: Optional[Budget] = None,
    heartbeat_interval: float = 0.25,
    stall_timeout: float = 10.0,
    poll_interval: float = 0.05,
    telemetry: Optional[JobTelemetry] = None,
) -> Dict[str, Any]:
    """Run one attempt in a sandboxed child; return its outcome payload.

    The child passes ``spec`` to
    :func:`~repro.service.sandbox_child.run_attempt`.  Blocks the
    calling worker thread until the child exits (or the watchdog / a
    cancelled ``budget`` kills it).  Returns the child's
    result payload (``{"ok": True, "bundle": ..., "rung": ...,
    "verdict": ...}`` or a typed ``{"ok": False, "error": ...}``) when
    the verdict is ``completed``; raises :class:`SandboxFailure` with
    the verdict otherwise, and ``BudgetExceededError(reason=
    "cancelled")`` when the parent cancelled the attempt (drain).
    """
    os.makedirs(sandbox_dir, exist_ok=True)
    stem = os.path.join(sandbox_dir, f"{job}.a{attempt}")
    request_path = stem + ".request.json"
    heartbeat_path = stem + ".beat"
    result_path = stem + ".result.json"
    telemetry_path = stem + ".telemetry.json"
    _discard(heartbeat_path, result_path, telemetry_path)
    try:
        write_request_spec(
            request_path,
            job=job,
            attempt=attempt,
            spec=spec,
            budget=budget_spec,
            limits=limits,
            heartbeat_path=heartbeat_path,
            result_path=result_path,
            heartbeat_interval=heartbeat_interval,
            telemetry_path=telemetry_path,
        )
        fault_point("service.sandbox.spawn", job=job, attempt=attempt)
        obs = get_metrics()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.sandbox_child", request_path],
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        obs.counter("sandbox.spawned")
        handle = SandboxHandle(
            job=job,
            attempt=attempt,
            process=process,
            heartbeat_path=heartbeat_path,
            memory_mb=limits.get("memory_mb"),
            deadline=budget_spec.get("deadline"),
            stall_timeout=stall_timeout,
        )
        watchdog.register(handle)
        tr = get_trace()
        span = tr.span("sandbox", "attempt", job=job, attempt=attempt)
        try:
            with span:
                while process.poll() is None:
                    if budget is not None and budget.cancelled:
                        handle.kill("cancelled")
                        process.wait(timeout=30)
                        break
                    sleep(poll_interval)
                process.wait()
        finally:
            watchdog.unregister(handle)
        try:
            handle.read_heartbeat()  # final progress/rss snapshot
        except Exception:
            # best-effort bookkeeping: an injected heartbeat fault (or a
            # vanished beat file) must not fail an attempt that completed
            pass
        # Harvest whatever telemetry the child managed to spool — failed
        # and killed attempts especially, since their sidecar is the only
        # surviving record of where the engine's time and states went.
        try:
            harvest_telemetry(telemetry_path, job, attempt, telemetry)
        except Exception:
            get_metrics().counter("service.telemetry.errors")
        if obs.enabled:
            # the parent budget is never charged in process isolation, so
            # the states-explored histogram feeds from the child's last
            # self-reported figure instead
            states = handle.watch_stats()["last_beat"].get("states")
            if states:
                obs.histogram(
                    "service.states_explored",
                    float(states),
                    buckets=DEFAULT_SIZE_BUCKETS,
                )
        if handle.kill_reason == "cancelled":
            raise BudgetExceededError(
                f"sandboxed attempt for {job!r} cancelled by the service",
                reason="cancelled",
            )
        verdict = classify_exit(handle)
        if tr.enabled:
            tr.instant(
                "sandbox",
                "verdict",
                job=job,
                attempt=attempt,
                kind=verdict.kind,
                exit_status=verdict.exit_status,
            )
        if verdict.kind != VERDICT_COMPLETED:
            obs.counter(f"sandbox.{verdict.kind.replace('-', '_')}")
            raise SandboxFailure(verdict)
        try:
            payload = read_json(result_path, ValueError, "sandbox result")
            if not isinstance(payload, dict):
                raise ValueError(f"{result_path}: not a JSON object")
        except ValueError as error:
            crashed = SandboxVerdict(
                VERDICT_CRASHED,
                exit_status=0,
                peak_rss_kb=verdict.peak_rss_kb,
                beats=verdict.beats,
                reason=f"child exited 0 but its result is unreadable: {error}",
            )
            obs.counter("sandbox.crashed")
            raise SandboxFailure(crashed) from error
        obs.counter("sandbox.completed")
        payload["sandbox_verdict"] = verdict.to_dict()
        return payload
    finally:
        # the verdict is classified and the telemetry harvested: the
        # attempt's files have nothing left to tell
        _discard(request_path, heartbeat_path, result_path, telemetry_path)


def _discard(*paths: str) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass
