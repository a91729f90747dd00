"""Supervised allocation service: durable queue + worker pool.

:class:`AllocationService` turns the paper's batch allocation flow into
a long-running, fault-tolerant job service.  The robustness contract,
piece by piece:

* **Nothing accepted is ever lost.**  :meth:`~AllocationService.submit`
  journals the job (atomic write) *before* returning its id; every
  state transition re-journals.  :meth:`~AllocationService.start`
  replays the journal, demoting ``running`` jobs (a previous daemon
  died mid-attempt) back to ``queued``.
* **Workers are supervised.**  Each attempt runs under a fresh per-job
  :class:`~repro.resilience.budget.Budget`; an unexpected exception
  (including injected ``service.worker.run`` faults) never kills the
  worker thread — the job is retried with capped exponential backoff
  and deterministic jitter, and quarantined once ``max_attempts`` is
  reached (poison jobs cannot loop forever).
* **Budget exhaustion is not a failure.**  Deadlines fall through the
  four-rung degradation ladder (:func:`repro.resilience.policy.
  resilient_allocate`) and surface as a *degraded* — still sound —
  answer; only a fully exhausted ladder fails the job.
* **Overload is rejected, not absorbed.**  A bounded queue raises
  :class:`OverloadError` at admission (HTTP 429 / exit code 7) instead
  of letting latency grow without bound.
* **Drain is graceful.**  :meth:`~AllocationService.drain` stops
  intake, cancels the running jobs' budgets cooperatively
  (:meth:`Budget.cancel`; a sandboxed child is SIGKILLed) and parks
  the jobs as ``queued`` for the next daemon, which recomputes them
  from the start — bit-identically, the engines being deterministic.
* **The blast radius is a child process.**  Every compute attempt runs
  :func:`~repro.service.sandbox_child.run_attempt`; with
  ``isolation="process"`` it runs in a dedicated
  subprocess under ``resource.setrlimit`` caps
  (:mod:`repro.service.sandbox`), heartbeat-monitored by a parent-side
  :class:`~repro.service.watchdog.Watchdog` that SIGKILLs stalled or
  limit-breaching children.  A dead child is a retryable attempt with
  a typed :class:`~repro.service.sandbox.SandboxVerdict`; a
  reproducible one quarantines with the verdict in the job record; the
  daemon itself never dies.  A quarantine storm flips ``/health`` to
  ``degraded`` (:class:`~repro.service.watchdog.CrashLoopDetector`).
* **Cached answers are re-proved.**  Hits from the
  :class:`~repro.service.cache.ResultCache` are remapped into the
  requester's vocabulary and replayed through
  :func:`repro.verify.certify_allocation` before being served; a
  refuted entry is evicted and the job recomputed.

Terminal job states: ``certified`` (exact rung, certificate checked),
``degraded`` (a lower rung or a sound-lower-bound verdict), ``failed``
(genuine infeasibility or exhausted ladder) and ``quarantined``
(poison).  Every accepted job reaches exactly one of them — the soak
test under ``pytest -m faults`` asserts this across injected crashes,
daemon restarts and drains.
"""

from __future__ import annotations

import os
import random
import threading
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Deque, Dict, List, Optional

from repro.appmodel.serialization import (
    BUNDLE_FORMAT,
    BUNDLE_VERSION,
    application_from_dict,
)
from repro.arch.serialization import architecture_from_dict
from repro.core.strategy import BACKENDS, AllocationError
from repro.obs import get_metrics
from repro.obs.lockcheck import make_lock
from repro.obs.log import get_logger
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS
from repro.obs.telemetry import FlightRecorder, JobTelemetry
from repro.obs.trace import get_trace
from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.faults import InjectedFaultError, fault_point
from repro.sdf.serialization import SerializationError
from repro.service.cache import ResultCache
from repro.service.sandbox import SandboxFailure, run_sandboxed
from repro.service.watchdog import CrashLoopDetector, Watchdog
from repro.service.canonical import (
    CanonicalRequest,
    canonicalise_request,
    name_maps,
    remap_allocation,
)
from repro.service.journal import (
    STATE_CERTIFIED,
    STATE_DEGRADED,
    STATE_FAILED,
    STATE_QUARANTINED,
    STATE_QUEUED,
    STATE_RUNNING,
    TERMINAL_STATES,
    JobJournal,
    new_job_record,
)
from repro.verify.allocation import (
    VERDICT_SOUND_LOWER_BOUND,
    certify_allocation,
)


class OverloadError(RuntimeError):
    """The bounded job queue is full; the submission was rejected."""


class DrainingError(RuntimeError):
    """The service is draining and no longer accepts submissions."""


class ResultRefutedError(RuntimeError):
    """A freshly computed result failed independent certification.

    Treated as transient (the engines are deterministic, but the
    failure may stem from an injected fault or environmental
    corruption); retries eventually quarantine the job.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Delays: ``base_delay * factor**(attempt-1)`` capped at
    ``max_delay``, stretched by up to ``jitter`` (relative) using a
    PRNG seeded from the job id and attempt — reproducible across
    runs, decorrelated across jobs.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def delay(self, attempt: int, token: str) -> float:
        raw = min(
            self.max_delay,
            self.base_delay * self.factor ** max(0, attempt - 1),
        )
        if not self.jitter:
            return raw
        stretch = random.Random(f"{token}:{attempt}").random()
        return raw * (1.0 + self.jitter * stretch)


class AllocationService:
    """Durable job queue + supervised worker pool over one spool dir.

    The spool directory holds everything the service needs to survive
    a crash: ``jobs/`` (the journal) and ``cache/`` (the verified result
    cache).
    """

    def __init__(
        self,
        spool: str,
        workers: int = 2,
        max_queue_depth: int = 64,
        retry: Optional[RetryPolicy] = None,
        backend: str = "greedy",
        deadline: Optional[float] = None,
        max_states: Optional[int] = None,
        isolation: str = "thread",
        memory_mb: Optional[int] = None,
        cpu_seconds: Optional[float] = None,
        stall_timeout: float = 10.0,
        heartbeat_interval: float = 0.25,
        crash_loop_window: int = 10,
        crash_loop_threshold: int = 3,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if isolation not in ("thread", "process"):
            raise ValueError(
                f"isolation must be 'thread' or 'process', got {isolation!r}"
            )
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.spool = spool
        os.makedirs(spool, exist_ok=True)
        self.journal = JobJournal(spool)
        self.cache = ResultCache(spool)
        self.sandbox_dir = os.path.join(spool, "sandbox")
        self.retry = retry or RetryPolicy()
        self.backend = backend
        self.deadline = deadline
        self.max_states = max_states
        self.max_queue_depth = max_queue_depth
        self.worker_count = workers
        self.isolation = isolation
        self.memory_mb = memory_mb
        self.cpu_seconds = cpu_seconds
        self.stall_timeout = stall_timeout
        self.heartbeat_interval = heartbeat_interval
        self.watchdog = Watchdog()
        #: harvested child telemetry segments, per job (timeline/trace)
        self.telemetry = JobTelemetry()
        #: post-mortem dumps on quarantine / crash-loop trip
        self.flight_recorder = FlightRecorder(
            os.path.join(spool, "flightrec")
        )
        self.crash_loop = CrashLoopDetector(
            window=crash_loop_window,
            threshold=crash_loop_threshold,
            on_trip=self._flight_dump_crash_loop,
        )
        if isolation == "process":
            os.makedirs(self.sandbox_dir, exist_ok=True)

        self._lock = make_lock(
            "repro.service.service.AllocationService._lock"
        )
        self._changed = threading.Condition(self._lock)
        self._jobs: Dict[str, Dict[str, Any]] = {}  # guarded-by: _lock
        self._queue: Deque[str] = deque()  # guarded-by: _lock
        #: perf-clock enqueue instants behind the queue-wait histogram
        self._enqueued: Dict[str, float] = {}  # guarded-by: _lock
        self._budgets: Dict[str, Budget] = {}  # guarded-by: _lock
        self._timers: Dict[str, threading.Timer] = {}  # guarded-by: _lock
        self._workers: List[threading.Thread] = []  # guarded-by: _lock
        self._accepting = False  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock
        self._stopped = False  # guarded-by: _lock
        self._active = 0  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "AllocationService":
        """Replay the journal and launch the worker pool."""
        records, corrupted = self.journal.recover()
        obs = get_metrics()
        tr = get_trace()
        # no worker exists yet: recovery runs lock-free, the journal
        # writes included (taking self._lock here would deadlock)
        for record in records:
            if record["state"] == STATE_RUNNING:
                # a previous daemon died mid-attempt; the attempt was
                # charged, the work was not lost — re-queue and the
                # deterministic engines reproduce it bit-identically
                record["state"] = STATE_QUEUED
                obs.counter("service.recovered")
                if tr.enabled:
                    tr.instant("service", "recovered", job=record["id"])
                try:
                    self.journal.write(record)
                except (OSError, InjectedFaultError, SerializationError):
                    obs.counter("service.journal.errors")
        with self._lock:
            for record in records:
                self._jobs[record["id"]] = record
                if record["state"] == STATE_QUEUED:
                    self._queue.append(record["id"])
                    self._enqueued[record["id"]] = perf_counter()
            self._accepting = True
            self._changed.notify_all()
        get_logger().info(
            "service.started",
            workers=self.worker_count,
            isolation=self.isolation,
            recovered=len(records),
            corrupt=len(corrupted),
        )
        if corrupted:
            obs.counter("service.journal.corrupt_on_recover", len(corrupted))
        threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            for index in range(self.worker_count)
        ]
        # registered under the lock: a concurrent drain() must see the
        # full pool before it starts joining
        with self._lock:
            self._workers.extend(threads)
        for thread in threads:
            thread.start()
        return self

    def drain(
        self, cancel_running: bool = True, timeout: float = 30.0
    ) -> Dict[str, Any]:
        """Gracefully stop: no intake, park pending, cancel running.

        With ``cancel_running`` the active jobs' budgets are cancelled
        cooperatively (a sandboxed child is SIGKILLed) and each job is
        parked as ``queued`` with its attempt refunded.  The next daemon
        recomputes a parked job from the start, bit-identically.
        Pending/backing-off jobs stay ``queued`` in the journal
        untouched.  Idempotent.
        """
        with self._lock:
            self._accepting = False
            self._draining = True
            for timer in self._timers.values():
                timer.cancel()
            self._timers.clear()
            parked = len(self._queue)
            self._queue.clear()
            self._enqueued.clear()
            cancelled = 0
            if cancel_running:
                for budget in self._budgets.values():
                    budget.cancel()
                    cancelled += 1
            self._changed.notify_all()
            deadline = timeout
            while self._active > 0 and deadline > 0:
                before = self._active
                self._changed.wait(timeout=min(0.5, deadline))
                deadline -= 0.5 if before == self._active else 0
                if self._active < before:
                    continue
            self._stopped = True
            self._changed.notify_all()
            # claim the pool under the lock so two concurrent drains
            # never join (or double-clear) the same threads
            workers = self._workers
            self._workers = []
        for thread in workers:
            thread.join(timeout=timeout)
        self.watchdog.stop()
        obs = get_metrics()
        obs.counter("service.drains")
        tr = get_trace()
        if tr.enabled:
            tr.instant(
                "service", "drain", parked=parked, cancelled=cancelled
            )
        get_logger().info(
            "service.drained", parked=parked, cancelled=cancelled
        )
        return {"parked": parked, "cancelled": cancelled}

    def close(self) -> None:
        self.drain(cancel_running=True)

    # -- submission ----------------------------------------------------
    def submit(
        self,
        application: Dict[str, Any],
        architecture: Dict[str, Any],
        deadline: Optional[float] = None,
        max_states: Optional[int] = None,
        memory_mb: Optional[int] = None,
        cpu_seconds: Optional[float] = None,
    ) -> str:
        """Accept one job; returns its id once durably journaled.

        ``application``/``architecture`` are the plain-dict request
        forms; ``memory_mb``/``cpu_seconds`` cap this job's sandboxed
        attempts (process isolation only), overriding the service-wide
        defaults.  Raises :class:`SerializationError` on malformed
        input, :class:`OverloadError` when the queue is full and
        :class:`DrainingError` after :meth:`drain` began.  The journal
        write happens *before* the id is returned: an accepted job is
        durable or the submitter gets an error — never a silent loss.
        """
        if memory_mb is not None and (
            not isinstance(memory_mb, int) or memory_mb < 1
        ):
            raise ValueError("memory_mb must be a positive integer")
        if cpu_seconds is not None and (
            not isinstance(cpu_seconds, (int, float)) or cpu_seconds <= 0
        ):
            raise ValueError("cpu_seconds must be a positive number")
        # parse eagerly: malformed requests are the submitter's fault
        # and must be rejected at admission, not poison a worker
        application_from_dict(application)
        architecture_from_dict(architecture)
        canonical = canonicalise_request(application, architecture)
        obs = get_metrics()
        with self._lock:
            if not self._accepting:
                raise DrainingError(
                    "service is draining and not accepting jobs"
                )
            depth = len(self._queue) + len(self._timers) + self._active
            if depth >= self.max_queue_depth:
                obs.counter("service.overloaded")
                tr = get_trace()
                if tr.enabled:
                    tr.instant("service", "overload", depth=depth)
                raise OverloadError(
                    f"job queue is full ({depth} jobs in flight, "
                    f"max {self.max_queue_depth}); retry later"
                )
            job_id = self.journal.next_id()
            budget = {}
            if deadline is not None or self.deadline is not None:
                budget["deadline"] = (
                    deadline if deadline is not None else self.deadline
                )
            if max_states is not None or self.max_states is not None:
                budget["max_states"] = (
                    max_states if max_states is not None else self.max_states
                )
            limits = {}
            if memory_mb is not None:
                limits["memory_mb"] = memory_mb
            if cpu_seconds is not None:
                limits["cpu_seconds"] = cpu_seconds
            record = new_job_record(
                job_id,
                request={
                    "application": application,
                    "architecture": architecture,
                },
                canonical=canonical.to_dict(),
                max_attempts=self.retry.max_attempts,
                budget=budget,
                limits=limits,
            )
            self._jobs[job_id] = record
        # strict write outside the lock: admission requires durability
        try:
            self.journal.write(record)
        except BaseException:
            with self._lock:
                self._jobs.pop(job_id, None)
            raise
        with self._lock:
            self._queue.append(job_id)
            self._enqueued[job_id] = perf_counter()
            self._changed.notify_all()
        obs.counter("service.submitted")
        tr = get_trace()
        if tr.enabled:
            tr.instant("service", "submit", job=job_id)
        get_logger().info("job.submitted", job=job_id)
        return job_id

    # -- introspection -------------------------------------------------
    def job(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            record = self._jobs.get(job_id)
            return dict(record) if record is not None else None

    def jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {
                    "id": record["id"],
                    "state": record["state"],
                    "attempts": record["attempts"],
                    "rung": record.get("rung"),
                    "verdict": record.get("verdict"),
                    "source": record.get("source"),
                }
                for record in sorted(
                    self._jobs.values(), key=lambda r: r["id"]
                )
            ]

    def stats(self) -> Dict[str, Any]:
        # watchdog snapshot first: it takes only the watchdog's own
        # lock, so ordering keeps the lock graph acyclic
        running = self.watchdog.snapshot()
        with self._lock:
            states: Dict[str, int] = {}
            for record in self._jobs.values():
                states[record["state"]] = states.get(record["state"], 0) + 1
            return {
                "accepting": self._accepting,
                "workers": self.worker_count,
                "isolation": self.isolation,
                "backend": self.backend,
                "health": self.crash_loop.health(),
                "crash_loop": self.crash_loop.snapshot(),
                "queue_depth": len(self._queue),
                "backing_off": len(self._timers),
                "active": self._active,
                "max_queue_depth": self.max_queue_depth,
                "jobs": states,
                "running": running,
            }

    def retry_after_hint(self) -> int:
        """Seconds an overloaded submitter should wait before retrying.

        One base backoff per job already in flight, floored at one
        second — crude, but it scales the advertised wait with the
        actual backlog instead of hard-coding a constant.
        """
        with self._lock:
            depth = len(self._queue) + len(self._timers) + self._active
        return max(1, int(depth * self.retry.base_delay + 0.999))

    def wait(self, job_id: str, timeout: float = 60.0) -> Dict[str, Any]:
        """Block until ``job_id`` reaches a terminal state."""
        with self._lock:
            remaining = timeout
            while remaining > 0:
                record = self._jobs.get(job_id)
                if record is None:
                    raise KeyError(f"unknown job {job_id!r}")
                if record["state"] in TERMINAL_STATES:
                    return dict(record)
                self._changed.wait(timeout=min(0.2, remaining))
                remaining -= 0.2
        raise TimeoutError(
            f"job {job_id!r} not terminal after {timeout:g}s"
        )

    def wait_idle(self, timeout: float = 60.0) -> None:
        """Block until no job is queued, backing off or running."""
        with self._lock:
            remaining = timeout
            while remaining > 0:
                if (
                    not self._queue
                    and not self._timers
                    and self._active == 0
                ):
                    return
                self._changed.wait(timeout=min(0.2, remaining))
                remaining -= 0.2
        raise TimeoutError(f"service not idle after {timeout:g}s")

    # -- worker pool ---------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while (
                    not self._queue
                    and not self._stopped
                    and not self._draining
                ):
                    self._changed.wait(timeout=0.5)
                if self._stopped or self._draining:
                    return
                job_id = self._queue.popleft()
                enqueued_at = self._enqueued.pop(job_id, None)
                record = self._jobs[job_id]
                record["state"] = STATE_RUNNING
                record["attempts"] += 1
                budget = Budget(
                    deadline=record.get("budget", {}).get("deadline"),
                    max_states=record.get("budget", {}).get("max_states"),
                )
                self._budgets[job_id] = budget
                self._active += 1
            if enqueued_at is not None:
                popped_at = perf_counter()
                obs = get_metrics()
                if obs.enabled:
                    obs.histogram(
                        "service.queue_wait_seconds", popped_at - enqueued_at
                    )
                tr = get_trace()
                if tr.enabled:
                    tr.complete(
                        "service",
                        "queue.wait",
                        enqueued_at,
                        popped_at,
                        job=job_id,
                    )
            try:
                self._write_forgiving(record)
                self._run_attempt(record, budget)
            finally:
                with self._lock:
                    self._budgets.pop(job_id, None)
                    self._active -= 1
                    self._changed.notify_all()

    def _run_attempt(self, record: Dict[str, Any], budget: Budget) -> None:
        tr = get_trace()
        obs = get_metrics()
        log = get_logger()
        if log.enabled:
            log = log.bind(job=record["id"], attempt=record["attempts"])
        log.info("attempt.start")
        span = tr.span(
            "service",
            "job",
            job=record["id"],
            attempt=record["attempts"],
        )
        started = perf_counter()
        try:
            with span:
                fault_point(
                    "service.worker.run",
                    job=record["id"],
                    attempt=record["attempts"],
                )
                canonical = CanonicalRequest.from_dict(record["canonical"])
                if not self._serve_from_cache(record, canonical):
                    self._compute(record, canonical, budget)
        except BudgetExceededError as error:
            if error.reason == "cancelled":
                self._park_cancelled(record)
            else:
                self._terminal(
                    record,
                    STATE_FAILED,
                    reason=f"budget exhausted: {error}",
                )
        except (AllocationError, SerializationError) as error:
            # genuine negative answers: retrying cannot change them
            self._terminal(record, STATE_FAILED, reason=str(error))
        except SandboxFailure as error:
            # the child died (oom / cpu / stall / crash) but the daemon
            # did not: retry, and carry the typed verdict so a
            # reproducible crash quarantines with its evidence attached
            self._retry_or_quarantine(
                record, error, sandbox_verdict=error.verdict.to_dict()
            )
        except Exception as error:  # supervision boundary
            self._retry_or_quarantine(record, error)
        finally:
            if obs.enabled:
                obs.histogram(
                    "service.attempt_seconds", perf_counter() - started
                )
                charged = getattr(budget, "states_charged", 0)
                if charged:
                    obs.histogram(
                        "service.states_explored",
                        float(charged),
                        buckets=DEFAULT_SIZE_BUCKETS,
                    )
            log.info(
                "attempt.end",
                state=record["state"],
                states=getattr(budget, "states_charged", 0),
            )

    # -- attempt phases ------------------------------------------------
    def _serve_from_cache(
        self, record: Dict[str, Any], canonical: CanonicalRequest
    ) -> bool:
        obs = get_metrics()
        try:
            entry = self.cache.lookup(canonical)
        except (InjectedFaultError, OSError, SerializationError, ValueError):
            obs.counter("service.cache.errors")
            entry = None
        if entry is None or entry.get("backend") != self.backend:
            # another backend's answer is not this service's answer
            obs.counter("service.cache.miss")
            return False
        application = record["request"]["application"]
        architecture = record["request"]["architecture"]
        try:
            cached = CanonicalRequest(
                payload=entry["payload"],
                digest=entry["digest"],
                actor_order=tuple(entry["actor_order"]),
                channel_order=tuple(entry["channel_order"]),
                tile_order=tuple(entry["tile_order"]),
            )
            actor_map, channel_map, tile_map = name_maps(cached, canonical)
            allocation = remap_allocation(
                entry["allocation"],
                application,
                actor_map,
                channel_map,
                tile_map,
            )
            bundle = {
                "format": BUNDLE_FORMAT,
                "version": BUNDLE_VERSION,
                "architecture": architecture,
                "allocations": [allocation],
            }
            report = certify_allocation(bundle)
            certified = report.certified and bool(report.verdicts)
        except Exception:
            # a broken entry must never break the job — recompute
            certified = False
            report = None
            bundle = None
        if not certified:
            obs.counter("service.cache.refuted")
            tr = get_trace()
            if tr.enabled:
                tr.instant(
                    "service",
                    "cache.refuted",
                    job=record["id"],
                    key=canonical.digest,
                )
            self.cache.evict(canonical.digest)
            return False
        obs.counter("service.cache.hit")
        tr = get_trace()
        if tr.enabled:
            tr.instant(
                "service",
                "cache.hit",
                job=record["id"],
                key=canonical.digest,
            )
        self._finish(
            record,
            bundle=bundle,
            rung=entry.get("rung"),
            verdict=report.verdicts[0].verdict,
            source="cache",
        )
        return True

    def _effective_limits(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Per-job limits over the service-wide defaults, Nones dropped."""
        limits: Dict[str, Any] = {}
        if self.memory_mb is not None:
            limits["memory_mb"] = self.memory_mb
        if self.cpu_seconds is not None:
            limits["cpu_seconds"] = self.cpu_seconds
        for key, value in (record.get("limits") or {}).items():
            if value is not None:
                limits[key] = value
        return limits

    def _compute(
        self,
        record: Dict[str, Any],
        canonical: CanonicalRequest,
        budget: Budget,
    ) -> None:
        """One attempt of the pipeline, in this thread or a child.

        Both isolation modes get the outcome payload of
        :func:`~repro.service.sandbox_child.run_attempt` — directly, or
        from the sandboxed child (see ``sandbox.py``).  Typed negative
        answers are re-raised here so the ordinary supervision boundary
        routes them; a dead child surfaces as :class:`SandboxFailure`
        with its verdict.
        """
        spec = {"request": record["request"], "backend": self.backend}
        if self.isolation == "process":
            payload = run_sandboxed(
                self.sandbox_dir,
                job=record["id"],
                attempt=record["attempts"],
                spec=spec,
                budget_spec=record.get("budget", {}),
                limits=self._effective_limits(record),
                watchdog=self.watchdog,
                budget=budget,
                heartbeat_interval=self.heartbeat_interval,
                stall_timeout=self.stall_timeout,
                telemetry=self.telemetry,
            )
        else:
            # deferred: imported with the package, the child module
            # would run twice under ``python -m`` (once as __main__)
            from repro.service.sandbox_child import run_attempt

            payload = run_attempt(spec, budget)
        if not payload.get("ok"):
            kind = payload.get("error")
            message = payload.get("message", "attempt failed")
            if kind == "budget":
                raise BudgetExceededError(
                    message, reason=payload.get("reason") or "deadline"
                )
            if kind == "allocation":
                raise AllocationError(message)
            if kind == "serialization":
                raise SerializationError(message)
            if kind == "refuted":
                get_metrics().counter("service.refuted")
                raise ResultRefutedError(
                    f"computed allocation for job {record['id']!r} failed "
                    f"certification: {message}"
                )
            raise RuntimeError(
                f"attempt returned unknown error {kind!r}: {message}"
            )
        bundle = payload["bundle"]
        try:
            self.cache.store(
                canonical,
                bundle["allocations"][0],
                payload["rung"],
                self.backend,
            )
        except (OSError, InjectedFaultError):
            get_metrics().counter("service.cache.write_errors")
        self._finish(
            record,
            bundle=bundle,
            rung=payload["rung"],
            verdict=payload["verdict"],
            source="computed",
            sandbox_verdict=payload.get("sandbox_verdict"),
        )

    # -- transitions ---------------------------------------------------
    def _finish(
        self,
        record: Dict[str, Any],
        bundle: Dict[str, Any],
        rung: Optional[str],
        verdict: Optional[str],
        source: str,
        sandbox_verdict: Optional[Dict[str, Any]] = None,
    ) -> None:
        degraded = (
            (rung is not None and rung != "exact")
            or verdict == VERDICT_SOUND_LOWER_BOUND
        )
        state = STATE_DEGRADED if degraded else STATE_CERTIFIED
        obs = get_metrics()
        obs.counter("service.completed")
        obs.counter(f"service.{state}")
        updates: Dict[str, Any] = {
            "state": state,
            "rung": rung,
            "verdict": verdict,
            "source": source,
            "result": bundle,
            "reason": None,
        }
        if sandbox_verdict is not None:
            updates["sandbox_verdict"] = sandbox_verdict
        get_logger().info(
            "job.finished",
            job=record["id"],
            state=state,
            rung=rung,
            verdict=verdict,
            source=source,
        )
        self.crash_loop.record(quarantined=False)
        self._transition(record, **updates)

    def _terminal(
        self,
        record: Dict[str, Any],
        state: str,
        reason: str,
        **extra: Any,
    ) -> None:
        get_metrics().counter(f"service.{state}")
        get_logger().warning(
            "job.terminal", job=record["id"], state=state, reason=reason
        )
        self.crash_loop.record(quarantined=state == STATE_QUARANTINED)
        self._transition(record, state=state, reason=reason, **extra)

    def _park_cancelled(self, record: Dict[str, Any]) -> None:
        """A drain interrupted this attempt; park it for the next daemon.

        The attempt is refunded — cancellation is the service's doing,
        not the job's — and the next attempt starts from scratch.
        """
        get_metrics().counter("service.parked")
        self._transition(
            record,
            state=STATE_QUEUED,
            attempts=max(0, record["attempts"] - 1),
        )

    def _retry_or_quarantine(
        self,
        record: Dict[str, Any],
        error: Exception,
        sandbox_verdict: Optional[Dict[str, Any]] = None,
    ) -> None:
        reason = f"{type(error).__name__}: {error}"
        extra: Dict[str, Any] = {}
        if sandbox_verdict is not None:
            extra["sandbox_verdict"] = sandbox_verdict
        obs = get_metrics()
        tr = get_trace()
        if record["attempts"] >= record["max_attempts"]:
            obs.counter("service.quarantined_total")
            if tr.enabled:
                tr.instant(
                    "service",
                    "quarantine",
                    job=record["id"],
                    attempts=record["attempts"],
                    reason=reason,
                )
            self._flight_dump(record["id"], "quarantine", reason=reason)
            self._terminal(record, STATE_QUARANTINED, reason=reason, **extra)
            return
        delay = self.retry.delay(record["attempts"], record["id"])
        obs.counter("service.retries")
        get_logger().warning(
            "job.retry",
            job=record["id"],
            attempt=record["attempts"],
            delay_seconds=round(delay, 4),
            reason=reason,
        )
        if tr.enabled:
            tr.instant(
                "service",
                "retry",
                job=record["id"],
                attempt=record["attempts"],
                delay_seconds=delay,
                reason=reason,
            )
        self._transition(record, state=STATE_QUEUED, reason=reason, **extra)
        with self._lock:
            if self._draining or self._stopped:
                return  # stays queued in the journal for the next daemon
            timer = threading.Timer(
                delay, self._requeue_after_backoff, args=(record["id"],)
            )
            timer.daemon = True
            self._timers[record["id"]] = timer
            timer.start()

    def _requeue_after_backoff(self, job_id: str) -> None:
        with self._lock:
            self._timers.pop(job_id, None)
            if self._draining or self._stopped:
                return
            self._queue.append(job_id)
            self._enqueued[job_id] = perf_counter()
            self._changed.notify_all()

    def _transition(self, record: Dict[str, Any], **updates: Any) -> None:
        """Journal a state change *before* making it observable.

        The durable write happens first, so a waiter that sees a
        terminal state can rely on the journal already carrying it.
        Write failures are tolerated (counter ``service.journal.
        errors``): the in-memory record stays authoritative for this
        daemon, and a crash merely replays the job from an older
        journaled state — at-least-once semantics, never loss.
        """
        with self._lock:
            staged = {**record, **updates}
        try:
            self.journal.write(staged)
        except (OSError, InjectedFaultError, SerializationError):
            get_metrics().counter("service.journal.errors")
        with self._lock:
            record.update(updates)
            self._changed.notify_all()

    def _write_forgiving(self, record: Dict[str, Any]) -> None:
        """Journal the record as-is, tolerating write failures."""
        with self._lock:
            snapshot = dict(record)
        try:
            self.journal.write(snapshot)
        except (OSError, InjectedFaultError, SerializationError):
            get_metrics().counter("service.journal.errors")

    # -- telemetry -----------------------------------------------------
    def timeline(self, job_id: str) -> List[Dict[str, Any]]:
        """The job's merged event timeline (parent + harvested children).

        Empty when tracing is disabled and no child telemetry was
        harvested; the HTTP front end serves this on
        ``/jobs/<id>/timeline``.
        """
        return self.telemetry.timeline(job_id, get_trace().events())

    def job_chrome_trace(self, job_id: str) -> Dict[str, Any]:
        """One Chrome trace for the job: service + child pid lanes."""
        return self.telemetry.chrome_trace(job_id, get_trace().events())

    def _flight_dump(self, job_id: str, tag: str, **extra: Any) -> None:
        """Best-effort post-mortem bundle for a quarantine/crash-loop."""
        segments = self.telemetry.segments(job_id)
        path = self.flight_recorder.dump(
            job_id,
            tag,
            metrics=get_metrics().snapshot(),
            events=get_trace().events(),
            extra={
                "segments": [
                    {
                        "attempt": segment["attempt"],
                        "pid": segment["pid"],
                        "events": [
                            event.to_dict() for event in segment["events"]
                        ],
                        "metrics": segment["metrics"],
                    }
                    for segment in segments
                ],
                **extra,
            },
        )
        if path is not None:
            get_logger().info("flightrec.dumped", job=job_id, path=path)

    def _flight_dump_crash_loop(self) -> None:
        self._flight_dump("service", "crash-loop")
