"""Child-side entry point of the allocation sandbox.

``python -m repro.service.sandbox_child <request.json>`` runs exactly
one allocation attempt inside OS-level containment:

1. **Rlimits first.**  ``resource.setrlimit`` caps the address space
   (``limits.memory_mb``) and CPU time (``limits.cpu_seconds``) before
   any engine code runs.  A blown address space surfaces as
   ``MemoryError`` and exits :data:`~repro.service.sandbox.EXIT_OOM`;
   the CPU soft limit delivers ``SIGXCPU``, which a handler turns into
   :data:`~repro.service.sandbox.EXIT_CPU` (the hard limit, two
   seconds later, would SIGKILL a handler that somehow hangs).
2. **Heartbeats.**  A daemon thread appends one JSON line per interval
   to the beat file — beat counter, ``ru_maxrss`` and the engine's
   ``states_charged`` — so the parent watchdog can tell a working
   child from a stalled one and track its memory without /proc races.
3. **The attempt.**  :func:`run_attempt`, the very function a
   thread-isolated worker calls: ``resilient_allocate`` under a
   cooperative budget, bundle building and independent certification.
   Typed negative answers (infeasibility, budget exhaustion, malformed
   input, refuted certification) are *results*, written to the outcome
   file with ``ok: false`` and exit status 0 — only genuine crashes and
   limit breaches end nonzero.

The request spec holds the attempt spec :func:`run_attempt` reads
(``request`` and ``backend``) plus the sandbox's own fields:
``budget``, ``limits``, the heartbeat, result and telemetry paths and
the heartbeat interval.  The spec is read and the outcome
file written through :mod:`repro.durable`, so the parent never reads a
torn result and an unreadable spec (missing, torn, not UTF-8, not an
object) exits :data:`~repro.exitcodes.EXIT_SPEC`; everything else
about the protocol is documented in :mod:`repro.service.sandbox`.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from typing import Any, Dict, Optional

from repro.durable import read_json, write_atomic
from repro.resilience.budget import Budget


def _apply_rlimits(limits: Dict[str, Any]) -> None:
    try:
        import resource
    except ImportError:  # non-POSIX: run uncapped rather than not at all
        return
    memory_mb = limits.get("memory_mb")
    if memory_mb:
        space = int(memory_mb) * 1024 * 1024
        try:
            resource.setrlimit(resource.RLIMIT_AS, (space, space))
        except (ValueError, OSError):
            pass
    cpu_seconds = limits.get("cpu_seconds")
    if cpu_seconds:
        soft = max(1, int(cpu_seconds))
        try:
            resource.setrlimit(resource.RLIMIT_CPU, (soft, soft + 2))
        except (ValueError, OSError):
            pass

        def _cpu_exceeded(signum: int, frame: object) -> None:
            from repro.service.sandbox import EXIT_CPU

            os._exit(EXIT_CPU)

        signal.signal(signal.SIGXCPU, _cpu_exceeded)


def _status_kb(field: str) -> Optional[int]:
    """A ``kB`` field of ``/proc/self/status`` (Linux); None elsewhere."""
    prefix = field.encode() + b":"
    try:
        with open("/proc/self/status", "rb") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


#: engine states charged between two reads of the address space
MEMORY_CHECK_STATES = 256


class _MemoryCappedBudget(Budget):
    """A budget that exits with the OOM code at an engine state once the
    address space comes within an eighth of the ``memory_mb`` cap.

    CPython cannot be trusted to unwind a ``MemoryError`` once small
    allocations have filled the capped address space: it may lose the
    exception (a ``SystemError`` exit, read as a crash) or spin in its
    unwinder until the watchdog reads a stall.  Stopping while there is
    still room keeps an attempt that outgrows its cap an ``oom``.
    """

    __slots__ = ("_ceiling_kb", "_since_read")

    def __init__(self, memory_mb: int, **limits: Any) -> None:
        super().__init__(**limits)
        self._ceiling_kb = memory_mb * 1024 * 7 // 8
        self._since_read = 0

    def tick(self, states: int = 1) -> None:
        super().tick(states)
        self._since_read += states
        if self._since_read >= MEMORY_CHECK_STATES:
            self._since_read = 0
            size = _status_kb("VmSize")
            if size is not None and size > self._ceiling_kb:
                from repro.service.sandbox import EXIT_OOM

                os._exit(EXIT_OOM)


def _peak_rss_kb() -> Optional[int]:
    """This child's own peak resident set.

    ``ru_maxrss`` alone will not do on Linux: it keeps the high-water
    mark of the image ``exec`` replaced, so a child spawned by a large
    daemon would report the daemon's peak (and the watchdog would kill
    it as over its memory cap).  ``VmHWM`` is the child's own.
    """
    peak = _status_kb("VmHWM")
    if peak is not None:
        return peak
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):
        return None
    # ru_maxrss is KB on Linux, bytes on macOS
    return rss // 1024 if sys.platform == "darwin" else rss


#: telemetry sidecar refresh period, in heartbeats — serialising the
#: metrics snapshot + trace ring is heavier than one beat line, so the
#: spool updates every Nth beat (the parent also gets a final spool
#: after the attempt, whatever the phase)
TELEMETRY_EVERY_BEATS = 4

#: child-side trace ring size: bounded well below the parent's default
#: so the periodic sidecar serialisation stays cheap under rlimits
CHILD_TRACE_CAPACITY = 4096


def _heartbeat_loop(
    path: str,
    interval: float,
    budget: Any,
    stop: threading.Event,
    beating: threading.Event,
    spool_telemetry: Optional[Any] = None,
) -> None:
    """Append one beat line per ``interval`` until ``stop``; set
    ``beating`` once the first line is written (or the loop dies)."""
    beat = 0
    try:
        while True:
            line = json.dumps(
                {
                    "beat": beat,
                    "rss_kb": _peak_rss_kb(),
                    "states": getattr(budget, "states_charged", 0),
                }
            )
            try:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
                    handle.flush()
            except OSError:
                pass
            beating.set()
            if spool_telemetry is not None and beat % TELEMETRY_EVERY_BEATS == 0:
                try:
                    spool_telemetry()
                except Exception:
                    # telemetry is best-effort; the beat line above is the
                    # liveness signal and must keep flowing regardless
                    pass
            beat += 1
            if stop.wait(interval):
                return
    finally:
        beating.set()  # a dead beater must not hold the attempt back


def run_attempt(spec: Dict[str, Any], budget: Any) -> Dict[str, Any]:
    """The service's one allocation pipeline; returns the outcome payload.

    ``spec`` holds ``request`` and ``backend``.
    Typed negative answers come back with ``ok: false``; anything else
    propagates.  Thread-isolated workers call this directly.
    """
    from repro.appmodel.serialization import (
        application_from_dict,
        bundle_to_dict,
    )
    from repro.arch.serialization import architecture_from_dict
    from repro.core.strategy import AllocationError, ResourceAllocator
    from repro.resilience.budget import BudgetExceededError
    from repro.resilience.policy import resilient_allocate
    from repro.sdf.serialization import SerializationError
    from repro.verify.allocation import certify_allocation

    try:
        application = application_from_dict(spec["request"]["application"])
        architecture = architecture_from_dict(
            spec["request"]["architecture"]
        )
        result = resilient_allocate(
            application,
            architecture,
            allocator=ResourceAllocator(backend=spec["backend"]),
            budget=budget,
            preflight=True,
        )
        bundle = bundle_to_dict(
            architecture, [result.allocation], rungs=[result.rung]
        )
        report = certify_allocation(bundle)
        if not report.certified:
            reasons = [
                reason
                for refuted in report.refuted
                for reason in refuted.reasons
            ]
            return {
                "ok": False,
                "error": "refuted",
                "message": "; ".join(reasons) or "unknown refutation",
            }
        return {
            "ok": True,
            "bundle": bundle,
            "rung": result.rung,
            "verdict": report.verdicts[0].verdict if report.verdicts else None,
        }
    except BudgetExceededError as error:
        return {
            "ok": False,
            "error": "budget",
            "reason": error.reason,
            "message": str(error),
        }
    except AllocationError as error:
        return {"ok": False, "error": "allocation", "message": str(error)}
    except SerializationError as error:
        return {
            "ok": False,
            "error": "serialization",
            "message": str(error),
        }


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    from repro.service.sandbox import EXIT_OOM, EXIT_SPEC

    if len(argv) != 1:
        return EXIT_SPEC
    try:
        spec = read_json(argv[0], ValueError, "request spec")
        if not isinstance(spec, dict):
            return EXIT_SPEC
        result_path = spec["result_path"]
        heartbeat_path = spec["heartbeat_path"]
    except (ValueError, KeyError):
        return EXIT_SPEC

    _apply_rlimits(spec.get("limits") or {})

    # from here on every allocation can blow the address-space cap —
    # even an import or a thread start — so one guard covers it all:
    # under memory pressure the outcome write itself may fail, so exit
    # through the dedicated code and let the parent classify it
    try:
        budget_spec = spec.get("budget") or {}
        bounds = {
            "deadline": budget_spec.get("deadline"),
            "max_states": budget_spec.get("max_states"),
        }
        memory_mb = (spec.get("limits") or {}).get("memory_mb")
        budget = (
            _MemoryCappedBudget(int(memory_mb), **bounds)
            if memory_mb
            else Budget(**bounds)
        )

        # Child-local observability: the engines are permanently
        # instrumented against the process-global registries, so
        # enabling fresh ones here captures the attempt's counters,
        # durations and trace events — which would otherwise die with
        # this process.  The heartbeat thread spools them to the
        # telemetry sidecar for the parent to harvest.
        spool_telemetry = None
        telemetry_path = spec.get("telemetry_path")
        if telemetry_path:
            from repro.obs.metrics import Metrics, enable
            from repro.obs.telemetry import capture_clock, write_telemetry
            from repro.obs.trace import TraceBuffer, enable_trace

            child_metrics = enable(Metrics())
            child_trace = enable_trace(
                TraceBuffer(capacity=CHILD_TRACE_CAPACITY)
            )
            clock = capture_clock()

            def spool_telemetry() -> None:
                write_telemetry(
                    telemetry_path, child_metrics, child_trace, clock=clock
                )

        stop = threading.Event()
        beating = threading.Event()
        beater = threading.Thread(
            target=_heartbeat_loop,
            args=(
                heartbeat_path,
                float(spec.get("heartbeat_interval", 0.25)),
                budget,
                stop,
                beating,
                spool_telemetry,
            ),
            name="sandbox-heartbeat",
            daemon=True,
        )
        try:
            beater.start()
        except RuntimeError:
            # pthread_create mmaps an ~8 MB stack; under a tight
            # RLIMIT_AS that fails before any engine code runs — the
            # same containment outcome as a MemoryError
            os._exit(EXIT_OOM)
        # the first beat lands before the attempt starts, so even an
        # attempt of a few milliseconds leaves one for the parent
        beating.wait()
        try:
            payload = run_attempt(spec, budget)
        finally:
            stop.set()
        # the beater may be mid-spool with an older snapshot; the last
        # rename wins, so the final spool below must start after it ends
        beater.join()
        if spool_telemetry is not None:
            try:
                spool_telemetry()  # final snapshot: the complete attempt
            except Exception:
                pass
        write_atomic(result_path, json.dumps(payload, indent=2))
    except MemoryError:
        os._exit(EXIT_OOM)
    return 0


if __name__ == "__main__":
    sys.exit(main())
