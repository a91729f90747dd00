"""Cooperative resource budgets for the exploration engines.

The state-space engines at the heart of the allocation strategy can
blow up combinatorially on pathological inputs (the very motivation for
avoiding the SDF-to-HSDF conversion).  A :class:`Budget` bounds one run
of the strategy — or a whole multi-application flow — along three axes:

* **wall-clock deadline** (seconds),
* **state budget** (states explored, summed over every engine call),
* **throughput-check budget** (constrained explorations the slice
  search may spend).

The budget is *cooperative*: every exploration loop calls
:meth:`Budget.tick` (or :meth:`Budget.checkpoint` at coarser
boundaries) and a breach raises :class:`BudgetExceededError`, a typed
error carrying the breach reason and whatever partial progress the
raiser attached.  Passing ``budget=None`` (the default everywhere)
keeps the hot loops at a single ``is not None`` test per iteration —
guarded by ``tests/test_performance_guards.py`` to stay under 5% of
engine run time.

Wall-clock reads are rate-limited: ``tick`` consults the clock only
every ``check_interval`` charged states, so a deadline adds two integer
operations per state in the common case.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Optional

from repro.obs.trace import get_trace


class BudgetExceededError(RuntimeError):
    """A cooperative budget was exhausted mid-exploration.

    ``reason`` is one of ``"deadline"``, ``"states"``,
    ``"throughput-checks"`` or ``"cancelled"`` (a cooperative
    :meth:`Budget.cancel`, e.g. a draining service asking its workers
    to stop); ``partial`` carries whatever progress the
    raising engine had made (states explored, best slices found, ...)
    so callers can degrade gracefully instead of starting from nothing.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str,
        elapsed: Optional[float] = None,
        states: Optional[int] = None,
        checks: Optional[int] = None,
        partial: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.elapsed = elapsed
        self.states = states
        self.checks = checks
        self.partial: Dict[str, Any] = dict(partial or {})


class Budget:
    """A shared, cooperative budget for one run (or one whole flow).

    All limits are optional; an unlimited budget never raises.  The
    wall clock starts at the first :meth:`start` (or lazily at the
    first check); one ``Budget`` instance threaded through several
    engine calls charges them against the *same* limits.
    """

    __slots__ = (
        "deadline",
        "max_states",
        "max_throughput_checks",
        "check_interval",
        "states_charged",
        "checks_charged",
        "_started",
        "_since_clock",
        "_cancelled",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_states: Optional[int] = None,
        max_throughput_checks: Optional[int] = None,
        check_interval: int = 1024,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0 seconds")
        if max_states is not None and max_states < 0:
            raise ValueError("max_states must be >= 0")
        if max_throughput_checks is not None and max_throughput_checks < 0:
            raise ValueError("max_throughput_checks must be >= 0")
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.deadline = deadline
        self.max_states = max_states
        self.max_throughput_checks = max_throughput_checks
        self.check_interval = check_interval
        self.states_charged = 0
        self.checks_charged = 0
        self._started: Optional[float] = None
        self._since_clock = 0
        self._cancelled = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "Budget":
        """Stamp the wall-clock start (idempotent)."""
        if self._started is None:
            self._started = perf_counter()
        return self

    @property
    def started(self) -> bool:
        return self._started is not None

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0 when never started)."""
        if self._started is None:
            return 0.0
        return perf_counter() - self._started

    def remaining_seconds(self) -> Optional[float]:
        """Seconds left before the deadline (None when unlimited)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.elapsed())

    def expired(self) -> bool:
        """True when the wall-clock deadline has passed (non-raising)."""
        if self.deadline is None:
            return False
        self.start()
        return self.elapsed() > self.deadline

    def cancel(self) -> None:
        """Cooperatively cancel whatever this budget is metering.

        Thread-safe by construction (a single flag write).  The engine
        holding the budget observes the flag at its next
        :meth:`checkpoint` — at most ``check_interval`` states later —
        and unwinds with ``BudgetExceededError(reason="cancelled")``,
        attaching its exploration frontier exactly as it would for a
        deadline breach, so the interrupted search stays resumable.
        """
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    # -- charging ------------------------------------------------------
    def tick(self, states: int = 1) -> None:
        """Charge ``states`` explored states; raise on any breach.

        Designed for hot loops: the wall clock is consulted only every
        ``check_interval`` charged states.
        """
        self.states_charged += states
        if (
            self.max_states is not None
            and self.states_charged > self.max_states
        ):
            self._trace_exhausted("states")
            raise BudgetExceededError(
                f"state budget of {self.max_states} states exhausted",
                reason="states",
                elapsed=self.elapsed(),
                states=self.states_charged,
                checks=self.checks_charged,
            )
        if self.deadline is None and not self._cancelled:
            return
        self._since_clock += states
        if self._since_clock >= self.check_interval:
            self._since_clock = 0
            self.checkpoint()

    def usage(self) -> Dict[str, Any]:
        """What this budget has charged so far, as checkpoints record it."""
        return {
            "states_charged": self.states_charged,
            "checks_charged": self.checks_charged,
            "elapsed": self.elapsed(),
        }

    def checkpoint(self) -> None:
        """Immediate cancellation + wall-clock check (coarse boundaries)."""
        if self._cancelled:
            self._trace_exhausted("cancelled")
            raise BudgetExceededError(
                "budget cancelled",
                reason="cancelled",
                elapsed=self.elapsed(),
                states=self.states_charged,
                checks=self.checks_charged,
            )
        if self.deadline is None:
            return
        self.start()
        elapsed = self.elapsed()
        if elapsed > self.deadline:
            self._trace_exhausted("deadline")
            raise BudgetExceededError(
                f"deadline of {self.deadline:g}s exceeded "
                f"({elapsed:.3f}s elapsed)",
                reason="deadline",
                elapsed=elapsed,
                states=self.states_charged,
                checks=self.checks_charged,
            )

    def charge_check(self, checks: int = 1) -> None:
        """Charge throughput checks (slice-search evaluations)."""
        self.checks_charged += checks
        if (
            self.max_throughput_checks is not None
            and self.checks_charged > self.max_throughput_checks
        ):
            self._trace_exhausted("throughput-checks")
            raise BudgetExceededError(
                f"throughput-check budget of {self.max_throughput_checks} "
                "exhausted",
                reason="throughput-checks",
                elapsed=self.elapsed(),
                states=self.states_charged,
                checks=self.checks_charged,
            )
        self.checkpoint()

    def _trace_exhausted(self, reason: str) -> None:
        """Record the breach in the active trace (off the hot path)."""
        tr = get_trace()
        if tr.enabled:
            tr.instant(
                "resilience",
                "budget.exhausted",
                reason=reason,
                states=self.states_charged,
                checks=self.checks_charged,
                elapsed_seconds=self.elapsed(),
            )

    def __repr__(self) -> str:
        return (
            f"Budget(deadline={self.deadline}, max_states={self.max_states}, "
            f"max_throughput_checks={self.max_throughput_checks}, "
            f"states_charged={self.states_charged}, "
            f"checks_charged={self.checks_charged})"
        )
