"""Graceful degradation ladder for resource allocation.

When the exact strategy of :mod:`repro.core.strategy` runs out of its
:class:`~repro.resilience.budget.Budget` (wall-clock deadline, state
budget or throughput-check budget) or explodes the state space, the
right response is usually not a hard failure: the paper's strategy has
cheaper configurations (no rebinding pass, no slice refinement, a wider
early-stop band, a capped search) that find *sound but less efficient*
allocations, and in the limit the conservative TDMA model of reference
[4] (:mod:`repro.baselines.tdma_inflation`) gives a throughput bound
that never over-promises, at the cost of claiming whole remaining time
wheels.

:func:`resilient_allocate` walks one such ladder, :data:`DEFAULT_LADDER`,
retrying with progressively cheaper knobs and falling back to the TDMA
baseline last.
Every accepted rung yields a *valid* allocation — its guaranteed
throughput meets the application's constraint — only resource
efficiency degrades.  Genuine infeasibility (binding impossible,
constraint unreachable even with full wheels) is never masked: it
re-raises immediately instead of descending the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.appmodel.application import ApplicationGraph
from repro.appmodel.binding import Allocation, SchedulingFunction
from repro.appmodel.binding_aware import build_binding_aware_graph
from repro.arch.architecture import ArchitectureGraph
from repro.baselines.tdma_inflation import tdma_inflated_throughput
from repro.core.binding import bind_application
from repro.core.constraints import reservation_for
from repro.core.strategy import AllocationError, ResourceAllocator
from repro.obs import get_metrics
from repro.obs.trace import get_trace
from repro.resilience.budget import Budget, BudgetExceededError
from repro.throughput.state_space import StateSpaceExplosionError


@dataclass(frozen=True)
class Rung:
    """One configuration of the degradation ladder.

    ``None`` fields inherit the caller's allocator configuration; set
    fields override it for this rung only.
    """

    name: str
    optimise_binding: Optional[bool] = None
    refine_slices: Optional[bool] = None
    relaxation: Optional[float] = None
    max_states: Optional[int] = None

    def configure(self, allocator: ResourceAllocator) -> ResourceAllocator:
        """The caller's allocator with this rung's overrides applied."""
        overrides = {}
        if self.optimise_binding is not None:
            overrides["optimise_binding"] = self.optimise_binding
        if self.refine_slices is not None:
            overrides["refine_slices"] = self.refine_slices
        if self.relaxation is not None:
            overrides["relaxation"] = self.relaxation
        if self.max_states is not None:
            overrides["max_states"] = min(self.max_states, allocator.max_states)
        return replace(allocator, **overrides) if overrides else allocator


#: The default ladder: exact strategy, then the strategy without its two
#: optimisation passes and a wide early-stop band, then the same with a
#: hard state cap, and finally the conservative TDMA-inflation baseline,
#: which :func:`resilient_allocate` runs as the last rung, budget-exempt
#: and without knobs: it is the sound floor the ladder guarantees.
DEFAULT_LADDER: Tuple[Rung, ...] = (
    Rung(name="exact"),
    Rung(
        name="no-refinement",
        optimise_binding=False,
        refine_slices=False,
        relaxation=0.5,
    ),
    Rung(
        name="capped-search",
        optimise_binding=False,
        refine_slices=False,
        relaxation=0.5,
        max_states=20000,
    ),
    Rung(name="tdma-baseline"),
)


@dataclass
class ResilientResult:
    """An allocation plus the ladder position that produced it."""

    allocation: Allocation
    rung: str
    #: (rung name, reason) for every rung that was tried and gave up
    attempts: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.attempts)


def tdma_baseline_allocate(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    allocator: ResourceAllocator,
) -> Allocation:
    """Conservative fallback allocation via the [4] TDMA model.

    Binds greedily (no rebinding pass), hands every used tile its whole
    remaining time wheel and verifies the constraint under worst-case
    TDMA inflation — a single throughput check whose result is a sound
    lower bound on what the slices actually deliver (§8.2).  No
    static-order schedules are constructed: the inflated model assumes
    nothing about intra-tile ordering, so any work-conserving order is
    safe.  Raises :class:`AllocationError` when even this floor cannot
    meet the constraint (genuine infeasibility).
    """
    try:
        binding = bind_application(
            application,
            architecture,
            allocator.weights,
            optimise=False,
        )
        bag = build_binding_aware_graph(application, architecture, binding)
        slices = {
            name: architecture.tile(name).wheel_remaining
            for name in binding.used_tiles()
        }
        if any(value < 1 for value in slices.values()):
            raise AllocationError(
                f"no valid allocation for {application.name!r}: a used "
                "tile has no remaining time wheel"
            )
        result = tdma_inflated_throughput(
            bag, slices, max_states=allocator.max_states
        )
        achieved = result.of(application.output_actor)
    except AllocationError:
        raise
    except (RuntimeError, ValueError) as error:
        raise AllocationError(
            f"no valid allocation for {application.name!r}: {error}"
        ) from error
    if achieved < application.throughput_constraint:
        raise AllocationError(
            f"no valid allocation for {application.name!r}: TDMA "
            f"baseline reaches only {achieved} < constraint "
            f"{application.throughput_constraint}"
        )
    scheduling = SchedulingFunction()
    for name, size in slices.items():
        scheduling.set_slice(name, size)
    reservation = reservation_for(application, architecture, binding, slices)
    return Allocation(
        application=application,
        binding=binding,
        scheduling=scheduling,
        reservation=reservation,
        achieved_throughput=achieved,
        throughput_checks=1,
    )


def _degradable(error: AllocationError) -> bool:
    """Only search-resource failures may descend the ladder.

    A state-space explosion means the *analysis* gave up, not that the
    allocation is impossible — a cheaper rung may still succeed.  Every
    other cause (binding infeasible, deadlock, constraint unreachable)
    is a genuine negative answer and must surface unchanged.
    """
    return isinstance(error.__cause__, StateSpaceExplosionError)


def resilient_allocate(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    allocator: Optional[ResourceAllocator] = None,
    budget: Optional[Budget] = None,
    preflight: bool = True,
) -> ResilientResult:
    """Allocate ``application``, degrading through :data:`DEFAULT_LADDER`.

    With ``preflight=True`` (default) the static analyser
    (:func:`repro.analysis.preflight_check`) runs first; an
    error-severity finding proves no allocation can exist on any rung,
    so the ladder is not entered at all and a *non-degradable*
    :class:`AllocationError` is raised immediately.  Callers that
    already gated (like the flow) pass ``preflight=False``.

    Each non-baseline rung runs the full strategy with that rung's
    knobs under the shared ``budget``.  A rung is abandoned when it
    exhausts the budget or explodes the state space; once the deadline
    itself has expired, intermediate rungs are skipped and the ladder
    jumps straight to the budget-exempt baseline rung.  Non-degradable
    :class:`AllocationError` causes and unexpected exceptions propagate
    immediately.  The ladder ends with the baseline rung, so it only
    fails with the baseline's :class:`AllocationError` (even the whole
    remaining wheels miss the constraint).

    A *cancelled* budget (:meth:`Budget.cancel`, ``reason="cancelled"``)
    is different from an exhausted one: the caller asked for the work
    to stop, so the error is re-raised — the ladder never descends to
    the baseline over a cancellation.
    """
    if preflight:
        from repro.analysis.engine import preflight_check

        gate = preflight_check(application, architecture)
        if gate.has_errors:
            # deliberately no StateSpaceExplosionError cause: the gate's
            # verdict is a genuine negative answer, so _degradable() is
            # False and no caller descends the ladder over it
            raise AllocationError(
                f"statically infeasible allocation for "
                f"{application.name!r}: {gate.summary()}"
            )
    if allocator is None:
        allocator = ResourceAllocator()
    if budget is not None:
        budget.start()

    obs = get_metrics()
    tr = get_trace()
    attempts: List[Tuple[str, str]] = []

    def accept(
        allocation: Allocation, rung: Rung, position: int
    ) -> ResilientResult:
        if obs.enabled and attempts:
            obs.counter("resilience.degraded")
            obs.gauge("resilience.rung", position)
        if tr.enabled:
            tr.instant(
                "resilience",
                "rung.accepted",
                application=application.name,
                rung=rung.name,
                position=position,
                degraded=bool(attempts),
            )
        return ResilientResult(
            allocation=allocation, rung=rung.name, attempts=attempts
        )

    *strategies, baseline = DEFAULT_LADDER
    for position, rung in enumerate(strategies):
        if budget is not None and budget.expired():
            attempts.append((rung.name, "deadline already expired"))
            if tr.enabled:
                tr.instant(
                    "resilience",
                    "rung.skipped",
                    application=application.name,
                    rung=rung.name,
                    position=position,
                )
            continue
        try:
            allocation = rung.configure(allocator).allocate(
                application, architecture, budget=budget
            )
        except BudgetExceededError as error:
            if error.reason == "cancelled":
                # a cooperative cancellation (e.g. service drain) wants
                # the work parked, not finished badly: surface the error
                # instead of descending to the budget-exempt baseline
                raise
            attempts.append((rung.name, f"budget exhausted ({error.reason})"))
            if obs.enabled:
                obs.counter("resilience.rung_budget_exhausted")
            if tr.enabled:
                tr.instant(
                    "resilience",
                    "rung.abandoned",
                    application=application.name,
                    rung=rung.name,
                    position=position,
                    reason=f"budget exhausted ({error.reason})",
                )
            continue
        except AllocationError as error:
            if not _degradable(error):
                raise
            attempts.append((rung.name, str(error)))
            if obs.enabled:
                obs.counter("resilience.rung_exploded")
            if tr.enabled:
                tr.instant(
                    "resilience",
                    "rung.abandoned",
                    application=application.name,
                    rung=rung.name,
                    position=position,
                    reason="state-space explosion",
                )
            continue
        return accept(allocation, rung, position)
    # the budget-exempt floor: it must be allowed to finish
    return accept(
        tdma_baseline_allocate(application, architecture, allocator),
        baseline,
        len(strategies),
    )
