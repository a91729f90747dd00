"""TDMA time-slice allocation (paper Section 9.3).

Phase 1 binary-searches a single slice size shared by all used tiles
(capped per tile at the remaining wheel), between 1 and the largest
remaining wheel, until the constrained throughput of the binding-aware
graph meets the constraint — stopping early once it is within 10% above
it.  It fails when even the entire remaining wheels are insufficient.

Phase 2 exploits imbalanced load: per tile, a second binary search
shrinks the slice between ``floor(l_p(t) * omega_t / max_t' l_p(t'))``
and the phase-1 result, keeping the other tiles fixed, until no slice
can be reduced without violating the throughput constraint.

Every evaluation is one throughput check; the count is reported
because the paper uses it (§10: 16.1 average checks per allocation, 34
for the multimedia system).  A check is one constrained state-space
exploration, unless some tile's slice is below that tile's floor
(:class:`SliceFloors`): the utilisation bound then already fails the
probe, and it is decided without exploring.  The first, full-wheel
probe is always explored, because the error reports its rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Optional

from repro.appmodel.binding_aware import BindingAwareGraph
from repro.appmodel.binding import SchedulingFunction
from repro.obs import get_metrics
from repro.resilience.budget import Budget, BudgetExceededError
from repro.throughput.constrained import (
    StaticOrderSchedule,
    constrained_throughput,
)
from repro.throughput.state_space import DEFAULT_MAX_STATES


class SliceAllocationError(RuntimeError):
    """Raised when no slice allocation can meet the throughput constraint."""


@dataclass
class SliceAllocationResult:
    """Slices found, the throughput they achieve, and the search cost."""

    slices: Dict[str, int]
    achieved_throughput: Fraction
    throughput_checks: int
    #: periodic-phase certificate of the constrained exploration that
    #: produced ``achieved_throughput`` (the accepted evaluation, not
    #: necessarily the last one the binary search tried)
    certificate: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class SliceFloors:
    """Per used tile of a binding-aware graph, the least useful slice.

    One iteration puts ``sum_{a on t} gamma(a) * tau(a)`` of work on
    tile ``t``, and a slice ``omega`` of wheel ``w`` supplies at most
    ``omega / w`` of every time unit, so the output rate is at most
    ``gamma(out) * omega / (w * sum gamma*tau)`` (THEORY §4).  That
    bound reaches ``lambda`` exactly when ``omega`` is at least the
    tile's floor ``ceil(lambda * w * sum gamma*tau / gamma(out))``; a
    probe with a slice below its tile's floor cannot meet the
    constraint.
    """

    #: ``sum_{a on t} gamma(a) * tau(a)`` per used tile
    work: Dict[str, int]
    #: ``ceil(lambda * w_t * work_t / gamma(out))`` per used tile
    floors: Dict[str, int]

    @classmethod
    def of(cls, bag: BindingAwareGraph) -> "SliceFloors":
        application = bag.application
        gamma = application.gamma
        constraint = Fraction(application.throughput_constraint)
        divisor = constraint.denominator * gamma[application.output_actor]
        work = {name: 0 for name in bag.binding.used_tiles()}
        for actor, tile_name in bag.binding.assignment.items():
            tau = bag.graph.actor(actor).execution_time
            work[tile_name] += gamma[actor] * tau
        floors = {
            name: -(
                -constraint.numerator
                * bag.architecture.tile(name).wheel
                * amount
                // divisor
            )
            for name, amount in work.items()
        }
        return cls(work, floors)

    def rejects(self, slices: Dict[str, int]) -> bool:
        """Whether some tile's slice in ``slices`` is below its floor."""
        return any(slices[name] < floor for name, floor in self.floors.items())


def allocate_time_slices(
    bag: BindingAwareGraph,
    schedules: Dict[str, StaticOrderSchedule],
    relaxation: float = 0.1,
    refine: bool = True,
    max_states: int = DEFAULT_MAX_STATES,
    budget: Optional[Budget] = None,
) -> SliceAllocationResult:
    """Find minimal TDMA slices meeting the application's constraint.

    ``relaxation`` is the paper's 10% early-stop band; ``refine=False``
    skips phase 2 (used by the ablation benchmarks).  Raises
    :class:`SliceAllocationError` when the constraint is unreachable.
    A :class:`Budget` charges one throughput check per evaluation (its
    ``max_throughput_checks`` limit) and bounds the underlying
    constrained explorations; on a breach the raised
    :class:`~repro.resilience.budget.BudgetExceededError` carries the
    best slices found so far as partial progress.
    """
    application = bag.application
    constraint = application.throughput_constraint
    output_actor = application.output_actor
    tile_names = bag.binding.used_tiles()
    remaining = {
        name: bag.architecture.tile(name).wheel_remaining for name in tile_names
    }
    if any(value < 1 for value in remaining.values()):
        raise SliceAllocationError(
            "a used tile has no remaining time wheel"
        )

    checks = 0
    scheduling = SchedulingFunction()
    for name, schedule in schedules.items():
        scheduling.set_schedule(name, schedule)

    obs = get_metrics()
    floors = SliceFloors.of(bag)

    # certificate of the most recent evaluation (index 0), copied into
    # best_certificate whenever that evaluation's slices are accepted
    last_certificate: list = [None]

    def charge_check() -> None:
        nonlocal checks
        checks += 1
        obs.counter("slices.throughput_checks")
        if budget is not None:
            budget.charge_check()

    def explore(slices: Dict[str, int]) -> Fraction:
        """One throughput check: the probe's constrained rate."""
        charge_check()
        for name in tile_names:
            scheduling.set_slice(name, slices[name])
        constraints = bag.tile_constraints(scheduling)
        try:
            result = constrained_throughput(
                bag.graph, constraints, max_states=max_states, budget=budget
            )
        except BudgetExceededError as error:
            error.partial.setdefault("throughput_checks", checks)
            raise
        last_certificate[0] = result.certificate
        return result.of(output_actor)

    def evaluate(slices: Dict[str, int]) -> Optional[Fraction]:
        """One throughput check: the probe's rate, or None when a
        slice below its floor fails the probe unexplored."""
        if floors.rejects(slices):
            charge_check()
            obs.counter("slices.floor_rejections")
            return None
        return explore(slices)

    def shared(f: int) -> Dict[str, int]:
        return {name: min(f, remaining[name]) for name in tile_names}

    # -- phase 1: shared slice size ------------------------------------
    high = max(remaining.values())
    slices = shared(high)
    achieved = explore(slices)
    if achieved < constraint:
        raise SliceAllocationError(
            f"application {application.name!r}: even full remaining "
            f"wheels reach only {achieved} < constraint {constraint}"
        )
    best_f = high
    best_throughput = achieved
    best_certificate = last_certificate[0]
    try:
        low = 1
        while low < high:
            mid = (low + high) // 2
            throughput_mid = evaluate(shared(mid))
            if throughput_mid is not None and throughput_mid >= constraint:
                best_f, best_throughput = mid, throughput_mid
                best_certificate = last_certificate[0]
                high = mid
                if constraint > 0 and throughput_mid <= (1 + relaxation) * constraint:
                    break
            else:
                low = mid + 1
        slices = shared(best_f)
        achieved = best_throughput
        phase1_checks = checks
        if obs.enabled:
            obs.counter("slices.phase1_checks", phase1_checks)
            obs.gauge("slices.shared_slice", best_f)

        # -- phase 2: per-tile refinement ------------------------------
        if refine and len(tile_names) > 0:
            # l_p(t) / max l_p = work(t) / max work: the total work cancels
            work = floors.work
            max_work = max(work[name] for name in tile_names)
            for name in tile_names:
                upper = slices[name]
                if max_work > 0:
                    lower = work[name] * upper // max_work
                else:
                    lower = 1
                lower = max(lower, 1)
                low_t, high_t = lower, upper
                while low_t < high_t:
                    mid = (low_t + high_t) // 2
                    candidate = dict(slices)
                    candidate[name] = mid
                    throughput_mid = evaluate(candidate)
                    if (
                        throughput_mid is not None
                        and throughput_mid >= constraint
                    ):
                        slices = candidate
                        achieved = throughput_mid
                        best_certificate = last_certificate[0]
                        high_t = mid
                    else:
                        low_t = mid + 1
    except BudgetExceededError as error:
        # the last confirmed-feasible slices are genuine partial progress
        error.partial.setdefault("feasible_slices", dict(shared(best_f)))
        error.partial.setdefault("achieved_throughput", str(best_throughput))
        raise

    if obs.enabled:
        obs.counter("slices.phase2_checks", checks - phase1_checks)
    return SliceAllocationResult(
        slices=slices,
        achieved_throughput=achieved,
        throughput_checks=checks,
        certificate=best_certificate,
    )
