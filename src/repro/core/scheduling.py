"""Static-order schedule construction (paper Section 9.2).

A list scheduler executes the binding-aware SDFG assuming half of every
tile's remaining time wheel is allocated to the application.  A bound
actor that becomes enabled does not fire immediately; it is appended to
the ready list of its tile.  Whenever a tile is idle, the first actor of
its ready list starts firing and is appended to the tile's schedule.
Connection and alignment actors execute self-timed.  The execution runs
until a recurrent state, which yields a finite transient prefix plus a
periodic firing sequence per tile; the sequences are then compacted
(minimal repeating unit, transient absorbed into rotations of the
period — e.g. the paper's 17-entry schedule for ``t1`` collapses to
``(a1 a2)*``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.appmodel.binding_aware import BindingAwareGraph
from repro.resilience.budget import Budget
from repro.resilience.faults import fault_point
from repro.throughput.constrained import StaticOrderSchedule
from repro.throughput.kernel import DEFAULT_MAX_STATES, Kernel, Tile


class SchedulingError(RuntimeError):
    """Raised when no periodic schedule exists (execution deadlocks)."""


def minimal_repeating_unit(sequence: Sequence[str]) -> List[str]:
    """The shortest unit ``u`` with ``sequence == u * k``."""
    n = len(sequence)
    sequence = list(sequence)
    for length in range(1, n + 1):
        if n % length:
            continue
        unit = sequence[:length]
        if unit * (n // length) == sequence:
            return unit
    return sequence


def compact_schedule(
    transient: Sequence[str], periodic: Sequence[str]
) -> StaticOrderSchedule:
    """Remove recurrent occurrences of the same scheduling sequence.

    The periodic part is reduced to its minimal repeating unit; then the
    transient prefix is absorbed from the right by rotating the periodic
    part (``u x (x u')* == u (x u' x)*`` when the transient ends in the
    period's last entry).
    """
    if not periodic:
        raise SchedulingError("periodic schedule part is empty")
    unit = minimal_repeating_unit(periodic)
    prefix = list(transient)
    while prefix and prefix[-1] == unit[-1]:
        prefix.pop()
        unit = [unit[-1]] + unit[:-1]
    unit = minimal_repeating_unit(unit)
    return StaticOrderSchedule(periodic=tuple(unit), transient=tuple(prefix))


def build_static_order_schedules(
    bag: BindingAwareGraph,
    slices: Optional[Dict[str, int]] = None,
    max_states: int = DEFAULT_MAX_STATES,
    budget: Optional[Budget] = None,
) -> Dict[str, StaticOrderSchedule]:
    """List-schedule the binding-aware graph; one schedule per used tile.

    ``slices`` defaults to the 50%-of-remaining-wheel assumption the
    binding-aware graph was built with (``bag.slices``).  A
    :class:`Budget` bounds the list-scheduling execution cooperatively.
    """
    fault_point("scheduling.build", graph=bag.graph.name)
    if slices is None:
        slices = dict(bag.slices)
    bag.update_slices(slices)
    tile_names = bag.binding.used_tiles()
    kernel = Kernel.from_sdf(
        bag.graph,
        tiles=[
            Tile(bag.architecture.tile(t).wheel, slices[t], name=t) for t in tile_names
        ],
        bound=bag.binding.assignment,
        ready_list=True,
    )
    outcome = kernel.run(kernel.initial(), max_states, budget)
    if outcome.deadlocked:
        raise SchedulingError(
            "execution of the binding-aware graph deadlocks; "
            "no static-order schedule exists for this binding"
        )
    result: Dict[str, StaticOrderSchedule] = {}
    for tile, name in enumerate(tile_names):
        started = [kernel.actors[a] for a in kernel.log[tile]]
        # as many starts as completions fall into one period, because
        # the recurrent state repeats the tile's firing in progress
        cut = len(started) - sum(
            outcome.period_firings[actor]
            for actor, bound_to in bag.binding.assignment.items()
            if bound_to == name
        )
        if cut == len(started):
            raise SchedulingError(
                f"actors on tile {name!r} never fire in the "
                "periodic phase (execution starves)"
            )
        result[name] = compact_schedule(started[:cut], started[cut:])
    return result
