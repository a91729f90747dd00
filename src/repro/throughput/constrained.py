"""Schedule- and TDMA-constrained state-space throughput (paper §8.2).

The binding-aware SDFG models the binding decisions, but the scheduling
function (per-tile static-order schedules and TDMA slice allocations) is
deliberately *not* modelled in the graph.  Instead it constrains the
self-timed execution:

* an actor bound to a tile may only start firing when (i) it has enough
  input tokens, (ii) it is the actor at the current position of the
  tile's static-order schedule, and (iii) no other firing is active on
  the tile (one processor executes one actor at a time);
* the remaining execution time of a firing bound to a tile decreases
  only while the TDMA wheel of that tile is inside the slice reserved
  for the application.

All wheels are assumed aligned and the application slice occupies the
start of every wheel rotation; the *s* actors of the binding-aware graph
make the analysis conservative with respect to any actual alignment
(paper §8.1).  Auxiliary actors that are not bound to a tile (the
connection actors *c* and alignment actors *s*) execute unconstrained.

The engine advances event-to-event: slice gating is evaluated in closed
form (:func:`busy_time` / :func:`gated_finish`), never tick-by-tick, so
large time wheels cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import get_metrics
from repro.obs.trace import get_trace
from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.faults import fault_point
from repro.sdf.graph import SDFGraph
from repro.sdf.serialization import graph_to_dict
from repro.throughput.kernel import (  # busy_time, gated_finish: re-exported
    DEFAULT_MAX_STATES,
    ExecutionResult,
    FiringBurstError,
    Frontier,
    Kernel,
    Tile,
    busy_time,
    gated_finish,
    seen_from_json,
    seen_to_json,
)


@dataclass(frozen=True)
class StaticOrderSchedule:
    """A practical static-order schedule: transient prefix + repeated part.

    Represents the infinite firing sequence
    ``transient[0] ... transient[-1] (periodic[0] ... periodic[-1])*``.
    """

    periodic: Tuple[str, ...]
    transient: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.periodic:
            raise ValueError("periodic part of a static-order schedule is empty")

    def entry(self, position: int) -> str:
        """Actor at ``position`` of the infinite schedule."""
        if position < len(self.transient):
            return self.transient[position]
        return self.periodic[(position - len(self.transient)) % len(self.periodic)]

    def canonical_position(self, position: int) -> int:
        """Position folded into the finite transient+periodic representation."""
        if position < len(self.transient):
            return position
        offset = (position - len(self.transient)) % len(self.periodic)
        return len(self.transient) + offset

    @property
    def actors(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for name in self.transient + self.periodic:
            seen.setdefault(name)
        return tuple(seen)


@dataclass
class TileConstraints:
    """Execution constraints of one tile (paper Def. 3 + Def. 7 excerpt).

    ``wheel`` is the TDMA wheel size ``w``; ``slice_size`` the slice
    ``omega`` reserved for this application; ``schedule`` the static-order
    schedule of the application's actors bound to this tile.
    """

    name: str
    wheel: int
    slice_size: int
    schedule: StaticOrderSchedule
    #: where the slice window starts on the wheel (0 = paper's aligned
    #: assumption; committed applications get disjoint offsets)
    slice_start: int = 0

    def __post_init__(self) -> None:
        if self.wheel <= 0:
            raise ValueError(f"tile {self.name!r}: wheel must be positive")
        if not 0 <= self.slice_size <= self.wheel:
            raise ValueError(
                f"tile {self.name!r}: slice {self.slice_size} outside "
                f"[0, {self.wheel}]"
            )
        if not 0 <= self.slice_start <= self.wheel - self.slice_size:
            raise ValueError(
                f"tile {self.name!r}: slice window "
                f"[{self.slice_start}, {self.slice_start + self.slice_size})"
                f" does not fit the wheel"
            )


@dataclass
class ConstrainedThroughputResult(ExecutionResult):
    """Steady-state throughput under schedule and TDMA constraints."""

    of = ExecutionResult.actor_throughput


@dataclass(frozen=True)
class TraceEvent:
    """One recorded firing: who ran where and when.

    ``tile`` is None for unscheduled (connection/alignment) actors.
    ``start`` is the instant the firing claimed its tokens; ``end`` the
    instant it produced its outputs (wall-clock, including time spent
    outside the TDMA slice).
    """

    actor: str
    tile: Optional[str]
    start: int
    end: int


def constrained_throughput(
    graph: SDFGraph,
    tiles: Sequence[TileConstraints],
    max_states: int = DEFAULT_MAX_STATES,
    trace: Optional[List[TraceEvent]] = None,
    budget: Optional[Budget] = None,
    resume: Optional[Dict[str, Any]] = None,
) -> ConstrainedThroughputResult:
    """Throughput of ``graph`` under static-order + TDMA constraints.

    ``graph`` is typically a binding-aware SDFG
    (:func:`repro.appmodel.binding_aware.build_binding_aware_graph`);
    actors appearing in no tile's schedule run unconstrained.

    When any tile with scheduled actors has a zero slice the execution
    deadlocks (its firings never finish) and a zero-throughput result is
    returned without exploration.

    Passing a list as ``trace`` records every firing as a
    :class:`TraceEvent` (transient plus one full period), which
    :mod:`repro.extensions.tracing` renders as a Gantt chart.

    On a budget breach the raised
    :class:`~repro.resilience.budget.BudgetExceededError` carries
    ``error.partial["checkpoint"]`` (kind ``"constrained"``); passing
    that payload back as ``resume`` — normally via
    :func:`repro.resilience.checkpoint.resume_from_checkpoint` —
    continues the interrupted exploration bit-identically.  Traces do
    not survive a resume.
    """
    obs = get_metrics()
    tr = get_trace()
    for tile in tiles:
        if tile.slice_size == 0 and tile.schedule.actors:
            obs.counter("constrained.zero_slice_shortcuts")
            if tr.enabled:
                tr.instant(
                    "tdma",
                    "zero_slice_shortcut",
                    graph=graph.name,
                    tile=tile.name,
                )
            return ConstrainedThroughputResult(
                period=None,
                period_firings={},
                transient_time=0,
                states_explored=0,
                deadlocked=True,
            )

    def record(actor: str, tile: Optional[str], start: int, end: int) -> None:
        assert trace is not None
        trace.append(TraceEvent(actor=actor, tile=tile, start=start, end=end))

    def rotations(time: int, next_time: int) -> None:
        # one instant per tile whose TDMA wheel completes at least one
        # rotation inside this event-to-event step
        for tile in tiles:
            count = next_time // tile.wheel - time // tile.wheel
            if count > 0:
                tr.instant(
                    "tdma",
                    "wheel.rotation",
                    tile=tile.name,
                    rotations=count,
                    model_time=next_time,
                )

    kernel = Kernel.from_sdf(
        graph,
        tiles=[
            Tile(
                tile.wheel,
                tile.slice_size,
                tile.slice_start,
                tile.name,
                tile.schedule.transient + tile.schedule.periodic,
                len(tile.schedule.transient),
            )
            for tile in tiles
        ],
        on_firing=record if trace is not None else None,
        on_step=rotations if tr.enabled else None,
    )
    fault_point("constrained.run", graph=graph.name)
    started = perf_counter() if obs.enabled else 0.0
    trace_started = tr.now() if tr.enabled else 0.0
    state = kernel.initial()
    if resume is not None:
        engine = resume["engine_state"]
        state.time = engine["time"]
        state.tokens = list(engine["tokens"])
        state.active = [list(r) for r in engine["unscheduled_active"]]
        state.tile_active = [
            tuple(firing) if firing is not None else None
            for firing in engine["tile_active"]
        ]
        state.dispatch = [
            tile.schedule.canonical_position(position)
            for tile, position in zip(tiles, engine["schedule_pos"])
        ]
        state.completed = list(engine["completed"])
        state.zero_starts = engine["zero_firings"]
        state.seen = kernel.convert_seen(seen_from_json(engine["seen"]), to_work=False)
    try:
        result = ConstrainedThroughputResult(
            **vars(kernel.run(state, max_states, budget))
        )
    except FiringBurstError:
        obs.counter("constrained.zero_time_guard_hits")
        raise
    except BudgetExceededError as error:
        error.partial["checkpoint"] = {
            "format": "repro-checkpoint",
            "version": 1,
            "kind": "constrained",
            "graph": graph_to_dict(graph),
            "tiles": [_describe(tile) for tile in tiles],
            "max_states": max_states,
            "engine_state": {
                "time": state.time,
                "tokens": list(state.tokens),
                "unscheduled_active": [list(f) for f in state.active],
                "tile_active": _tile_active(state),
                "schedule_pos": list(state.dispatch),
                "completed": list(state.completed),
                "zero_firings": state.zero_starts,
                "seen": seen_to_json(kernel.convert_seen(state.seen, to_work=True)),
            },
            "budget": budget.usage() if budget is not None else None,
        }
        raise
    if not result.deadlocked:
        result.certificate = {
            "format": "repro-certificate",
            "version": 1,
            "kind": "constrained",
            "graph": graph.name,
            "actors": list(kernel.actors),
            "channels": list(graph.channel_names),
            "execution_times": [t for (t,) in kernel.times],
            "tiles": [
                dict(_describe(tile), position=state.dispatch[i])
                for i, tile in enumerate(tiles)
            ],
            "window_start": state.time,
            "period": result.period,
            "firings": dict(result.period_firings),
            "tokens": list(state.tokens),
            "unscheduled_active": [sorted(f) for f in state.active],
            "tile_active": _tile_active(state),
        }
    if obs.enabled:
        obs.counter("constrained.executions")
        obs.counter("constrained.states", result.states_explored)
        obs.counter("constrained.zero_time_firings", state.zero_starts)
        obs.counter("constrained.enablement_checks", state.enablement_checks)
        obs.gauge("constrained.hash_set_size", result.states_explored)
        obs.gauge("constrained.transient_time", result.transient_time)
        obs.gauge("constrained.period", result.period or 0)
        if result.deadlocked:
            obs.counter("constrained.deadlocks")
        obs.observe("constrained.execute", perf_counter() - started)
    if tr.enabled:
        detail: Dict[str, Any] = (
            {"deadlocked": True}
            if result.deadlocked
            else {"period": result.period, "transient_time": result.transient_time}
        )
        tr.complete(
            "engine",
            "constrained.execute",
            trace_started,
            tr.now(),
            graph=graph.name,
            states=result.states_explored,
            **detail,
        )
    return result


def _describe(tile: TileConstraints) -> Dict[str, Any]:
    """A tile as checkpoints and certificates record it."""
    return {
        "name": tile.name,
        "wheel": tile.wheel,
        "slice_size": tile.slice_size,
        "slice_start": tile.slice_start,
        "transient": list(tile.schedule.transient),
        "periodic": list(tile.schedule.periodic),
    }


def _tile_active(state: Frontier) -> List[Optional[List[int]]]:
    return [list(f) if f is not None else None for f in state.tile_active]
