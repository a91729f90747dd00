"""The one execution kernel behind every throughput engine.

Self-timed execution (paper ref [10]): an actor starts a firing as soon
as its inputs hold enough tokens, consumes them at the start and
produces at the end, ``tau`` time units later.  An SDF actor is a CSDF
actor with one phase; a firing in progress is one int, ``remaining *
phases + phase``.

Tiles restrict the execution (paper §8.2): an actor bound to a tile
starts only when the tile is idle and the tile's dispatch policy picks
it, and its remaining work progresses only inside the tile's TDMA
slice, in closed form (:func:`busy_time`, :func:`gated_finish`).  The
policy is fixed when the kernel is built: *static order* starts the
actor at the tile's schedule position (§8.2,
:mod:`repro.throughput.constrained`); *ready list* queues enabled
actors per tile and starts the head of the queue (the §9.2 list
scheduler, :mod:`repro.core.scheduling`).  Actors bound to no tile run
self-timed.

After the starts of each instant the state (tokens, firings in
progress, schedule positions or ready lists, wheel phases, next phases)
is hashed; the first repeated state closes the periodic phase.  Front
ends turn the result into certificates, checkpoints and metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.resilience.budget import Budget, BudgetExceededError
from repro.sdf.graph import SDFGraph

#: Default cap on explored states before the engine gives up.
DEFAULT_MAX_STATES = 2_000_000
#: Cap on firing starts at a single time instant.
BURST_LIMIT = 1_000_000

#: visited state -> (time, completed firings per actor) at first visit
Seen = Dict[Tuple, Tuple[int, Tuple[int, ...]]]


class StateSpaceExplosionError(RuntimeError):
    """Raised when exploration exceeds the configured state budget."""


class FiringBurstError(StateSpaceExplosionError):
    """More than :data:`BURST_LIMIT` firings started at one instant."""


def busy_time(
    start: int, end: int, wheel: int, slice_size: int, slice_start: int = 0
) -> int:
    """Time units in ``[start, end)`` inside the application's slice.

    The slice occupies ``[k*wheel + slice_start, k*wheel + slice_start +
    slice_size)`` for every rotation ``k`` (``slice_start = 0`` is the
    paper's aligned-wheels assumption; non-zero offsets place several
    applications in disjoint windows of the same wheel).
    """
    if slice_size >= wheel:
        return end - start

    def busy_until(t: int) -> int:
        rotations, position = divmod(t - slice_start, wheel)
        return rotations * slice_size + min(position, slice_size)

    return busy_until(end) - busy_until(start)


def gated_finish(
    start: int,
    work: int,
    wheel: int,
    slice_size: int,
    slice_start: int = 0,
) -> Optional[int]:
    """Earliest instant >= ``start`` by which ``work`` busy units elapse.

    Returns None when ``slice_size`` is 0 (the firing can never finish).
    """
    if work <= 0:
        return start
    if slice_size >= wheel:
        return start + work
    if slice_size == 0:
        return None
    position = (start - slice_start) % wheel
    remaining = work
    if position < slice_size:
        available = slice_size - position
        if remaining <= available:
            return start + remaining
        remaining -= available
        base = start + (wheel - position)
    else:
        base = start + (wheel - position)
    full_rotations = (remaining - 1) // slice_size
    leftover = remaining - full_rotations * slice_size
    return base + full_rotations * wheel + leftover


def seen_to_json(seen: Seen) -> List:
    """A visited-state map as JSON-ready nested lists."""

    def thaw(value: Any) -> Any:
        return [thaw(v) for v in value] if isinstance(value, tuple) else value

    return [[thaw(key), [when, list(counts)]] for key, (when, counts) in seen.items()]


def seen_from_json(data: Sequence) -> Seen:
    """Inverse of :func:`seen_to_json`."""

    def freeze(value: Any) -> Any:
        return tuple(freeze(v) for v in value) if isinstance(value, list) else value

    return {freeze(key): (when, tuple(counts)) for key, (when, counts) in data}


@dataclass(frozen=True)
class Tile:
    """A tile as the kernel sees it: TDMA slice plus static order."""

    wheel: int
    slice_size: int
    slice_start: int = 0
    name: Optional[str] = None
    #: static-order entries, transient prefix first (empty under the
    #: ready-list policy)
    order: Tuple[str, ...] = ()
    #: position in ``order`` where the repeated part starts
    loop: int = 0


@dataclass
class Frontier:
    """Everything a run needs to continue: its state and visited map."""

    time: int
    tokens: List[int]
    #: phase of each actor's next firing
    phase: List[int]
    #: per unbound actor, its firings in progress
    active: List[List[int]]
    #: per tile, its firing in progress as (actor, remaining work)
    tile_active: List[Optional[Tuple[int, int]]]
    completed: List[int]
    #: per tile, its static-order position (folded into ``Tile.order``)
    #: or its ready list
    dispatch: List[Any]
    seen: Seen = field(default_factory=dict)
    #: firing starts so far
    starts: int = 0
    #: zero-duration firings of actors bound to no tile
    zero_starts: int = 0


@dataclass
class ExecutionResult:
    """Outcome of one self-timed execution until recurrence (or deadlock).

    ``period`` is the duration of the periodic phase, ``period_firings``
    maps each actor to its number of completed firings inside one period.
    ``deadlocked`` executions have ``period = None``.
    """

    transient_time: int
    period: Optional[int]
    period_firings: Dict[str, int]
    states_explored: int
    deadlocked: bool = False
    #: compact, independently replayable evidence of the periodic phase
    #: (see ``docs/VERIFICATION.md``); None for deadlocked executions
    certificate: Optional[Dict[str, Any]] = None

    def actor_throughput(self, actor: str) -> Fraction:
        """Firings of ``actor`` per time unit in the steady state."""
        if self.deadlocked or not self.period:
            return Fraction(0)
        return Fraction(self.period_firings.get(actor, 0), self.period)


class Kernel:
    """A compiled graph plus its per-tile constraints, ready to run.

    ``times`` maps actors to per-phase execution times; ``channels``
    are ``(src, dst, productions, consumptions, tokens)``.  A tile's
    static order binds its actors; for ready lists ``bound`` maps actors
    to tile names.  ``serial`` allows one firing at a time per unbound
    actor.  ``on_firing(actor, tile, start, end)`` sees each completed
    firing (tile None when unbound), ``on_step(time, next_time)`` each
    event step.
    """

    def __init__(
        self,
        name: str,
        times: Mapping[str, Sequence[int]],
        channels: Sequence[Tuple[str, str, Sequence[int], Sequence[int], int]],
        serial: bool = False,
        tiles: Sequence[Tile] = (),
        bound: Optional[Dict[str, str]] = None,
        ready_list: bool = False,
        on_firing: Optional[Callable[[str, Optional[str], int, int], None]] = None,
        on_step: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.name = name
        self.actors = list(times)
        self.times = [tuple(t) for t in times.values()]
        self.phases = [len(t) for t in self.times]
        self.index = index = {a: i for i, a in enumerate(self.actors)}
        #: per actor, per phase: [(channel index, tokens), ...]
        self.inputs: List[List[List[Tuple[int, int]]]] = [
            [[] for _ in t] for t in self.times
        ]
        self.outputs: List[List[List[Tuple[int, int]]]] = [
            [[] for _ in t] for t in self.times
        ]
        for number, (src, dst, produced, consumed, _) in enumerate(channels):
            for phase, rate in enumerate(produced):
                if rate:
                    self.outputs[index[src]][phase].append((number, rate))
            for phase, rate in enumerate(consumed):
                if rate:
                    self.inputs[index[dst]][phase].append((number, rate))
        self.tokens = [channel[4] for channel in channels]
        self.serial = serial
        self.tiles = list(tiles)
        tile_index = {tile.name: t for t, tile in enumerate(self.tiles)}
        self.tile_of: List[Optional[int]] = [None] * len(self.actors)
        for actor, tile_name in (bound or {}).items():
            self.tile_of[index[actor]] = tile_index[tile_name]
        for t, tile in enumerate(self.tiles):
            for actor in tile.order:
                if actor not in index:
                    raise KeyError(
                        f"schedule of tile {tile.name!r} mentions unknown "
                        f"actor {actor!r}"
                    )
                if self.tile_of[index[actor]] not in (None, t):
                    raise ValueError(f"actor {actor!r} scheduled on more than one tile")
                self.tile_of[index[actor]] = t
        #: per tile, its static order as actor indices
        self.orders = [tuple(index[a] for a in tile.order) for tile in self.tiles]
        self.ready_list = ready_list
        self.on_firing = on_firing
        self.on_step = on_step
        #: per tile, the actors started on it (ready-list policy only)
        self.log: List[List[int]] = [[] for _ in self.tiles]

    @classmethod
    def from_sdf(
        cls,
        graph: SDFGraph,
        execution_times: Optional[Dict[str, int]] = None,
        **options: Any,
    ) -> "Kernel":
        """Compile an SDF graph: every actor has one phase."""
        times = execution_times or graph.execution_times()
        return cls(
            graph.name,
            {a: (times[a],) for a in graph.actor_names},
            [
                (c.src, c.dst, (c.production,), (c.consumption,), c.tokens)
                for c in graph.channels
            ],
            **options,
        )

    def initial(self) -> Frontier:
        """The state before anything fired."""
        count = len(self.times)
        return Frontier(
            time=0,
            tokens=list(self.tokens),
            phase=[0] * count,
            active=[[] for _ in range(count)],
            tile_active=[None] * len(self.tiles),
            completed=[0] * count,
            dispatch=[[] if self.ready_list else 0 for _ in self.tiles],
        )

    def run(
        self,
        state: Frontier,
        max_states: int = DEFAULT_MAX_STATES,
        budget: Optional[Budget] = None,
        until: Optional[Tuple[int, int]] = None,
    ) -> Any:
        """Continue the execution in ``state``.

        Returns the :class:`ExecutionResult` (without certificate) at
        the first recurrent state or deadlock.  With ``until=(actor,
        firings)`` the run keeps no visited map, caps events instead of
        states, and returns the time at which ``actor`` completes
        ``firings`` firings, or None when the graph deadlocks first.
        """
        if budget is not None:
            budget.checkpoint()
        times, inputs, outputs = self.times, self.inputs, self.outputs
        phases, serial, tile_of = self.phases, self.serial, self.tile_of
        tiles, orders = self.tiles, self.orders
        ready_list, log = self.ready_list, self.log
        on_firing, on_step, actors = self.on_firing, self.on_step, self.actors
        explore = until is None
        target, count = until or (0, 0)
        free = [a for a in range(len(times)) if tile_of[a] is None]
        # ready lists interleave enqueueing with the free actors' starts
        sweep = range(len(times)) if ready_list else free
        wheels = [tile.wheel for tile in tiles]
        phased = any(p > 1 for p in phases)
        tokens, phase, active = state.tokens, state.phase, state.active
        tile_active, completed = state.tile_active, state.completed
        dispatch, seen, time = state.dispatch, state.seen, state.time
        # ready-list runs start from the initial state (they are never
        # checkpointed), so no actor is queued yet
        in_ready = [False] * len(times)
        # start instants of the firings in progress, for on_firing; FIFO
        # matching is exact while an actor's firings all take the same
        # time (one phase, as in every traced graph)
        free_started: List[List[int]] = [[] for _ in times] if on_firing else []
        tile_started = [0] * len(tiles)
        events = 0
        try:
            while True:
                if not explore and completed[target] >= count:
                    return time
                if budget is not None:
                    try:
                        budget.tick()
                    except BudgetExceededError as error:
                        error.partial.setdefault("graph", self.name)
                        if explore:
                            error.partial.setdefault("states_explored", len(seen))
                        else:
                            error.partial.setdefault("events", events)
                        raise

                # -- start every firing the dispatch allows at this instant;
                # only a zero-time firing or a ready-list change can enable
                # more, so otherwise one sweep suffices
                burst = 0
                again = True
                while again:
                    again = False
                    for a in sweep:
                        if tile_of[a] is not None:
                            if not in_ready[a]:
                                for c, r in inputs[a][phase[a]]:
                                    if tokens[c] < r:
                                        break
                                else:
                                    dispatch[tile_of[a]].append(a)
                                    in_ready[a] = True
                                    again = True
                            continue
                        firing = active[a]
                        while burst <= BURST_LIMIT and not (serial and firing):
                            ph = phase[a]
                            ins = inputs[a][ph]
                            for c, r in ins:
                                if tokens[c] < r:
                                    break
                            else:
                                for c, r in ins:
                                    tokens[c] -= r
                                burst += 1
                                if phases[a] > 1:
                                    phase[a] = (ph + 1) % phases[a]
                                duration = times[a][ph]
                                if duration:
                                    firing.append(duration * phases[a] + ph)
                                    if on_firing is not None:
                                        free_started[a].append(time)
                                else:
                                    for c, r in outputs[a][ph]:
                                        tokens[c] += r
                                    completed[a] += 1
                                    state.zero_starts += 1
                                    again = True
                                    if on_firing is not None:
                                        on_firing(actors[a], None, time, time)
                                continue
                            break
                    for t, tile in enumerate(tiles):
                        while tile_active[t] is None:
                            if ready_list:
                                if not dispatch[t]:
                                    break
                                a = dispatch[t].pop(0)
                                in_ready[a] = False
                            else:
                                a = orders[t][dispatch[t]]
                            ph = phase[a]
                            ins = inputs[a][ph]
                            for c, r in ins:
                                if tokens[c] < r:
                                    break
                            else:
                                for c, r in ins:
                                    tokens[c] -= r
                                burst += 1
                                if ready_list:
                                    log[t].append(a)
                                    again = True
                                else:
                                    position = dispatch[t] + 1
                                    dispatch[t] = (
                                        position
                                        if position < len(orders[t])
                                        else tile.loop
                                    )
                                if phases[a] > 1:
                                    phase[a] = (ph + 1) % phases[a]
                                duration = times[a][ph]
                                if duration:
                                    tile_active[t] = (a, duration * phases[a] + ph)
                                    tile_started[t] = time
                                else:
                                    for c, r in outputs[a][ph]:
                                        tokens[c] += r
                                    completed[a] += 1
                                    again = True
                                    if on_firing is not None:
                                        on_firing(actors[a], tile.name, time, time)
                                if ready_list:
                                    continue
                                break
                            if not ready_list:
                                break
                    if burst > BURST_LIMIT:
                        raise FiringBurstError(
                            "unbounded firing burst at one time instant on "
                            f"graph {self.name!r}: either a cycle with total "
                            "execution time 0, or an actor without inputs "
                            "under auto-concurrency (bound the graph or "
                            "disable auto_concurrency)"
                        )
                state.starts += burst

                # -- recurrence (or the target completion count)
                if explore:
                    key: Tuple = (
                        tuple(tokens),
                        tuple([(a, tuple(sorted(f))) for a, f in enumerate(active) if f]),
                    )
                    if tiles:
                        key += (
                            tuple(tile_active),
                            tuple([tuple(q) for q in dispatch])
                            if ready_list
                            else tuple(dispatch),
                            tuple([time % w for w in wheels]),
                        )
                    if phased:
                        key += (tuple(phase),)
                    first = seen.get(key)
                    if first is not None:
                        return ExecutionResult(
                            transient_time=first[0],
                            period=time - first[0],
                            period_firings={
                                actor: n - m
                                for actor, n, m in zip(self.actors, completed, first[1])
                            },
                            states_explored=len(seen),
                        )
                    seen[key] = (time, tuple(completed))
                    if len(seen) > max_states:
                        raise StateSpaceExplosionError(
                            f"exceeded {max_states} states on graph "
                            f"{self.name!r} (channels unbounded or budget "
                            "too small)"
                        )
                elif completed[target] >= count:
                    return time

                # -- advance to the next completion
                step = None
                for a in free:
                    f = active[a]
                    if f:
                        remaining = min(f) // phases[a]
                        if step is None or remaining < step:
                            step = remaining
                next_time = None if step is None else time + step
                for t, running in enumerate(tile_active):
                    if running is not None:
                        tile = tiles[t]
                        end = gated_finish(
                            time,
                            running[1] // phases[running[0]],
                            tile.wheel,
                            tile.slice_size,
                            tile.slice_start,
                        )
                        # None: a zero slice never finishes the firing
                        if end is not None and (next_time is None or end < next_time):
                            next_time = end
                if next_time is None:
                    if explore:
                        return ExecutionResult(
                            transient_time=time,
                            period=None,
                            period_firings={},
                            states_explored=len(seen),
                            deadlocked=True,
                        )
                    return None
                if on_step is not None:
                    on_step(time, next_time)
                step = next_time - time
                for a in free:
                    f = active[a]
                    if not f:
                        continue
                    p = phases[a]
                    drop = step * p
                    done = False
                    for i, e in enumerate(f):
                        f[i] = e - drop
                        if e - drop < p:
                            done = True
                    if not done:
                        continue
                    active[a] = [e for e in f if e >= p]
                    for e in f:
                        if e < p:
                            for c, r in outputs[a][e]:
                                tokens[c] += r
                            completed[a] += 1
                            if on_firing is not None and free_started[a]:
                                on_firing(
                                    actors[a], None, free_started[a].pop(0), next_time
                                )
                for t, running in enumerate(tile_active):
                    if running is None:
                        continue
                    tile = tiles[t]
                    a = running[0]
                    p = phases[a]
                    e = running[1] - p * busy_time(
                        time, next_time, tile.wheel, tile.slice_size, tile.slice_start
                    )
                    if e < p:
                        for c, r in outputs[a][e]:
                            tokens[c] += r
                        completed[a] += 1
                        tile_active[t] = None
                        if on_firing is not None:
                            on_firing(actors[a], tile.name, tile_started[t], next_time)
                    else:
                        tile_active[t] = (a, e)
                time = next_time
                events += 1
                if not explore and events > max_states:
                    raise StateSpaceExplosionError(
                        f"exceeded {max_states} events on graph {self.name!r}"
                    )
        finally:
            state.time = time
