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

Each instant starts firings in rounds that test, in index order, only
the actors and tiles whose start condition may have changed: consumers
of channels that gained tokens, serial actors and tiles whose firing
ended, ready-list actors just dequeued.  Every channel has one consumer,
so nothing else can have become enabled.  Inside :meth:`Kernel.run` a
tile firing is held as its completion instant, from one
:func:`gated_finish` call at its start; outside (:class:`Frontier`,
checkpoints, certificates) it is remaining work, like a free firing.

After the starts of each instant the state (tokens, firings in
progress, schedule positions or ready lists, wheel phases, next phases)
is hashed; the first repeated state closes the periodic phase.  A tile
firing enters the key as its time to completion, which the wheel phases
map one-to-one onto remaining work (:meth:`Kernel.convert_seen`).  Front
ends turn the result into certificates, checkpoints and metrics.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.resilience.budget import Budget, BudgetExceededError
from repro.sdf.graph import SDFGraph

#: Default cap on explored states before the engine gives up.
DEFAULT_MAX_STATES = 2_000_000
#: Cap on firing starts at a single time instant.
BURST_LIMIT = 1_000_000

#: completion instant of a tile firing that never completes (zero slice)
NEVER = float("inf")

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
    #: per tile, its firing in progress as (actor, remaining work *
    #: phases + phase); :meth:`Kernel.run` holds it as (actor, completion
    #: instant, phase) while it runs
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
    #: start conditions evaluated, in the start sweep and tile dispatch
    enablement_checks: int = 0


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
        #: per actor, then per tile, its bit in the worklist of :meth:`run`
        self.bits = [1 << i for i in range(len(self.actors) + len(self.tiles))]
        #: per actor, per phase: [(channel index, tokens), ...]
        self.inputs: List[List[List[Tuple[int, int]]]] = [
            [[] for _ in t] for t in self.times
        ]
        #: per actor, per phase: [(channel index, tokens, worklist bit of
        #: the consumer, or of its tile under a static order), ...]
        self.outputs: List[List[List[Tuple[int, int, int]]]] = [
            [[] for _ in t] for t in self.times
        ]
        for number, (src, dst, produced, consumed, _) in enumerate(channels):
            tile = self.tile_of[index[dst]]
            bit = self.bits[
                index[dst] if tile is None or ready_list else len(self.actors) + tile
            ]
            for phase, rate in enumerate(produced):
                if rate:
                    self.outputs[index[src]][phase].append((number, rate, bit))
            for phase, rate in enumerate(consumed):
                if rate:
                    self.inputs[index[dst]][phase].append((number, rate))
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

    def _instant(
        self, t: int, firing: Sequence[int], time: int
    ) -> Tuple[int, Any, int]:
        """Tile ``t``'s firing at ``time`` as (actor, completion instant,
        phase), from (actor, remaining work encoding)."""
        a, held = firing
        work, ph = divmod(held, self.phases[a])
        tile = self.tiles[t]
        end = gated_finish(time, work, tile.wheel, tile.slice_size, tile.slice_start)
        return (a, NEVER if end is None else end, ph)

    def _work(self, t: int, firing: Sequence[Any], time: int) -> Tuple[int, int]:
        """Inverse of :meth:`_instant`."""
        a, end, ph = firing
        tile = self.tiles[t]
        work = (
            self.times[a][ph]
            if end == NEVER
            else busy_time(time, end, tile.wheel, tile.slice_size, tile.slice_start)
        )
        return (a, work * self.phases[a] + ph)

    def convert_seen(self, seen: Seen, *, to_work: bool) -> Seen:
        """``seen`` with its tile firings keyed by remaining work, the
        checkpoint format (``to_work``), or by time to completion, the
        format of :meth:`run`; one-to-one because each key holds the
        wheel phases and each value the time."""
        if not self.tiles:
            return seen
        phased = any(p > 1 for p in self.phases)
        converted: Seen = {}
        for key, value in seen.items():
            time, firings = value[0], list(key[2])
            for t, f in enumerate(firings):
                if f is not None and to_work:
                    # a tile firing's phase precedes its actor's next one
                    ph = (key[-1][f[0]] - 1) % self.phases[f[0]] if phased else 0
                    firings[t] = self._work(t, (f[0], f[1] + time, ph), time)
                elif f is not None:
                    firings[t] = (f[0], self._instant(t, f, time)[1] - time)
            converted[key[:2] + (tuple(firings),) + key[3:]] = value
        return converted

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
        tiles, orders, bits = self.tiles, self.orders, self.bits
        ready_list, log = self.ready_list, self.log
        on_firing, on_step, actors = self.on_firing, self.on_step, self.actors
        explore = until is None
        target, count = until or (0, 0)
        wheels = [tile.wheel for tile in tiles]
        phased = any(p > 1 for p in phases)
        tokens, phase, active = state.tokens, state.phase, state.active
        completed, dispatch = state.completed, state.dispatch
        seen, time = state.seen, state.time
        # the key takes one-phase firing lists as ascending, which they
        # stay; a resumed state need not list them in order
        if not phased:
            for f in active:
                f.sort()
        # unbound actors with firings in progress, ascending
        busy = [a for a, f in enumerate(active) if f and tile_of[a] is None]
        tile_active = [
            f and self._instant(t, f, time) for t, f in enumerate(state.tile_active)
        ]
        # worklist bits of the actors and tiles to test at the next round
        # of starts; at first every tile and every actor the start sweep
        # visits (ready lists also queue bound ones)
        first_tile = len(times)
        marks = sum(
            bit
            for a, bit in enumerate(bits)
            if a >= first_tile or ready_list or tile_of[a] is None
        )
        # ready-list runs start from the initial state (they are never
        # checkpointed), so no actor is queued yet
        in_ready = [False] * len(times)
        # start instants of the firings in progress, for on_firing; FIFO
        # matching is exact while an actor's firings all take the same
        # time (one phase, as in every traced graph)
        free_started: List[List[int]] = [[] for _ in times] if on_firing else []
        tile_started = [0] * len(tiles)
        events = checks = 0
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

                # -- start every firing the dispatch allows at this instant,
                # in rounds.  A round tests the marked actors in index
                # order, then the marked tiles (their bits follow the
                # actors'); a zero-time firing marks what it enables for
                # this round when its bit is higher, else for the next, as
                # a sweep over every actor and tile would start them
                burst = 0
                while True:
                    work, marks = marks, 0
                    while work:
                        low = work & -work
                        work ^= low
                        a = low.bit_length() - 1
                        if a >= first_tile:
                            t = a - first_tile
                            tile = tiles[t]
                            while tile_active[t] is None:
                                if ready_list:
                                    if not dispatch[t]:
                                        break
                                    a = dispatch[t].pop(0)
                                    in_ready[a] = False
                                    marks |= bits[a]
                                else:
                                    a = orders[t][dispatch[t]]
                                ph = phase[a]
                                ins = inputs[a][ph]
                                checks += 1
                                for c, r in ins:
                                    if tokens[c] < r:
                                        break
                                else:
                                    for c, r in ins:
                                        tokens[c] -= r
                                    burst += 1
                                    if ready_list:
                                        log[t].append(a)
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
                                        tile_active[t] = self._instant(
                                            t, (a, duration * phases[a] + ph), time
                                        )
                                        tile_started[t] = time
                                    else:
                                        for c, r, m in outputs[a][ph]:
                                            tokens[c] += r
                                            if m > low:
                                                work |= m
                                            elif m != low:
                                                marks |= m
                                        completed[a] += 1
                                        if on_firing is not None:
                                            on_firing(actors[a], tile.name, time, time)
                                        # its next entry starts next round
                                        marks |= low
                                    if ready_list:
                                        continue
                                    break
                                if not ready_list:
                                    break
                            continue
                        if tile_of[a] is not None:
                            if not in_ready[a]:
                                checks += 1
                                for c, r in inputs[a][phase[a]]:
                                    if tokens[c] < r:
                                        break
                                else:
                                    dispatch[tile_of[a]].append(a)
                                    in_ready[a] = True
                                    work |= bits[first_tile + tile_of[a]]
                            continue
                        firing = active[a]
                        while burst <= BURST_LIMIT and not (serial and firing):
                            ph = phase[a]
                            ins = inputs[a][ph]
                            checks += 1
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
                                    if not firing:
                                        insort(busy, a)
                                    firing.append(duration * phases[a] + ph)
                                    if on_firing is not None:
                                        free_started[a].append(time)
                                else:
                                    for c, r, m in outputs[a][ph]:
                                        tokens[c] += r
                                        if m > low:
                                            work |= m
                                        elif m != low:
                                            marks |= m
                                    completed[a] += 1
                                    state.zero_starts += 1
                                    if on_firing is not None:
                                        on_firing(actors[a], None, time, time)
                                continue
                            break
                    if burst > BURST_LIMIT:
                        raise FiringBurstError(
                            "unbounded firing burst at one time instant on "
                            f"graph {self.name!r}: either a cycle with total "
                            "execution time 0, or an actor without inputs "
                            "under auto-concurrency (bound the graph or "
                            "disable auto_concurrency)"
                        )
                    if not marks:
                        break
                state.starts += burst

                # -- recurrence (or the target completion count)
                if explore:
                    key: Tuple = (
                        tuple(tokens),
                        tuple([(a, tuple(sorted(active[a]))) for a in busy])
                        if phased
                        else tuple([(a, tuple(active[a])) for a in busy]),
                    )
                    if tiles:
                        key += (
                            tuple([f and (f[0], f[1] - time) for f in tile_active]),
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
                next_time = None
                for a in busy:
                    f = active[a]
                    remaining = min(f) // phases[a] if phased else f[0]
                    if next_time is None or remaining < next_time:
                        next_time = remaining
                if next_time is not None:
                    next_time += time
                for f in tile_active:
                    if f is not None and (next_time is None or f[1] < next_time):
                        next_time = f[1]
                if next_time is None or next_time == NEVER:
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
                emptied = False
                for a in busy:
                    p = phases[a]
                    drop = step * p
                    f = active[a] = [e - drop for e in active[a]]
                    if (min(f) if phased else f[0]) >= p:
                        continue
                    active[a] = [e for e in f if e >= p]
                    for e in f:
                        if e < p:
                            for c, r, m in outputs[a][e]:
                                tokens[c] += r
                                marks |= m
                            completed[a] += 1
                            if on_firing is not None and free_started[a]:
                                on_firing(
                                    actors[a], None, free_started[a].pop(0), next_time
                                )
                    if serial:
                        marks |= bits[a]
                    emptied = emptied or not active[a]
                if emptied:
                    busy = [a for a in busy if active[a]]
                for t, f in enumerate(tile_active):
                    if f is not None and f[1] == next_time:
                        a = f[0]
                        for c, r, m in outputs[a][f[2]]:
                            tokens[c] += r
                            marks |= m
                        completed[a] += 1
                        tile_active[t] = None
                        marks |= bits[first_tile + t]
                        if on_firing is not None:
                            on_firing(
                                actors[a], tiles[t].name, tile_started[t], next_time
                            )
                time = next_time
                events += 1
                if not explore and events > max_states:
                    raise StateSpaceExplosionError(
                        f"exceeded {max_states} events on graph {self.name!r}"
                    )
        finally:
            state.time = time
            state.enablement_checks += checks
            state.tile_active = [
                f and self._work(t, f, time) for t, f in enumerate(tile_active)
            ]
