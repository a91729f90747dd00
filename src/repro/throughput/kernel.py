"""The one execution kernel behind every throughput engine.

Self-timed execution (paper ref [10]): an actor starts a firing as soon
as its inputs hold enough tokens, consumes them at the start and
produces at the end, ``tau`` time units later.  An SDF actor is a CSDF
actor with one phase; outside :meth:`Kernel.run` (:class:`Frontier`,
checkpoints, certificates) a firing in progress is one int, ``remaining
* phases + phase``.

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
so nothing else can have become enabled.

Inside :meth:`Kernel.run` every firing in progress is held by its
completion instant.  A tile firing is ``(actor, end, phase)``, with
``end`` from one :func:`gated_finish` call at its start.  The firings
of actors bound to no tile share one ascending list of ints, the
completion calendar, each ``(end * n + actor) * P + phase`` for ``n``
actors and ``P`` the largest phase count: the next event is
``calendar[0] // (n * P)``, and the firings that end then are the
calendar's prefix, in actor order.

After the starts of an instant the state (tokens, firings in progress,
schedule positions or ready lists, wheel phases, next phases) is keyed
and stored; the first repeated key closes the periodic phase.  When
actor 0 shares one strongly connected component with every actor (the
*reference*, :attr:`Kernel.reference`), only the instants at which it
has completed a firing since the last stored key are keyed, and the
exploration's first instant: every period of a live execution holds
such an instant, and they repeat with the period, so the first
repeated key closes the same period with the same firings; only the
transient ends later, at the first key stored in the periodic phase
(THEORY, "Sampled recurrence").  The other instants are still stepped
and counted.  The unbound firings enter the key as the calendar minus
``time * n * P``, one flat tuple of (time to completion, actor, phase)
codes, and a tile firing as its time to completion, which the wheel
phases map one-to-one onto remaining work.  :meth:`Kernel.convert_seen`
turns both into the remaining-work key of checkpoints and back.  Front
ends turn the result into certificates, checkpoints and metrics.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.resilience.budget import Budget, BudgetExceededError
from repro.sdf.repetition import Executable, PhasedActor

#: Default cap on explored states before the engine gives up.
DEFAULT_MAX_STATES = 2_000_000
#: Cap on firing starts at a single time instant.
BURST_LIMIT = 1_000_000

#: completion instant of a tile firing that never completes (zero slice)
NEVER = float("inf")

#: stored state key -> (time, completed firings per actor) at first visit
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


def phase_times(
    actor: PhasedActor, execution_times: Optional[Mapping[str, int]] = None
) -> Tuple[int, ...]:
    """``actor``'s per-phase times; an ``execution_times`` entry replaces
    a one-phase actor's time (``ValueError`` for a phased actor)."""
    if not execution_times or actor.name not in execution_times:
        return actor.execution_times
    if actor.phase_count > 1:
        raise ValueError(f"execution_times names {actor.name!r}, a phased actor")
    return (execution_times[actor.name],)


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


def _reference_actor(
    successors: Sequence[int], predecessors: Sequence[int]
) -> Optional[int]:
    """0 when actor 0 reaches every actor along the channels and every
    actor reaches it, else None.  ``successors[a]`` and
    ``predecessors[a]`` are bit sets of the actors that a channel leads
    to from ``a`` and into ``a``."""
    every = (1 << len(successors)) - 1
    if not every:
        return None
    for adjacent in (successors, predecessors):
        reached = frontier = 1
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                step |= adjacent[low.bit_length() - 1]
            frontier = step & ~reached
            reached |= step
        if reached != every:
            return None
    return 0


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
    #: per unbound actor, its firings in progress as remaining work *
    #: phases + phase; :meth:`Kernel.run` holds them in its completion
    #: calendar while it runs
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
    #: instants visited so far, keyed or not
    steps: int = 0
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
        #: ``P`` of the completion calendar
        self.max_phases = max(self.phases, default=1)
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
        successors = [0] * len(self.actors)
        predecessors = [0] * len(self.actors)
        for number, (src, dst, produced, consumed, _) in enumerate(channels):
            a, b = index[src], index[dst]
            successors[a] |= self.bits[b]
            predecessors[b] |= self.bits[a]
            tile = self.tile_of[b]
            bit = self.bits[
                b if tile is None or ready_list else len(self.actors) + tile
            ]
            for phase, rate in enumerate(produced):
                if rate:
                    self.outputs[a][phase].append((number, rate, bit))
            for phase, rate in enumerate(consumed):
                if rate:
                    self.inputs[b][phase].append((number, rate))
        #: the actor whose completions decide which instants :meth:`run`
        #: keys, or None to key every instant
        self.reference = _reference_actor(successors, predecessors)
        self.on_firing = on_firing
        self.on_step = on_step
        #: per tile, the actors started on it (ready-list policy only)
        self.log: List[List[int]] = [[] for _ in self.tiles]

    @classmethod
    def compile(
        cls,
        graph: Executable,
        execution_times: Optional[Mapping[str, int]] = None,
        **options: Any,
    ) -> "Kernel":
        """Compile an SDF or CSDF graph or component (:func:`phase_times`)."""
        return cls(
            graph.name,
            {a.name: phase_times(a, execution_times) for a in graph.actors},
            [
                (c.src, c.dst, c.productions, c.consumptions, c.tokens)
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

    def _calendar(
        self, active: Sequence[Tuple[int, Sequence[int]]], time: int
    ) -> List[int]:
        """The completion calendar at ``time`` of (actor, remaining work
        encodings) pairs of unbound actors."""
        n, most, phases = len(self.times), self.max_phases, self.phases
        return sorted(
            ((time + e // phases[a]) * n + a) * most + e % phases[a]
            for a, firings in active
            for e in firings
        )

    def _active(self, calendar: Sequence[int], time: int) -> List[List[int]]:
        """Inverse of :meth:`_calendar`: per actor, its remaining work
        encodings, ascending."""
        n, most, phases = len(self.times), self.max_phases, self.phases
        active: List[List[int]] = [[] for _ in range(n)]
        for e in calendar:
            rest, ph = divmod(e, most)
            end, a = divmod(rest, n)
            active[a].append((end - time) * phases[a] + ph)
        return active

    def convert_seen(self, seen: Seen, *, to_work: bool) -> Seen:
        """``seen`` keyed by remaining work, the checkpoint format
        (``to_work``), or as :meth:`run` keys it: unbound firings as
        calendar offsets, tile firings by time to completion.  One-to-one
        because each key holds the wheel phases and each value the time;
        the remaining-work key lists each busy unbound actor's firings,
        ascending, in actor order."""
        phased = self.max_phases > 1
        converted: Seen = {}
        for key, value in seen.items():
            time = value[0]
            if to_work:
                free = enumerate(self._active(key[1], 0))
                unbound: Tuple = tuple([(a, tuple(f)) for a, f in free if f])
            else:
                unbound = tuple(self._calendar(key[1], 0))
            key = (key[0], unbound) + key[2:]
            if self.tiles:
                firings = list(key[2])
                for t, f in enumerate(firings):
                    if f is not None and to_work:
                        # a tile firing's phase precedes its actor's next one
                        ph = (key[-1][f[0]] - 1) % self.phases[f[0]] if phased else 0
                        firings[t] = self._work(t, (f[0], f[1] + time, ph), time)
                    elif f is not None:
                        firings[t] = (f[0], self._instant(t, f, time)[1] - time)
                key = key[:2] + (tuple(firings),) + key[3:]
            converted[key] = value
        return converted

    def restore(self, state: Frontier, seen: Sequence, steps: Optional[int]) -> None:
        """Load a checkpoint's visited map (:func:`seen_to_json` form,
        remaining-work keys) and step count into ``state``.

        A checkpoint without ``steps`` keyed every instant, one entry
        per step: it keeps, in time order, the first entry and each one
        whose reference count rose, the keys :meth:`run` would have
        stored.
        """
        loaded = seen_from_json(seen)
        if steps is None:
            steps, ref = len(loaded), self.reference
            if ref is not None:
                kept: Seen = {}
                mark = -1
                for key, value in sorted(loaded.items(), key=lambda e: e[1][0]):
                    if value[1][ref] != mark:
                        kept[key] = value
                        mark = value[1][ref]
                loaded = kept
        state.seen = self.convert_seen(loaded, to_work=False)
        state.steps = steps

    def run(
        self,
        state: Frontier,
        max_states: int = DEFAULT_MAX_STATES,
        budget: Optional[Budget] = None,
        until: Optional[Tuple[int, int]] = None,
    ) -> Any:
        """Continue the execution in ``state``.

        Returns the :class:`ExecutionResult` (without certificate) at
        the first recurrent state or deadlock; its ``states_explored``
        counts the instants visited before it, and ``max_states`` caps
        them.  With ``until=(actor,
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
        most = self.max_phases
        phased = most > 1
        tokens, phase = state.tokens, state.phase
        completed, dispatch = state.completed, state.dispatch
        seen, time, steps = state.seen, state.time, state.steps
        # the reference's completion count at the last stored key (the
        # latest entry of ``seen``), -1 before the first
        ref = self.reference
        mark = next(reversed(seen.values()))[1][ref] if seen and ref is not None else -1
        # the unbound firings' completion calendar, and the codes of one
        # time unit
        n = len(times)
        span = n * most
        calendar = self._calendar(
            [(a, f) for a, f in enumerate(state.active) if tile_of[a] is None], time
        )
        # serial runs: firings in flight per actor (at most one)
        running = [len(f) for f in state.active] if serial else []
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
                            error.partial.setdefault("states_explored", steps)
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
                        while burst <= BURST_LIMIT and not (serial and running[a]):
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
                                    insort(
                                        calendar,
                                        ((time + duration) * n + a) * most + ph,
                                    )
                                    if serial:
                                        running[a] += 1
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
                    if ref is None or completed[ref] != mark:
                        now = time * span
                        key: Tuple = (
                            tuple(tokens),
                            tuple([e - now for e in calendar]),
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
                                    actor: done - before
                                    for actor, done, before in zip(
                                        self.actors, completed, first[1]
                                    )
                                },
                                states_explored=steps,
                            )
                        seen[key] = (time, tuple(completed))
                        if ref is not None:
                            mark = completed[ref]
                    steps += 1
                    if steps > max_states:
                        raise StateSpaceExplosionError(
                            f"exceeded {max_states} states on graph "
                            f"{self.name!r} (channels unbounded or budget "
                            "too small)"
                        )
                elif completed[target] >= count:
                    return time

                # -- advance to the next completion
                next_time = calendar[0] // span if calendar else None
                for f in tile_active:
                    if f is not None and (next_time is None or f[1] < next_time):
                        next_time = f[1]
                if next_time is None or next_time == NEVER:
                    if explore:
                        return ExecutionResult(
                            transient_time=time,
                            period=None,
                            period_firings={},
                            states_explored=steps,
                            deadlocked=True,
                        )
                    return None
                if on_step is not None:
                    on_step(time, next_time)
                ending = bisect_left(calendar, (next_time + 1) * span)
                if ending:
                    base = next_time * n
                    for e in calendar[:ending]:
                        a, ph = divmod(e, most)
                        a -= base
                        for c, r, m in outputs[a][ph]:
                            tokens[c] += r
                            marks |= m
                        completed[a] += 1
                        if serial:
                            running[a] -= 1
                            marks |= bits[a]
                        if on_firing is not None and free_started[a]:
                            on_firing(
                                actors[a], None, free_started[a].pop(0), next_time
                            )
                    del calendar[:ending]
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
            state.steps = steps
            state.enablement_checks += checks
            state.active = self._active(calendar, time)
            state.tile_active = [
                f and self._work(t, f, time) for t, f in enumerate(tile_active)
            ]
