"""Independent replay of periodic-phase certificates.

A certificate claims: *starting from this recurrent state, the graph
fires these actors this many times within exactly this period and
returns to the same state*.  If that claim holds, repeating the window
forever is a legal execution, so ``firings[a] / period`` is a throughput
the system genuinely achieves — regardless of how the engine that
emitted the certificate found it.

This module checks the claim from scratch.  It deliberately shares **no
code** with :mod:`repro.throughput.state_space` or
:mod:`repro.throughput.constrained`: the token game, the TDMA slice
gating arithmetic and the static-order bookkeeping are all reimplemented
here (differently where possible — e.g. slice gating inverts the
cumulative busy-time function instead of walking rotation remainders).
A bug in an engine therefore cannot vouch for itself.

Replay cost is O(period): the execution is event-driven and every event
advances time by at least one unit.  A certificate that deadlocks,
misses the claimed period, fails to return to its start state, or
reports wrong firing counts raises :class:`RefutationError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.verify.certificate import validate_certificate

#: cap on zero-duration firings at one time instant during replay
_ZERO_BURST_GUARD = 1_000_000


class RefutationError(Exception):
    """A certificate's claimed periodic phase does not replay."""


def _refute(message: str) -> None:
    raise RefutationError(message)


#: per actor, per phase: [(channel position, tokens), ...]
Wiring = List[List[List[Tuple[int, int]]]]


def _wire(
    certificate: Dict[str, Any], topology: Mapping[str, Mapping[str, Any]]
) -> Tuple[Wiring, Wiring]:
    """Per-actor, per-phase (channel, rate) input/output lists.

    ``topology`` maps each certificate channel name to its endpoints and
    rates (``src``/``dst`` and ``production``/``consumption``, or per
    phase ``productions``/``consumptions``, where a phase may move no
    token) — supplied by the caller from the *graph*, never taken from
    the certificate, so a forged certificate cannot invent a more
    convenient wiring.  An actor has as many phases as it has times.
    """
    actors = certificate["actors"]
    index = {name: i for i, name in enumerate(actors)}
    phases = [
        len(t) if isinstance(t, list) else 1 for t in certificate["execution_times"]
    ]
    inputs: Wiring = [[[] for _ in range(n)] for n in phases]
    outputs: Wiring = [[[] for _ in range(n)] for n in phases]
    for position, name in enumerate(certificate["channels"]):
        if name not in topology:
            _refute(f"certificate channel {name!r} is not in the graph")
        channel = topology[name]
        src, dst = channel["src"], channel["dst"]
        if src not in index or dst not in index:
            _refute(
                f"channel {name!r} connects actors outside the certificate"
            )
        for side, actor, key in (
            (outputs, index[src], "production"),
            (inputs, index[dst], "consumption"),
        ):
            # per-phase rates, or the one-phase rate as a list of one
            rates = channel.get(key + "s", [channel.get(key)])
            if not (
                isinstance(rates, list)
                and len(rates) == phases[actor]
                and all(isinstance(r, int) and r >= 0 for r in rates)
                and sum(rates) > 0
            ):
                _refute(f"channel {name!r} has non-positive rates")
            for phase, rate in enumerate(rates):
                side[actor][phase].append((position, rate))
    return inputs, outputs


def _as_phased(cert: Dict[str, Any]) -> Dict[str, Any]:
    """A self-timed certificate in phased form: a one-phase one gets one
    time per actor as a list, next phases 0 and every firing in flight
    in phase 0."""
    if "phases" in cert:
        return cert
    return dict(
        cert,
        execution_times=[[tau] for tau in cert["execution_times"]],
        phases=[0] * len(cert["actors"]),
        active_phases=[[0] * len(entry) for entry in cert["active"]],
    )


def replay_self_timed(
    certificate: Dict[str, Any], topology: Mapping[str, Mapping[str, Any]]
) -> Dict[str, Any]:
    """Replay a ``"self-timed"`` certificate; returns ``{period, firings}``.

    A phased certificate (one with ``phases``) lists per-phase times:
    each actor runs its phases in turn from its entry in ``phases``, and
    each firing in flight ends in its phase from ``active_phases``.
    Raises :class:`RefutationError` when the claimed window is not a
    legal periodic phase of the self-timed execution.
    """
    cert = validate_certificate(certificate)
    if cert["kind"] != "self-timed":
        _refute(f"expected a self-timed certificate, got {cert['kind']!r}")
    cert = _as_phased(cert)
    actors: List[str] = cert["actors"]
    count = len(actors)
    times: List[List[int]] = cert["execution_times"]
    inputs, outputs = _wire(cert, topology)
    auto: bool = cert["auto_concurrency"]
    period: int = cert["period"]

    start_tokens = list(cert["tokens"])
    # each firing in flight as (remaining time, phase)
    start_active = [
        sorted(zip(entry, phases))
        for entry, phases in zip(cert["active"], cert["active_phases"])
    ]
    if not auto and any(len(entry) > 1 for entry in start_active):
        _refute(
            "certificate claims concurrent firings of one actor although "
            "auto-concurrency is off"
        )

    tokens = list(start_tokens)
    next_phase = list(cert["phases"])
    active = [list(entry) for entry in start_active]
    fired = [0] * count
    burst = [0]

    def startable(actor: int) -> bool:
        if not auto and active[actor]:
            return False
        return all(
            tokens[c] >= need for c, need in inputs[actor][next_phase[actor]]
        )

    def start_phase() -> None:
        progress = True
        while progress:
            progress = False
            for actor in range(count):
                while startable(actor):
                    phase = next_phase[actor]
                    next_phase[actor] = (phase + 1) % len(times[actor])
                    for channel, need in inputs[actor][phase]:
                        tokens[channel] -= need
                    if times[actor][phase] == 0:
                        for channel, out in outputs[actor][phase]:
                            tokens[channel] += out
                        fired[actor] += 1
                        burst[0] += 1
                        if burst[0] > _ZERO_BURST_GUARD:
                            _refute(
                                "unbounded zero-duration firing burst "
                                "during replay"
                            )
                    else:
                        active[actor].append((times[actor][phase], phase))
                    progress = True
            # only zero-duration completions can enable further actors
            # within the same instant
            if not any(0 in t for t in times):
                break

    # the engine records states *after* exhausting every enabled firing,
    # so a genuine window state is a fixed point of the start phase
    if any(startable(actor) for actor in range(count)):
        _refute("claimed window state still has enabled firings")

    elapsed = 0
    while elapsed < period:
        remaining = [r for entry in active for r, _ in entry]
        if not remaining:
            _refute("claimed periodic phase deadlocks")
        step = min(remaining)
        if elapsed + step > period:
            _refute("no completion event lands on the claimed period")
        elapsed += step
        for actor, entry in enumerate(active):
            active[actor] = [(r - step, ph) for r, ph in entry if r > step]
            for remaining, phase in entry:
                if remaining == step:
                    for channel, out in outputs[actor][phase]:
                        tokens[channel] += out
                    fired[actor] += 1
        start_phase()

    if tokens != start_tokens:
        _refute("token distribution does not recur after the claimed period")
    if any(sorted(active[a]) != start_active[a] for a in range(count)):
        _refute("active firings do not recur after the claimed period")
    if next_phase != cert["phases"]:
        _refute("next phases do not recur after the claimed period")
    observed = {name: fired[i] for i, name in enumerate(actors)}
    if observed != cert["firings"]:
        _refute("firing counts inside the window do not match the claim")
    return {"period": period, "firings": observed}


def replay_certificate(
    certificate: Dict[str, Any], topology: Mapping[str, Mapping[str, Any]]
) -> Dict[str, Any]:
    """Replay a certificate of either kind (dispatch on ``kind``)."""
    cert = validate_certificate(certificate)
    if cert["kind"] == "self-timed":
        return replay_self_timed(cert, topology)
    return replay_constrained(cert, topology)


def check_window_reachable(
    certificate: Dict[str, Any], topology: Mapping[str, Mapping[str, Any]]
) -> None:
    """Token-invariant check tying the window state to the initial state.

    Replay alone proves the window is *periodic*; this check ties it to
    the actual graph: every linear token invariant (any quantity
    conserved by all firings, e.g. the token sum around a cycle) must
    take the same value in the window state as in the initial token
    distribution.  A forged certificate that simply inflates token
    counts on a bounded cycle fails here even though it replays.

    Each actor's firings start in phase order, so the firings it has
    started are whole cycles of its phases plus phases 0 up to its next
    phase (``phases``; 0 for one-phase actors and every constrained
    certificate).  Completing each firing in flight virtually, by adding
    its phase's production, the window tokens minus the initial tokens
    and minus the started partial cycles must be a rational combination
    of the actors' full-cycle effects.  (Rolling in-flight firings back
    instead would be wrong: they are not always the latest started.)

    ``topology`` entries must carry ``tokens`` (the graph's initial
    tokens) in addition to the endpoint/rate fields.  Raises
    :class:`RefutationError` when an invariant is violated.
    """
    cert = validate_certificate(certificate)
    actors: List[str] = cert["actors"]
    channels: List[str] = cert["channels"]
    if cert["kind"] == "self-timed":
        cert = _as_phased(cert)
        in_flight: List[List[int]] = cert["active_phases"]
        next_phases: List[int] = cert["phases"]
    else:  # one phase: every firing in flight runs phase 0
        in_flight = [[0] * len(entry) for entry in cert["unscheduled_active"]]
        for firing in cert["tile_active"]:
            if firing is not None:
                in_flight[firing[0]].append(0)
        next_phases = [0] * len(actors)
    inputs, outputs = _wire(cert, topology)
    initial = [topology[name].get("tokens") for name in channels]
    for name, tokens in zip(channels, initial):
        if not isinstance(tokens, int) or tokens < 0:
            _refute(f"channel {name!r} has no initial token count")

    def effect(actor: int, phases: range) -> List[Fraction]:
        vector = [Fraction(0)] * len(channels)
        for phase in phases:
            for position, rate in outputs[actor][phase]:
                vector[position] += rate
            for position, rate in inputs[actor][phase]:
                vector[position] -= rate
        return vector

    cycles = [effect(a, range(len(outputs[a]))) for a in range(len(actors))]
    delta = [Fraction(w - i) for w, i in zip(cert["tokens"], initial)]
    for actor in range(len(actors)):
        for phase in in_flight[actor]:
            for position, rate in outputs[actor][phase]:
                delta[position] += rate
        started = effect(actor, range(next_phases[actor]))
        delta = [d - p for d, p in zip(delta, started)]

    # Gaussian elimination: reduce each full-cycle effect, keep the
    # pivots, then reduce the window delta — a non-zero residue means
    # the delta is outside the span, i.e. some invariant changed.
    pivots: List[Tuple[int, List[Fraction]]] = []

    def reduce(vector: List[Fraction]) -> List[Fraction]:
        for pivot_column, pivot_vector in pivots:
            if vector[pivot_column]:
                factor = vector[pivot_column] / pivot_vector[pivot_column]
                vector = [
                    x - factor * y for x, y in zip(vector, pivot_vector)
                ]
        return vector

    for cycle in cycles:
        reduced = reduce(cycle)
        for column, value in enumerate(reduced):
            if value:
                pivots.append((column, reduced))
                break
    if any(reduce(delta)):
        _refute(
            "window token distribution violates a token invariant of the "
            "graph (unreachable from the initial tokens)"
        )


# ---------------------------------------------------------------------------
# constrained replay: static-order schedules + TDMA slice gating


def _slice_busy(
    start: int, end: int, wheel: int, size: int, offset: int
) -> int:
    """Slice-gated progress a tile makes in ``[start, end)``.

    Independent formulation: cumulative busy units up to an instant,
    differenced — not the engine's rotation-remainder walk.
    """
    if size >= wheel:
        return end - start

    def cumulative(instant: int) -> int:
        rotations, into = divmod(instant - offset, wheel)
        return rotations * size + min(into, size)

    return cumulative(end) - cumulative(start)


def _slice_finish(
    start: int, work: int, wheel: int, size: int, offset: int
) -> Optional[int]:
    """Instant at which ``work`` gated units complete; None if never.

    Inverts the cumulative busy-time function: the ``n``-th busy unit of
    the wheel (counting from the slice origin) ends at
    ``offset + (n-1)//size * wheel + ((n-1) % size + 1)``.
    """
    if work <= 0:
        return start
    if size >= wheel:
        return start + work
    if size == 0:
        return None
    rotations, into = divmod(start - offset, wheel)
    done_before = rotations * size + min(into, size)
    target = done_before + work
    full, part = divmod(target, size)
    if part == 0:
        full -= 1
        part = size
    return offset + full * wheel + part


def replay_constrained(
    certificate: Dict[str, Any], topology: Mapping[str, Mapping[str, Any]]
) -> Dict[str, Any]:
    """Replay a ``"constrained"`` certificate; returns ``{period, firings}``.

    The replay honours the same three rules the engine claims to: a
    scheduled actor starts only at the head of its tile's static order
    on an idle tile; a tile runs one firing at a time; scheduled work
    progresses only inside the tile's TDMA slice.  All three are
    enforced with freshly written logic.
    """
    cert = validate_certificate(certificate)
    if cert["kind"] != "constrained":
        _refute(f"expected a constrained certificate, got {cert['kind']!r}")
    actors: List[str] = cert["actors"]
    count = len(actors)
    index = {name: i for i, name in enumerate(actors)}
    inputs, outputs = _wire(cert, topology)
    times: List[int] = cert["execution_times"]
    tiles: List[Dict[str, Any]] = cert["tiles"]
    period: int = cert["period"]
    window_start: int = cert["window_start"]

    # a recurrent state must present the same wheel phase on every tile
    for tile in tiles:
        if period % tile["wheel"] != 0:
            _refute(
                f"period {period} is not a whole number of wheel rotations "
                f"on tile {tile['name']!r}"
            )

    tile_of: List[Optional[int]] = [None] * count
    for tile_idx, tile in enumerate(tiles):
        for name in list(tile["transient"]) + list(tile["periodic"]):
            if name not in index:
                _refute(
                    f"schedule of tile {tile['name']!r} mentions unknown "
                    f"actor {name!r}"
                )
            actor = index[name]
            if tile_of[actor] not in (None, tile_idx):
                _refute(f"actor {name!r} scheduled on more than one tile")
            tile_of[actor] = tile_idx

    def entry_at(tile: Dict[str, Any], position: int) -> int:
        transient, periodic = tile["transient"], tile["periodic"]
        if position < len(transient):
            return index[transient[position]]
        return index[periodic[(position - len(transient)) % len(periodic)]]

    def fold(tile: Dict[str, Any], position: int) -> int:
        transient, periodic = tile["transient"], tile["periodic"]
        if position < len(transient):
            return position
        return len(transient) + (position - len(transient)) % len(periodic)

    start_tokens = list(cert["tokens"])
    start_unscheduled = [sorted(entry) for entry in cert["unscheduled_active"]]
    start_tile_active = [
        tuple(entry) if entry is not None else None
        for entry in cert["tile_active"]
    ]
    for actor, entry in enumerate(start_unscheduled):
        if entry and tile_of[actor] is not None:
            _refute(
                f"scheduled actor {actors[actor]!r} claimed as an "
                "unscheduled firing"
            )
    for tile_idx, firing in enumerate(start_tile_active):
        if firing is not None and tile_of[firing[0]] != tile_idx:
            _refute(
                f"tile {tiles[tile_idx]['name']!r} claimed to execute an "
                "actor not scheduled on it"
            )

    now = window_start  # absolute: the wheel phase is part of the state
    tokens = list(start_tokens)
    unscheduled = [list(entry) for entry in start_unscheduled]
    tile_active = list(start_tile_active)
    positions = [tile["position"] for tile in tiles]
    fired = [0] * count
    burst = [0]

    def tokens_ready(actor: int) -> bool:
        return all(tokens[c] >= need for c, need in inputs[actor][0])

    def consume(actor: int) -> None:
        for channel, need in inputs[actor][0]:
            tokens[channel] -= need

    def produce(actor: int, repeats: int = 1) -> None:
        for channel, out in outputs[actor][0]:
            tokens[channel] += out * repeats

    def any_startable() -> bool:
        for actor in range(count):
            if tile_of[actor] is None and tokens_ready(actor):
                return True
        for tile_idx, tile in enumerate(tiles):
            if tile_active[tile_idx] is None and tokens_ready(
                entry_at(tile, positions[tile_idx])
            ):
                return True
        return False

    def start_phase() -> None:
        progress = True
        while progress:
            progress = False
            for actor in range(count):
                if tile_of[actor] is not None:
                    continue
                while tokens_ready(actor):
                    consume(actor)
                    if times[actor] == 0:
                        produce(actor)
                        fired[actor] += 1
                        burst[0] += 1
                        if burst[0] > _ZERO_BURST_GUARD:
                            _refute(
                                "unbounded zero-duration firing burst "
                                "during replay"
                            )
                    else:
                        unscheduled[actor].append(times[actor])
                    progress = True
            for tile_idx, tile in enumerate(tiles):
                if tile_active[tile_idx] is not None:
                    continue
                actor = entry_at(tile, positions[tile_idx])
                if tokens_ready(actor):
                    consume(actor)
                    positions[tile_idx] += 1
                    if times[actor] == 0:
                        produce(actor)
                        fired[actor] += 1
                    else:
                        tile_active[tile_idx] = (actor, times[actor])
                    progress = True

    if any_startable():
        _refute("claimed window state still has enabled firings")

    window_end = window_start + period
    while now < window_end:
        next_event: Optional[int] = None
        for entry in unscheduled:
            for remaining in entry:
                candidate = now + remaining
                if next_event is None or candidate < next_event:
                    next_event = candidate
        for tile_idx, firing in enumerate(tile_active):
            if firing is None:
                continue
            tile = tiles[tile_idx]
            candidate = _slice_finish(
                now,
                firing[1],
                tile["wheel"],
                tile["slice_size"],
                tile["slice_start"],
            )
            if candidate is None:
                continue
            if next_event is None or candidate < next_event:
                next_event = candidate
        if next_event is None:
            _refute("claimed periodic phase deadlocks")
        if next_event > window_end:
            _refute("no completion event lands on the claimed period")
        step = next_event - now
        for actor in range(count):
            entry = unscheduled[actor]
            if not entry:
                continue
            finished = sum(1 for r in entry if r <= step)
            unscheduled[actor] = [r - step for r in entry if r > step]
            if finished:
                produce(actor, finished)
                fired[actor] += finished
        for tile_idx, firing in enumerate(tile_active):
            if firing is None:
                continue
            tile = tiles[tile_idx]
            progressed = _slice_busy(
                now,
                next_event,
                tile["wheel"],
                tile["slice_size"],
                tile["slice_start"],
            )
            remaining = firing[1] - progressed
            if remaining <= 0:
                produce(firing[0])
                fired[firing[0]] += 1
                tile_active[tile_idx] = None
            else:
                tile_active[tile_idx] = (firing[0], remaining)
        now = next_event
        start_phase()

    if tokens != start_tokens:
        _refute("token distribution does not recur after the claimed period")
    if any(
        sorted(unscheduled[a]) != start_unscheduled[a] for a in range(count)
    ):
        _refute("unscheduled firings do not recur after the claimed period")
    if tile_active != start_tile_active:
        _refute("tile firings do not recur after the claimed period")
    for tile_idx, tile in enumerate(tiles):
        if fold(tile, positions[tile_idx]) != tile["position"]:
            _refute(
                f"schedule position on tile {tile['name']!r} does not "
                "recur after the claimed period"
            )
    observed = {name: fired[i] for i, name in enumerate(actors)}
    if observed != cert["firings"]:
        _refute("firing counts inside the window do not match the claim")
    return {"period": period, "firings": observed}
