"""The lint rule catalogue (see docs/ANALYSIS.md for the user view).

Every rule is a function taking one model and yielding
:class:`~repro.analysis.diagnostics.Diagnostic` findings.  Rules are
registered in :data:`RULES` with a stable ID, a severity, and a short
title; the engine (:mod:`repro.analysis.engine`) groups them by the
model kind they apply to.

Rule IDs are stable API: baselines, ``--select/--ignore`` filters and
SARIF consumers key on them.  Never renumber; retire by deletion.

* ``SDF0xx`` — SDF graph structure (consistency, deadlock, dead
  actors, self-loop concurrency, connectivity)
* ``CSD0xx`` — CSDF graph structure
* ``ARC0xx`` — architecture graphs (isolated tiles, dead links,
  exhausted wheels)
* ``APP0xx`` — application graphs, optionally against a platform
  (missing Γ entries, statically infeasible throughput constraints)
* ``ALLOC0xx`` — allocation bundles in their plain-dict form
  (oversubscribed wheels, static-order coverage)

Locations come from the ``source``/``provenance`` attributes the
serializers stamp onto models; models built through the API fall back
to element-only locations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.analysis.bounds import serialisation_bound, utilisation_bound
from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    Location,
)
from repro.appmodel.application import ApplicationGraph
from repro.arch.architecture import ArchitectureGraph
from repro.csdf.graph import CSDFGraph
from repro.sdf.analysis import stalled_actors, undirected_components
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import (
    DataflowGraph,
    InconsistentGraphError,
    balance,
    repetition_vector,
)


def _location(model: Any, kind: str, name: str, element: str) -> Location:
    """A location for element ``(kind, name)`` of ``model``.

    Uses the ``source``/``provenance`` attributes serializers stamp on
    parsed models; API-built models get element-only locations.
    """
    provenance = getattr(model, "provenance", None) or {}
    return Location(
        source=getattr(model, "source", None),
        field=provenance.get((kind, name)),
        element=element,
    )


# ---------------------------------------------------------------------------
# Checks shared by the SDF and CSDF rules (an SDF actor is the one-phase
# case of a CSDF actor)


def _inconsistent_rates(
    graph: DataflowGraph, rule_id: str, totals: str, hint: str
) -> Iterator[Diagnostic]:
    """One finding per inconsistent weakly connected component, at the
    first conflicting channel :func:`~repro.sdf.repetition.balance`
    records."""
    for channel, *_ in balance(graph)[1]:
        yield Diagnostic(
            rule_id,
            ERROR,
            f"inconsistent rates: channel {channel.name!r} "
            f"({channel.src} -> {channel.dst}, {totals}"
            f"{channel.total_production}/{channel.total_consumption}) "
            f"contradicts the rates derived from the rest of its component",
            _location(graph, "channel", channel.name, f"channel {channel.name!r}"),
            hint=hint,
        )


def _structural_deadlock(
    graph: DataflowGraph, rule_id: str, iteration: str
) -> Iterator[Diagnostic]:
    """The stalled actors of one abstract iteration as witness; nothing
    for an inconsistent graph, which has no repetition vector."""
    try:
        gamma = repetition_vector(graph)
    except InconsistentGraphError:
        return
    pending = stalled_actors(graph, gamma)
    if pending:
        witness = ", ".join(pending[:5])
        if len(pending) > 5:
            witness += f", ... ({len(pending) - 5} more)"
        yield Diagnostic(
            rule_id,
            ERROR,
            f"structural deadlock: {iteration} stalls with firings "
            f"still owed by {witness}",
            _location(graph, "graph", graph.name, f"graph {graph.name!r}"),
            hint="add initial tokens on a cycle channel to break the deadlock",
        )


def _dead_actors(
    graph: Union[SDFGraph, CSDFGraph], rule_id: str
) -> Iterator[Diagnostic]:
    if len(graph) <= 1:
        return
    for actor in graph.actor_names:
        if not graph.out_channels(actor) and not graph.in_channels(actor):
            yield Diagnostic(
                rule_id,
                WARNING,
                f"dead actor: {actor!r} has no incident channels and "
                f"cannot exchange data with the rest of the graph",
                _location(graph, "actor", actor, f"actor {actor!r}"),
                hint="connect the actor or drop it from the graph",
            )


# ---------------------------------------------------------------------------
# SDF graph rules


def sdf001_inconsistent_rates(graph: SDFGraph) -> Iterator[Diagnostic]:
    """SDF001: the balance equations admit no repetition vector."""
    return _inconsistent_rates(
        graph,
        "SDF001",
        "",
        "balance p * gamma(src) = q * gamma(dst) on every channel",
    )


def sdf002_structural_deadlock(graph: SDFGraph) -> Iterator[Diagnostic]:
    """SDF002: one iteration cannot execute from the initial tokens.

    Skipped for inconsistent graphs (SDF001 already fired and a
    repetition vector does not exist).  The witness names the actors
    that still owe firings when execution stalls.
    """
    return _structural_deadlock(graph, "SDF002", "one iteration")


def sdf003_dead_actor(graph: SDFGraph) -> Iterator[Diagnostic]:
    """SDF003: an actor with no incident channels in a multi-actor graph."""
    return _dead_actors(graph, "SDF003")


def sdf004_starved_self_loop(graph: SDFGraph) -> Iterator[Diagnostic]:
    """SDF004: a self-loop with fewer initial tokens than it consumes."""
    for channel in graph.channels:
        if channel.is_self_loop and channel.tokens < channel.consumption:
            yield Diagnostic(
                "SDF004",
                ERROR,
                f"starved self-loop: channel {channel.name!r} on actor "
                f"{channel.src!r} holds {channel.tokens} token(s) but each "
                f"firing consumes {channel.consumption}; the actor can "
                f"never fire",
                _location(
                    graph, "channel", channel.name, f"channel {channel.name!r}"
                ),
                hint=f"give the self-loop at least {channel.consumption} "
                f"initial token(s)",
            )


def sdf005_serialised_self_loop(graph: SDFGraph) -> Iterator[Diagnostic]:
    """SDF005: a self-loop admitting exactly one concurrent firing."""
    for channel in graph.channels:
        if (
            channel.is_self_loop
            and channel.consumption <= channel.tokens
            and channel.tokens // channel.consumption == 1
        ):
            yield Diagnostic(
                "SDF005",
                INFO,
                f"self-loop {channel.name!r} serialises actor "
                f"{channel.src!r}: its token budget admits exactly one "
                f"firing at a time (auto-concurrency disabled)",
                _location(
                    graph, "channel", channel.name, f"channel {channel.name!r}"
                ),
            )


def sdf006_disconnected(graph: SDFGraph) -> Iterator[Diagnostic]:
    """SDF006: the graph splits into independent weak components."""
    components = undirected_components(graph)
    if len(components) <= 1:
        return
    sizes = ", ".join(str(len(c)) for c in components)
    yield Diagnostic(
        "SDF006",
        WARNING,
        f"graph is not connected: {len(components)} independent "
        f"components (sizes {sizes}); throughput analysis treats them "
        f"as one application",
        _location(graph, "graph", graph.name, f"graph {graph.name!r}"),
        hint="split independent components into separate applications",
    )


# ---------------------------------------------------------------------------
# CSDF graph rules


def csd001_inconsistent_rates(graph: CSDFGraph) -> Iterator[Diagnostic]:
    """CSD001: the cycle-level balance equations have no solution."""
    return _inconsistent_rates(
        graph,
        "CSD001",
        "cycle totals ",
        "balance total_production * gamma(src) = "
        "total_consumption * gamma(dst) on every channel",
    )


def csd002_structural_deadlock(graph: CSDFGraph) -> Iterator[Diagnostic]:
    """CSD002: one phase-accurate iteration stalls.

    Skipped for inconsistent graphs (CSD001 already fired).
    """
    return _structural_deadlock(
        graph, "CSD002", "one phase-accurate iteration"
    )


def csd003_dead_actor(graph: CSDFGraph) -> Iterator[Diagnostic]:
    """CSD003: an actor with no incident channels in a multi-actor graph."""
    return _dead_actors(graph, "CSD003")


# ---------------------------------------------------------------------------
# Architecture rules


def arc001_isolated_tile(
    architecture: ArchitectureGraph,
) -> Iterator[Diagnostic]:
    """ARC001: a tile no connection reaches or leaves (multi-tile only).

    Applications whose channels must cross tiles can never span such a
    tile, so bindings that use it are confined to local channels.
    """
    if len(architecture) <= 1:
        return
    linked = set()
    for connection in architecture.connections:
        linked.add(connection.src)
        linked.add(connection.dst)
    for tile in architecture.tiles:
        if tile.name not in linked:
            yield Diagnostic(
                "ARC001",
                WARNING,
                f"isolated tile: {tile.name!r} has no connection to or "
                f"from any other tile; only fully-local bindings can "
                f"use it",
                _location(
                    architecture, "tile", tile.name, f"tile {tile.name!r}"
                ),
                hint="add connections or drop the tile",
            )


def arc002_dead_connection(
    architecture: ArchitectureGraph,
) -> Iterator[Diagnostic]:
    """ARC002: a connection whose endpoint has zero bandwidth capacity."""
    for connection in architecture.connections:
        key = f"{connection.src}->{connection.dst}"
        src_out = architecture.tile(connection.src).bandwidth_out
        dst_in = architecture.tile(connection.dst).bandwidth_in
        if src_out == 0 or dst_in == 0:
            culprit = (
                f"{connection.src!r} has no outgoing bandwidth"
                if src_out == 0
                else f"{connection.dst!r} has no incoming bandwidth"
            )
            yield Diagnostic(
                "ARC002",
                WARNING,
                f"dead connection {key}: tile {culprit}, so no channel "
                f"can ever be mapped onto this link",
                _location(architecture, "connection", key, f"connection {key}"),
                hint="raise the tile's bandwidth or remove the connection",
            )


def arc003_exhausted_tile(
    architecture: ArchitectureGraph,
) -> Iterator[Diagnostic]:
    """ARC003: a tile whose TDMA wheel is fully occupied."""
    for tile in architecture.tiles:
        if tile.wheel_remaining < 1:
            yield Diagnostic(
                "ARC003",
                WARNING,
                f"exhausted tile: {tile.name!r} has "
                f"{tile.wheel_occupied}/{tile.wheel} wheel units occupied; "
                f"no further time slice can be allocated on it",
                _location(
                    architecture, "tile", tile.name, f"tile {tile.name!r}"
                ),
            )


# ---------------------------------------------------------------------------
# Application rules


def app001_no_processor_type(
    application: ApplicationGraph,
    architecture: Optional[ArchitectureGraph] = None,
) -> Iterator[Diagnostic]:
    """APP001: an actor with an empty Γ (no supported processor type)."""
    for actor, requirements in application.actor_requirements.items():
        if not requirements.options:
            yield Diagnostic(
                "APP001",
                ERROR,
                f"actor {actor!r} has no Γ entry: no processor type can "
                f"run it, so no binding exists",
                _app_actor_location(application, actor),
                hint="declare at least one (processor type, time, memory) "
                "option for the actor",
            )


def app002_constraint_exceeds_serial_bound(
    application: ApplicationGraph,
    architecture: Optional[ArchitectureGraph] = None,
) -> Iterator[Diagnostic]:
    """APP002: the throughput constraint beats the serialisation bound.

    The bound (see :mod:`repro.analysis.bounds`) holds for every
    possible allocation, so exceeding it is statically infeasible — no
    state-space exploration required.
    """
    constraint = Fraction(application.throughput_constraint)
    if constraint <= 0:
        return
    bound, limiting = serialisation_bound(application)
    if bound is not None and constraint > bound:
        yield Diagnostic(
            "APP002",
            ERROR,
            f"throughput constraint {constraint} exceeds the static "
            f"serialisation bound {bound} set by actor {limiting!r} "
            f"(firings serialise on whichever tile it is bound to)",
            _app_location(
                application, "throughput_constraint", "throughput constraint"
            ),
            hint=f"relax the constraint to at most {bound} or speed up "
            f"actor {limiting!r}",
        )


def app003_constraint_exceeds_capacity(
    application: ApplicationGraph,
    architecture: Optional[ArchitectureGraph] = None,
) -> Iterator[Diagnostic]:
    """APP003: the constraint beats the platform's utilisation bound."""
    if architecture is None:
        return
    constraint = Fraction(application.throughput_constraint)
    if constraint <= 0:
        return
    bound = utilisation_bound(application, architecture)
    if bound is not None and constraint > bound:
        yield Diagnostic(
            "APP003",
            ERROR,
            f"throughput constraint {constraint} exceeds the platform "
            f"utilisation bound {bound}: the remaining TDMA capacity of "
            f"{architecture.name!r} cannot supply one iteration's work "
            f"at that rate",
            _app_location(
                application, "throughput_constraint", "throughput constraint"
            ),
            hint=f"relax the constraint to at most {bound}, free wheel "
            f"capacity, or add tiles",
        )


def app004_unsupported_on_platform(
    application: ApplicationGraph,
    architecture: Optional[ArchitectureGraph] = None,
) -> Iterator[Diagnostic]:
    """APP004: an actor supports only processor types the platform lacks."""
    if architecture is None:
        return
    available = set(architecture.processor_types())
    for actor, requirements in application.actor_requirements.items():
        supported = set(requirements.supported_types)
        if supported and not (supported & available):
            names = ", ".join(sorted(t.name for t in supported))
            yield Diagnostic(
                "APP004",
                ERROR,
                f"actor {actor!r} supports only processor type(s) "
                f"[{names}] but architecture {architecture.name!r} "
                f"provides none of them",
                _app_actor_location(application, actor),
                hint="add a supported tile type to the platform or a Γ "
                "option for an available type",
            )


def app005_uncrossable_channel(
    application: ApplicationGraph,
    architecture: Optional[ArchitectureGraph] = None,
) -> Iterator[Diagnostic]:
    """APP005: a zero-bandwidth channel whose endpoints can never co-locate.

    A channel with ``beta = 0`` must stay inside one tile, but when its
    endpoint actors share no supported processor type no single tile
    can host both — the binding problem is infeasible regardless of the
    platform's size.
    """
    for name, theta in application.channel_requirements.items():
        if theta.crossable:
            continue
        channel = application.graph.channel(name)
        if channel.is_self_loop:
            continue
        src_types = set(
            application.actor_requirements[channel.src].supported_types
        )
        dst_types = set(
            application.actor_requirements[channel.dst].supported_types
        )
        if src_types and dst_types and not (src_types & dst_types):
            yield Diagnostic(
                "APP005",
                ERROR,
                f"channel {name!r} has zero bandwidth (must stay inside "
                f"one tile) but actors {channel.src!r} and {channel.dst!r} "
                f"share no supported processor type, so they can never "
                f"be co-located",
                _app_channel_location(application, name),
                hint="give the channel bandwidth or add a common "
                "processor type to both actors",
            )


def _app_location(
    application: ApplicationGraph, field_key: str, element: str
) -> Location:
    provenance = getattr(application, "provenance", None) or {}
    return Location(
        source=getattr(application, "source", None),
        field=provenance.get(("application", field_key)),
        element=element,
    )


def _app_actor_location(application: ApplicationGraph, actor: str) -> Location:
    """Prefer the application's Γ field, else the graph's actor entry."""
    provenance = getattr(application, "provenance", None) or {}
    field = provenance.get(("requirements", actor))
    if field is None:
        graph_provenance = getattr(application.graph, "provenance", None) or {}
        field = graph_provenance.get(("actor", actor))
    return Location(
        source=getattr(application, "source", None)
        or getattr(application.graph, "source", None),
        field=field,
        element=f"actor {actor!r}",
    )


def _app_channel_location(
    application: ApplicationGraph, channel: str
) -> Location:
    provenance = getattr(application, "provenance", None) or {}
    field = provenance.get(("requirements", channel))
    if field is None:
        graph_provenance = getattr(application.graph, "provenance", None) or {}
        field = graph_provenance.get(("channel", channel))
    return Location(
        source=getattr(application, "source", None)
        or getattr(application.graph, "source", None),
        field=field,
        element=f"channel {channel!r}",
    )


# ---------------------------------------------------------------------------
# Allocation bundle rules (plain-dict form, like repro.verify)


def _bundle_location(source: Optional[str], field: str, element: str) -> Location:
    return Location(source=source, field=field, element=element)


def alloc001_wheel_oversubscribed(
    bundle: Dict[str, Any], source: Optional[str] = None
) -> Iterator[Diagnostic]:
    """ALLOC001: committed time slices exceed a tile's TDMA wheel.

    Checks each allocation's slice against the wheel capacity and the
    *sum* of all allocations' claims per tile against wheel capacity
    (the flow commits allocations cumulatively).
    """
    wheels: Dict[str, int] = {}
    for tile in bundle.get("architecture", {}).get("tiles", []):
        if isinstance(tile, dict) and "name" in tile:
            wheels[tile["name"]] = int(tile.get("wheel", 0))
    claimed: Dict[str, int] = {}
    for index, allocation in enumerate(bundle.get("allocations", [])):
        for tile_name, entry in allocation.get("reservation", {}).items():
            time_slice = int(entry.get("time_slice", 0))
            claimed[tile_name] = claimed.get(tile_name, 0) + time_slice
            wheel = wheels.get(tile_name)
            if wheel is not None and time_slice > wheel:
                yield Diagnostic(
                    "ALLOC001",
                    ERROR,
                    f"allocation #{index} claims a time slice of "
                    f"{time_slice} on tile {tile_name!r}, exceeding its "
                    f"TDMA wheel of {wheel}",
                    _bundle_location(
                        source,
                        f"allocations[{index}].reservation[{tile_name}]",
                        f"tile {tile_name!r}",
                    ),
                )
    for tile_name, total in claimed.items():
        wheel = wheels.get(tile_name)
        if wheel is not None and total > wheel:
            yield Diagnostic(
                "ALLOC001",
                ERROR,
                f"the bundle's allocations together claim {total} wheel "
                f"units on tile {tile_name!r}, exceeding its TDMA wheel "
                f"of {wheel}",
                _bundle_location(
                    source, "allocations", f"tile {tile_name!r}"
                ),
                hint="re-run the flow; the bundle was not produced by "
                "committing allocations in sequence",
            )


def alloc002_schedule_coverage(
    bundle: Dict[str, Any], source: Optional[str] = None
) -> Iterator[Diagnostic]:
    """ALLOC002: static-order schedules disagree with the binding.

    Every actor bound to a tile must appear in that tile's periodic
    static-order schedule and vice versa.  Allocations without any
    schedules (pure TDMA baselines) are skipped.
    """
    for index, allocation in enumerate(bundle.get("allocations", [])):
        schedules = allocation.get("schedules", {})
        if not schedules:
            continue
        binding = allocation.get("binding", {})
        bound: Dict[str, set] = {}
        for actor, tile_name in binding.items():
            bound.setdefault(tile_name, set()).add(actor)
        for tile_name, entry in schedules.items():
            scheduled = set(entry.get("periodic", []))
            expected = bound.get(tile_name, set())
            missing = expected - scheduled
            extra = scheduled - expected
            if missing:
                yield Diagnostic(
                    "ALLOC002",
                    ERROR,
                    f"allocation #{index}: actors {sorted(missing)} are "
                    f"bound to tile {tile_name!r} but absent from its "
                    f"periodic static-order schedule",
                    _bundle_location(
                        source,
                        f"allocations[{index}].schedules[{tile_name}]",
                        f"tile {tile_name!r}",
                    ),
                )
            if extra:
                yield Diagnostic(
                    "ALLOC002",
                    ERROR,
                    f"allocation #{index}: schedule of tile {tile_name!r} "
                    f"lists actors {sorted(extra)} that are not bound to "
                    f"it",
                    _bundle_location(
                        source,
                        f"allocations[{index}].schedules[{tile_name}]",
                        f"tile {tile_name!r}",
                    ),
                )
        for tile_name, expected in bound.items():
            if expected and tile_name not in schedules:
                yield Diagnostic(
                    "ALLOC002",
                    ERROR,
                    f"allocation #{index}: tile {tile_name!r} has bound "
                    f"actors {sorted(expected)} but no static-order "
                    f"schedule",
                    _bundle_location(
                        source,
                        f"allocations[{index}].schedules",
                        f"tile {tile_name!r}",
                    ),
                )


def alloc003_unknown_tile(
    bundle: Dict[str, Any], source: Optional[str] = None
) -> Iterator[Diagnostic]:
    """ALLOC003: a binding or reservation references an undeclared tile."""
    known = {
        tile["name"]
        for tile in bundle.get("architecture", {}).get("tiles", [])
        if isinstance(tile, dict) and "name" in tile
    }
    for index, allocation in enumerate(bundle.get("allocations", [])):
        for actor, tile_name in allocation.get("binding", {}).items():
            if tile_name not in known:
                yield Diagnostic(
                    "ALLOC003",
                    ERROR,
                    f"allocation #{index} binds actor {actor!r} to tile "
                    f"{tile_name!r}, which the bundle's architecture does "
                    f"not declare",
                    _bundle_location(
                        source,
                        f"allocations[{index}].binding[{actor}]",
                        f"tile {tile_name!r}",
                    ),
                )
        for tile_name in allocation.get("reservation", {}):
            if tile_name not in known:
                yield Diagnostic(
                    "ALLOC003",
                    ERROR,
                    f"allocation #{index} reserves resources on tile "
                    f"{tile_name!r}, which the bundle's architecture does "
                    f"not declare",
                    _bundle_location(
                        source,
                        f"allocations[{index}].reservation[{tile_name}]",
                        f"tile {tile_name!r}",
                    ),
                )


# ---------------------------------------------------------------------------
# The registry


class Rule:
    """One registered rule: stable ID, severity, kind, and checker."""

    def __init__(
        self, rule_id: str, severity: str, kind: str, title: str, check: Any
    ) -> None:
        self.rule_id = rule_id
        self.severity = severity
        self.kind = kind
        self.title = title
        self.check = check


#: Every rule, in catalogue order.  ``kind`` selects the model the
#: engine feeds the rule: ``sdf``, ``csdf``, ``arch``, ``app`` (takes
#: ``(application, architecture)``) or ``bundle`` (takes
#: ``(bundle_dict, source)``).
RULES: Tuple[Rule, ...] = (
    Rule("SDF001", ERROR, "sdf", "inconsistent rates", sdf001_inconsistent_rates),
    Rule("SDF002", ERROR, "sdf", "structural deadlock", sdf002_structural_deadlock),
    Rule("SDF003", WARNING, "sdf", "dead actor", sdf003_dead_actor),
    Rule("SDF004", ERROR, "sdf", "starved self-loop", sdf004_starved_self_loop),
    Rule("SDF005", INFO, "sdf", "serialised self-loop", sdf005_serialised_self_loop),
    Rule("SDF006", WARNING, "sdf", "disconnected graph", sdf006_disconnected),
    Rule("CSD001", ERROR, "csdf", "inconsistent rates", csd001_inconsistent_rates),
    Rule("CSD002", ERROR, "csdf", "structural deadlock", csd002_structural_deadlock),
    Rule("CSD003", WARNING, "csdf", "dead actor", csd003_dead_actor),
    Rule("ARC001", WARNING, "arch", "isolated tile", arc001_isolated_tile),
    Rule("ARC002", WARNING, "arch", "dead connection", arc002_dead_connection),
    Rule("ARC003", WARNING, "arch", "exhausted tile", arc003_exhausted_tile),
    Rule("APP001", ERROR, "app", "actor without Γ entry", app001_no_processor_type),
    Rule(
        "APP002",
        ERROR,
        "app",
        "constraint exceeds serialisation bound",
        app002_constraint_exceeds_serial_bound,
    ),
    Rule(
        "APP003",
        ERROR,
        "app",
        "constraint exceeds platform capacity",
        app003_constraint_exceeds_capacity,
    ),
    Rule(
        "APP004",
        ERROR,
        "app",
        "actor unsupported on platform",
        app004_unsupported_on_platform,
    ),
    Rule(
        "APP005",
        ERROR,
        "app",
        "uncrossable channel cannot co-locate",
        app005_uncrossable_channel,
    ),
    Rule(
        "ALLOC001",
        ERROR,
        "bundle",
        "TDMA wheel oversubscribed",
        alloc001_wheel_oversubscribed,
    ),
    Rule(
        "ALLOC002",
        ERROR,
        "bundle",
        "static-order schedule coverage",
        alloc002_schedule_coverage,
    ),
    Rule(
        "ALLOC003",
        ERROR,
        "bundle",
        "unknown tile referenced",
        alloc003_unknown_tile,
    ),
    # Concurrency rules over the repository's own source.  ``kind``
    # "source" is not dispatched by the model engine — the checks live
    # in :mod:`repro.analysis.source`, which looks its severities up
    # here so the catalogue (and the SARIF rule metadata) stays the
    # single source of truth.
    Rule(
        "CON001",
        ERROR,
        "source",
        "guarded attribute accessed without its lock",
        None,
    ),
    Rule(
        "CON002",
        WARNING,
        "source",
        "guarded mutable state escapes by reference",
        None,
    ),
    Rule(
        "CON003",
        WARNING,
        "source",
        "blocking call while holding a lock",
        None,
    ),
    Rule(
        "CON004",
        ERROR,
        "source",
        "lock-order cycle (potential deadlock)",
        None,
    ),
)


def rules_for(kind: str) -> List[Rule]:
    """The registered rules applying to one model kind."""
    return [rule for rule in RULES if rule.kind == kind]
