"""Core SDFG data structures: actors, channels and the graph itself.

The model follows Definition 1 of the paper: an SDFG is a tuple ``(A, D)``
of a finite set of actors and a finite set of dependency edges
``d = (a, b, p, q)``; when ``a`` fires it produces ``p`` tokens on ``d``
and when ``b`` fires it removes ``q`` tokens from ``d``.  Edges may carry
initial tokens (``Tok``).

Actors optionally carry a default execution time (the paper's timing
function ``Y``); graphs that are analysed independently of a platform use
it directly, while binding-aware graphs override it with the execution
time on the bound processor type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Actor:
    """A node of an SDFG.

    Parameters
    ----------
    name:
        Unique identifier within the graph.
    execution_time:
        Default execution time (time units per firing) used by
        platform-independent throughput analysis.  Binding-aware graphs
        set this to the execution time on the bound processor.
    """

    name: str
    execution_time: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("actor name must be non-empty")
        if self.execution_time < 0:
            raise ValueError(
                f"actor {self.name!r}: execution time must be >= 0, "
                f"got {self.execution_time}"
            )

    @property
    def phase_count(self) -> int:
        """1: an SDF actor is the one-phase case of a CSDF actor."""
        return 1

    @property
    def execution_times(self) -> Tuple[int, ...]:
        """The execution time as a one-phase CSDF actor reads it."""
        return (self.execution_time,)

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class Channel:
    """A dependency edge ``d = (src, dst, production, consumption)``.

    ``tokens`` is the number of initial tokens on the edge (``Tok(d)``).
    """

    name: str
    src: str
    dst: str
    production: int = 1
    consumption: int = 1
    tokens: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("channel name must be non-empty")
        if self.production < 1:
            raise ValueError(
                f"channel {self.name!r}: production rate must be >= 1, "
                f"got {self.production}"
            )
        if self.consumption < 1:
            raise ValueError(
                f"channel {self.name!r}: consumption rate must be >= 1, "
                f"got {self.consumption}"
            )
        if self.tokens < 0:
            raise ValueError(
                f"channel {self.name!r}: initial tokens must be >= 0, "
                f"got {self.tokens}"
            )

    @property
    def is_self_loop(self) -> bool:
        """True when source and destination actor coincide."""
        return self.src == self.dst

    # The rates as a one-phase CSDF channel reads them.
    @property
    def productions(self) -> Tuple[int, ...]:
        return (self.production,)

    @property
    def consumptions(self) -> Tuple[int, ...]:
        return (self.consumption,)

    @property
    def total_production(self) -> int:
        return self.production

    @property
    def total_consumption(self) -> int:
        return self.consumption

    def __hash__(self) -> int:
        return hash(self.name)


class SDFGraph:
    """A Synchronous Dataflow Graph.

    Actors and channels are stored in insertion order and addressed by
    name.  The class offers the structural queries that the analyses and
    the resource-allocation strategy need (incident channels, successor
    actors, sub-graphs, ...) but contains no analysis logic itself.
    """

    def __init__(self, name: str = "sdfg") -> None:
        self.name = name
        self._actors: Dict[str, Actor] = {}
        self._channels: Dict[str, Channel] = {}
        self._out: Dict[str, List[str]] = {}
        self._in: Dict[str, List[str]] = {}
        # Where the graph was parsed from, stamped by the serializers so
        # lint findings can point at file and field (None for API-built
        # graphs).  Keys are ("actor", name) / ("channel", name).
        self.source: Optional[str] = None
        self.provenance: Dict[Tuple[str, str], str] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_actor(
        self, name: str, execution_time: int = 1
    ) -> Actor:
        """Add an actor and return it.

        Raises ``ValueError`` if an actor with the same name exists.
        """
        if name in self._actors:
            raise ValueError(f"duplicate actor {name!r}")
        actor = Actor(name, execution_time)
        self._actors[name] = actor
        self._out[name] = []
        self._in[name] = []
        return actor

    def add_channel(
        self,
        name: str,
        src: str,
        dst: str,
        production: int = 1,
        consumption: int = 1,
        tokens: int = 0,
    ) -> Channel:
        """Add a dependency edge from ``src`` to ``dst`` and return it.

        Both endpoints must already be actors of the graph.
        """
        if name in self._channels:
            raise ValueError(f"duplicate channel {name!r}")
        if src not in self._actors:
            raise KeyError(f"unknown source actor {src!r}")
        if dst not in self._actors:
            raise KeyError(f"unknown destination actor {dst!r}")
        channel = Channel(name, src, dst, production, consumption, tokens)
        self._channels[name] = channel
        self._out[src].append(name)
        self._in[dst].append(name)
        return channel

    def remove_channel(self, name: str) -> None:
        """Remove the channel called ``name``."""
        channel = self._channels.pop(name)
        self._out[channel.src].remove(name)
        self._in[channel.dst].remove(name)

    def remove_actor(self, name: str) -> None:
        """Remove an actor and all channels incident to it."""
        if name not in self._actors:
            raise KeyError(f"unknown actor {name!r}")
        for channel_name in list(self._out[name]) + list(self._in[name]):
            if channel_name in self._channels:
                self.remove_channel(channel_name)
        del self._actors[name]
        del self._out[name]
        del self._in[name]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def actors(self) -> List[Actor]:
        """All actors, in insertion order."""
        return list(self._actors.values())

    @property
    def channels(self) -> List[Channel]:
        """All channels, in insertion order."""
        return list(self._channels.values())

    @property
    def actor_names(self) -> List[str]:
        return list(self._actors.keys())

    @property
    def channel_names(self) -> List[str]:
        return list(self._channels.keys())

    def actor(self, name: str) -> Actor:
        """The actor called ``name`` (KeyError if absent)."""
        return self._actors[name]

    def channel(self, name: str) -> Channel:
        """The channel called ``name`` (KeyError if absent)."""
        return self._channels[name]

    def has_actor(self, name: str) -> bool:
        return name in self._actors

    def has_channel(self, name: str) -> bool:
        return name in self._channels

    def out_channels(self, actor: str) -> List[Channel]:
        """Channels whose source is ``actor`` (self-loops included)."""
        return [self._channels[c] for c in self._out[actor]]

    def in_channels(self, actor: str) -> List[Channel]:
        """Channels whose destination is ``actor`` (self-loops included)."""
        return [self._channels[c] for c in self._in[actor]]

    def successors(self, actor: str) -> List[str]:
        """Distinct successor actor names (insertion order)."""
        seen = {}
        for channel in self.out_channels(actor):
            seen.setdefault(channel.dst, None)
        return list(seen.keys())

    def predecessors(self, actor: str) -> List[str]:
        """Distinct predecessor actor names (insertion order)."""
        seen = {}
        for channel in self.in_channels(actor):
            seen.setdefault(channel.src, None)
        return list(seen.keys())

    def channels_between(self, src: str, dst: str) -> List[Channel]:
        """All channels from ``src`` to ``dst``."""
        return [c for c in self.out_channels(src) if c.dst == dst]

    def __len__(self) -> int:
        return len(self._actors)

    def __contains__(self, actor_name: str) -> bool:
        return actor_name in self._actors

    def __iter__(self) -> Iterator[Actor]:
        return iter(self._actors.values())

    def __repr__(self) -> str:
        return (
            f"SDFGraph({self.name!r}, actors={len(self._actors)}, "
            f"channels={len(self._channels)})"
        )

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "SDFGraph":
        """A structural deep copy of this graph."""
        clone = SDFGraph(name or self.name)
        clone.source = self.source
        clone.provenance = dict(self.provenance)
        for actor in self.actors:
            clone.add_actor(actor.name, actor.execution_time)
        for channel in self.channels:
            clone.add_channel(
                channel.name,
                channel.src,
                channel.dst,
                channel.production,
                channel.consumption,
                channel.tokens,
            )
        return clone

    def subgraph(
        self, actor_names: Iterable[str], name: Optional[str] = None
    ) -> "SDFGraph":
        """The induced sub-graph on ``actor_names``.

        Channels are kept only when both endpoints are in the set.
        """
        keep = set(actor_names)
        unknown = keep - set(self._actors)
        if unknown:
            raise KeyError(f"unknown actors: {sorted(unknown)}")
        sub = SDFGraph(name or f"{self.name}-sub")
        for actor in self.actors:
            if actor.name in keep:
                sub.add_actor(actor.name, actor.execution_time)
        for channel in self.channels:
            if channel.src in keep and channel.dst in keep:
                sub.add_channel(
                    channel.name,
                    channel.src,
                    channel.dst,
                    channel.production,
                    channel.consumption,
                    channel.tokens,
                )
        return sub

    def execution_times(self) -> Dict[str, int]:
        """Mapping actor name -> default execution time."""
        return {a.name: a.execution_time for a in self.actors}


def chain(
    names: Iterable[str],
    execution_times: Optional[Iterable[int]] = None,
    tokens_on_back_edge: Optional[int] = None,
    graph_name: str = "chain",
) -> SDFGraph:
    """Build a homogeneous (all rates 1) chain ``a1 -> a2 -> ... -> an``.

    Convenience used pervasively in tests and examples.  When
    ``tokens_on_back_edge`` is given, a back edge from the last to the
    first actor with that many initial tokens closes the chain into a
    cycle (making self-timed execution bounded).
    """
    names = list(names)
    times: List[int] = (
        list(execution_times) if execution_times is not None else [1] * len(names)
    )
    if len(times) != len(names):
        raise ValueError("execution_times must match names in length")
    graph = SDFGraph(graph_name)
    for name, time in zip(names, times):
        graph.add_actor(name, time)
    for first, second in zip(names, names[1:]):
        graph.add_channel(f"{first}->{second}", first, second)
    if tokens_on_back_edge is not None and len(names) > 1:
        graph.add_channel(
            f"{names[-1]}->{names[0]}",
            names[-1],
            names[0],
            tokens=tokens_on_back_edge,
        )
    return graph
