"""CSDF graph data structures.

A CSDF actor has ``n`` phases; its ``k``-th firing executes phase
``k mod n``.  Each channel carries a production sequence (indexed by
the source actor's phase) and a consumption sequence (indexed by the
destination actor's phase).  Rates may be zero in individual phases —
that is the expressiveness CSDF adds over SDF — but a channel must move
at least one token over a full phase cycle in each direction it is
used (checked by validation, not construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class CSDFActor:
    """A cyclo-static actor: one execution time per phase."""

    name: str
    execution_times: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("actor name must be non-empty")
        if not self.execution_times:
            raise ValueError(f"actor {self.name!r}: needs at least one phase")
        if any(t < 0 for t in self.execution_times):
            raise ValueError(
                f"actor {self.name!r}: phase execution times must be >= 0"
            )

    @property
    def phase_count(self) -> int:
        return len(self.execution_times)

    def execution_time(self, firing_index: int) -> int:
        """Execution time of the ``firing_index``-th firing (0-based)."""
        return self.execution_times[firing_index % self.phase_count]


@dataclass
class CSDFChannel:
    """A channel with per-phase rate sequences.

    ``productions[i]`` tokens are produced when the source fires in its
    phase ``i``; ``consumptions[j]`` tokens are consumed when the
    destination fires in its phase ``j``.  Sequence lengths must match
    the endpoint actors' phase counts (validated by the graph).
    """

    name: str
    src: str
    dst: str
    productions: Tuple[int, ...]
    consumptions: Tuple[int, ...]
    tokens: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("channel name must be non-empty")
        if not self.productions or not self.consumptions:
            raise ValueError(
                f"channel {self.name!r}: rate sequences must be non-empty"
            )
        if any(rate < 0 for rate in self.productions + self.consumptions):
            raise ValueError(f"channel {self.name!r}: rates must be >= 0")
        if self.tokens < 0:
            raise ValueError(f"channel {self.name!r}: tokens must be >= 0")

    @property
    def is_self_loop(self) -> bool:
        return self.src == self.dst

    @property
    def total_production(self) -> int:
        """Tokens produced over one full phase cycle of the source."""
        return sum(self.productions)

    @property
    def total_consumption(self) -> int:
        """Tokens consumed over one full phase cycle of the destination."""
        return sum(self.consumptions)


class CSDFGraph:
    """A cyclo-static dataflow graph."""

    def __init__(self, name: str = "csdf") -> None:
        self.name = name
        self._actors: Dict[str, CSDFActor] = {}
        self._channels: Dict[str, CSDFChannel] = {}
        self._out: Dict[str, List[str]] = {}
        self._in: Dict[str, List[str]] = {}
        # Parse origin for lint locations, stamped by the serializer
        # (None for API-built graphs).
        self.source: Optional[str] = None
        self.provenance: Dict[Tuple[str, str], str] = {}

    def add_actor(
        self, name: str, execution_times: Sequence[int]
    ) -> CSDFActor:
        if name in self._actors:
            raise ValueError(f"duplicate actor {name!r}")
        actor = CSDFActor(name, tuple(execution_times))
        self._actors[name] = actor
        self._out[name] = []
        self._in[name] = []
        return actor

    def add_channel(
        self,
        name: str,
        src: str,
        dst: str,
        productions: Sequence[int],
        consumptions: Sequence[int],
        tokens: int = 0,
    ) -> CSDFChannel:
        if name in self._channels:
            raise ValueError(f"duplicate channel {name!r}")
        if src not in self._actors:
            raise KeyError(f"unknown source actor {src!r}")
        if dst not in self._actors:
            raise KeyError(f"unknown destination actor {dst!r}")
        channel = CSDFChannel(
            name, src, dst, tuple(productions), tuple(consumptions), tokens
        )
        if len(channel.productions) != self._actors[src].phase_count:
            raise ValueError(
                f"channel {name!r}: production sequence length "
                f"{len(channel.productions)} != phase count "
                f"{self._actors[src].phase_count} of {src!r}"
            )
        if len(channel.consumptions) != self._actors[dst].phase_count:
            raise ValueError(
                f"channel {name!r}: consumption sequence length "
                f"{len(channel.consumptions)} != phase count "
                f"{self._actors[dst].phase_count} of {dst!r}"
            )
        if channel.total_production == 0 or channel.total_consumption == 0:
            raise ValueError(
                f"channel {name!r}: a full phase cycle must move at "
                "least one token at each end"
            )
        self._channels[name] = channel
        self._out[src].append(name)
        self._in[dst].append(name)
        return channel

    # -- queries ----------------------------------------------------------
    @property
    def actors(self) -> List[CSDFActor]:
        return list(self._actors.values())

    @property
    def channels(self) -> List[CSDFChannel]:
        return list(self._channels.values())

    @property
    def actor_names(self) -> List[str]:
        return list(self._actors.keys())

    def actor(self, name: str) -> CSDFActor:
        return self._actors[name]

    def channel(self, name: str) -> CSDFChannel:
        return self._channels[name]

    def has_actor(self, name: str) -> bool:
        return name in self._actors

    def out_channels(self, actor: str) -> List[CSDFChannel]:
        return [self._channels[c] for c in self._out[actor]]

    def in_channels(self, actor: str) -> List[CSDFChannel]:
        return [self._channels[c] for c in self._in[actor]]

    def successors(self, actor: str) -> List[str]:
        """Distinct successor actor names (insertion order)."""
        return list(dict.fromkeys(c.dst for c in self.out_channels(actor)))

    def __len__(self) -> int:
        return len(self._actors)

    def __iter__(self) -> Iterator[CSDFActor]:
        return iter(self._actors.values())

    def __repr__(self) -> str:
        return (
            f"CSDFGraph({self.name!r}, actors={len(self._actors)}, "
            f"channels={len(self._channels)})"
        )
