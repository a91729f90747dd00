"""Application graphs: SDFG + resource requirements + throughput constraint.

Implements Definition 5 of the paper.  ``Gamma`` maps (actor, processor
type) to (execution time, memory) — or "unsupported" — and ``Theta``
maps each channel to ``(sz, alpha_tile, alpha_src, alpha_dst, beta)``:
token size in bits, buffer requirement (in tokens) when both endpoints
share a tile, buffer requirements in the source/destination tiles when
they do not, and the bandwidth (bits per time unit) a tile-crossing
binding needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from repro.arch.tile import ProcessorType
from repro.sdf.graph import SDFGraph
from repro.sdf.validate import validate_graph

Rate = Union[Fraction, float]


@dataclass
class ActorRequirements:
    """The paper's ``Gamma(a, .)``: per processor type (tau, mu).

    Processor types absent from ``options`` cannot run the actor
    (``Gamma = (inf, inf)`` in the paper).
    """

    options: Dict[ProcessorType, Tuple[int, int]] = field(default_factory=dict)

    def add(self, processor_type: ProcessorType, execution_time: int, memory: int) -> None:
        if execution_time < 1:
            raise ValueError("execution time must be >= 1 time unit")
        if memory < 0:
            raise ValueError("memory requirement must be >= 0")
        self.options[processor_type] = (execution_time, memory)

    def supports(self, processor_type: ProcessorType) -> bool:
        return processor_type in self.options

    def execution_time(self, processor_type: ProcessorType) -> int:
        return self.options[processor_type][0]

    def memory(self, processor_type: ProcessorType) -> int:
        return self.options[processor_type][1]

    @property
    def worst_case_execution_time(self) -> int:
        """``max over supported pt of tau`` (used by Eqn. 1 and ``l_p``)."""
        if not self.options:
            raise ValueError("actor supports no processor type")
        return max(tau for tau, _ in self.options.values())

    @property
    def supported_types(self) -> List[ProcessorType]:
        return list(self.options)


@dataclass
class ChannelRequirements:
    """The paper's ``Theta(d)``: (sz, alpha_tile, alpha_src, alpha_dst, beta)."""

    token_size: int = 1
    buffer_tile: int = 1
    buffer_src: int = 1
    buffer_dst: int = 1
    bandwidth: int = 0

    def __post_init__(self) -> None:
        if self.token_size < 0:
            raise ValueError("token size must be >= 0")
        for label in ("buffer_tile", "buffer_src", "buffer_dst", "bandwidth"):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} must be >= 0")

    @property
    def crossable(self) -> bool:
        """Whether the channel may be mapped across tiles at all.

        A channel with zero bandwidth (like ``d3`` in the paper's
        Table 2) can only live inside a tile.
        """
        return self.bandwidth > 0


class ApplicationGraph:
    """An SDFG plus ``Gamma``, ``Theta`` and a throughput constraint.

    ``throughput_constraint`` is the required steady-state firing rate
    (firings per time unit) of ``output_actor``.
    """

    def __init__(
        self,
        graph: SDFGraph,
        throughput_constraint: Rate = Fraction(0),
        output_actor: Optional[str] = None,
    ) -> None:
        self._gamma = validate_graph(graph)
        self.graph = graph
        self.name = graph.name
        self.throughput_constraint = throughput_constraint
        # Parse origin for lint locations, stamped by the serializer
        # (None for API-built applications).  Keys are
        # ("application", field) / ("requirements", actor-or-channel).
        self.source: Optional[str] = None
        self.provenance: Dict[Tuple[str, str], str] = {}
        self.output_actor = output_actor or graph.actor_names[-1]
        if not graph.has_actor(self.output_actor):
            raise KeyError(f"unknown output actor {self.output_actor!r}")
        self.actor_requirements: Dict[str, ActorRequirements] = {
            a: ActorRequirements() for a in graph.actor_names
        }
        # Default buffers hold one iteration of traffic plus the initial
        # tokens: large enough that no binding can deadlock on buffer
        # capacity.  Callers with real memory budgets override them.
        self.channel_requirements: Dict[str, ChannelRequirements] = {}
        for channel in graph.channels:
            default_buffer = (
                channel.production * self._gamma[channel.src] + channel.tokens
            )
            self.channel_requirements[channel.name] = ChannelRequirements(
                buffer_tile=default_buffer,
                buffer_src=default_buffer,
                buffer_dst=default_buffer,
            )

    # -- declaration helpers -------------------------------------------
    def set_actor_requirements(
        self,
        actor: str,
        *options: Tuple[ProcessorType, int, int],
    ) -> None:
        """Declare supported processor types for ``actor``.

        Each option is ``(processor_type, execution_time, memory)``.
        """
        if not self.graph.has_actor(actor):
            raise KeyError(f"unknown actor {actor!r}")
        requirements = ActorRequirements()
        for processor_type, execution_time, memory in options:
            requirements.add(processor_type, execution_time, memory)
        self.actor_requirements[actor] = requirements

    def set_channel_requirements(
        self,
        channel: str,
        token_size: int = 1,
        buffer_tile: Optional[int] = None,
        buffer_src: Optional[int] = None,
        buffer_dst: Optional[int] = None,
        bandwidth: int = 0,
    ) -> None:
        """Declare ``Theta`` for one channel.

        Buffer sizes left as ``None`` keep the liveness-safe default of
        one iteration of traffic plus the initial tokens.
        """
        if not self.graph.has_channel(channel):
            raise KeyError(f"unknown channel {channel!r}")
        edge = self.graph.channel(channel)
        default_buffer = edge.production * self._gamma[edge.src] + edge.tokens
        self.channel_requirements[channel] = ChannelRequirements(
            token_size,
            default_buffer if buffer_tile is None else buffer_tile,
            default_buffer if buffer_src is None else buffer_src,
            default_buffer if buffer_dst is None else buffer_dst,
            bandwidth,
        )

    # -- queries ----------------------------------------------------------
    @property
    def gamma(self) -> Dict[str, int]:
        """The repetition vector of the application SDFG."""
        return dict(self._gamma)

    def requirements(self, actor: str) -> ActorRequirements:
        return self.actor_requirements[actor]

    def channel(self, channel: str) -> ChannelRequirements:
        return self.channel_requirements[channel]

    def check_complete(self) -> None:
        """Raise when any actor supports no processor type.

        Called by the allocator before binding; an unsatisfiable actor
        makes the problem trivially infeasible.
        """
        missing = [
            a
            for a, requirements in self.actor_requirements.items()
            if not requirements.options
        ]
        if missing:
            raise ValueError(
                f"application {self.name!r}: actors with no supported "
                f"processor type: {missing}"
            )

    def total_worst_case_work(self) -> int:
        """``sum over a of gamma(a) * tau_max(a)`` (denominator of ``l_p``)."""
        return sum(
            self._gamma[a] * self.actor_requirements[a].worst_case_execution_time
            for a in self.graph.actor_names
        )

    def copy(self) -> "ApplicationGraph":
        """An independent copy (graph, requirements and constraint).

        Useful before operations that rewrite ``Theta`` in place, such
        as :func:`repro.extensions.buffer_sizing.minimise_buffers`.
        """
        clone = ApplicationGraph(
            self.graph.copy(),
            throughput_constraint=self.throughput_constraint,
            output_actor=self.output_actor,
        )
        clone.source = self.source
        clone.provenance = dict(self.provenance)
        for actor, requirements in self.actor_requirements.items():
            clone.actor_requirements[actor] = ActorRequirements(
                dict(requirements.options)
            )
        for channel, requirements in self.channel_requirements.items():
            clone.channel_requirements[channel] = ChannelRequirements(
                requirements.token_size,
                requirements.buffer_tile,
                requirements.buffer_src,
                requirements.buffer_dst,
                requirements.bandwidth,
            )
        return clone

    def __repr__(self) -> str:
        return (
            f"ApplicationGraph({self.name!r}, actors={len(self.graph)}, "
            f"lambda={self.throughput_constraint})"
        )
