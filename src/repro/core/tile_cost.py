"""Tile load estimation and the Eqn. 2 cost function.

Given a (partial) binding, each tile's load is captured by three
normalised quantities (paper Section 9.1):

* ``l_p`` — processing: work bound to the tile over the application's
  total worst-case work;
* ``l_m`` — memory: actor state plus channel buffers over the tile's
  available memory;
* ``l_c`` — communication: the average of outgoing-bandwidth,
  incoming-bandwidth and NI-connection usage fractions.

A :class:`TileUsage` holds, per tile, the integer sums these fractions
are made of, with channels classified relative to the tile exactly as
in Section 7 (``D_t,tile``, ``D_t,src``, ``D_t,dst``); channels whose
other endpoint is still unbound are not counted (the greedy binder
learns about them when that endpoint is placed).  A search keeps one
:class:`TileLedger`: every bind and unbind updates the usage of the
tiles it touches in time proportional to the moved actor's channels,
and Eqn. 2, the Section 7 checks and the exact backend's objective and
bound read it.  :func:`tile_usage` derives the same account from
scratch in one pass; the reservation reads it.

The combined cost is ``c1*l_p + c2*l_m + c3*l_c`` with user-chosen
weights — the knob the paper's Tables 3-5 sweep.  The greedy binder
ranks by its float value, computed from integer numerators and
denominators (:meth:`TileUsage.cost`); the exact backend sums the same
terms as fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.appmodel.application import ApplicationGraph, ChannelRequirements
from repro.appmodel.binding import Binding
from repro.arch.architecture import ArchitectureGraph
from repro.arch.tile import Tile
from repro.sdf.graph import Channel


@dataclass(frozen=True)
class CostWeights:
    """The constants ``(c1, c2, c3)`` of Eqn. 2."""

    processing: float = 1.0
    memory: float = 1.0
    communication: float = 1.0

    @classmethod
    def default(cls) -> "CostWeights":
        """The repository-wide default ``(0, 1, 2)``.

        The best-performing sweep point of the paper's Tables 3-5
        (processing load is ignored, communication weighs double).
        Every entry point — the CLI, the dimensioning and ordering
        extensions, the throughput-frontier baseline, the bench
        workloads — shares this single definition; a regression test
        (``tests/test_cost_weights_default.py``) keeps literal copies
        from creeping back in.
        """
        return cls(0.0, 1.0, 2.0)

    def as_tuple(self) -> tuple:
        return (self.processing, self.memory, self.communication)

    def __str__(self) -> str:
        return f"({self.processing:g},{self.memory:g},{self.communication:g})"


@dataclass
class TileLoad:
    """The three load fractions of one tile."""

    processing: Fraction
    memory: Fraction
    communication: Fraction

    def combined(self, weights: CostWeights) -> float:
        """Eqn. 2: ``c1*l_p + c2*l_m + c3*l_c``."""
        return (
            weights.processing * float(self.processing)
            + weights.memory * float(self.memory)
            + weights.communication * float(self.communication)
        )


#: an integer fraction ``(numerator, denominator)``, denominator > 0
Ratio = Tuple[int, int]


def _ratio_or_penalty(amount: int, available: int) -> Ratio:
    if available > 0:
        return amount, available
    return (0, 1) if amount == 0 else (10**9, 1)


@dataclass
class TileUsage:
    """What a binding claims on one tile, in integers.

    The sums run over the tile's actors and its Section 7 channel sets:
    ``D_t,tile`` (both endpoints on the tile), ``D_t,src`` (source on
    the tile, destination elsewhere) and ``D_t,dst`` (the reverse).
    """

    #: ``sum_{a on t} gamma(a) * tau(a)``
    work: int = 0
    #: actor state plus the ``D_t,tile``, ``D_t,src`` and ``D_t,dst``
    #: buffers, in bits
    memory: int = 0
    #: summed bandwidth of ``D_t,src``
    bandwidth_out: int = 0
    #: summed bandwidth of ``D_t,dst``
    bandwidth_in: int = 0
    #: NI connections, ``|D_t,src| + |D_t,dst|``
    connections: int = 0
    #: ``D_t,src`` (in channel order from :func:`tile_usage`)
    outgoing: List[Channel] = field(default_factory=list)

    def load_terms(
        self, tile: Tile, total_work: int
    ) -> Tuple[Ratio, Ratio, Ratio]:
        """The ``(l_p, l_m, l_c)`` of this usage on ``tile``, as ratios.

        Denominators use the tile's *remaining* capacities, so the cost
        naturally steers later applications away from occupied tiles
        (the paper assumes unavailable resources are simply not
        specified).  A demand on a resource with nothing left costs
        ``10**9``.
        """
        processing = (self.work, total_work) if total_work else (0, 1)
        memory = _ratio_or_penalty(self.memory, tile.memory_remaining)
        out_n, out_d = _ratio_or_penalty(
            self.bandwidth_out, tile.bandwidth_out_remaining
        )
        in_n, in_d = _ratio_or_penalty(
            self.bandwidth_in, tile.bandwidth_in_remaining
        )
        con_n, con_d = _ratio_or_penalty(
            self.connections, tile.connections_remaining
        )
        communication = (
            out_n * in_d * con_d + in_n * out_d * con_d + con_n * out_d * in_d,
            3 * out_d * in_d * con_d,
        )
        return processing, memory, communication

    def load(self, tile: Tile, total_work: int) -> TileLoad:
        """The ``(l_p, l_m, l_c)`` of this usage on ``tile``."""
        processing, memory, communication = self.load_terms(tile, total_work)
        return TileLoad(
            Fraction(*processing), Fraction(*memory), Fraction(*communication)
        )

    def cost(self, tile: Tile, total_work: int, weights: CostWeights) -> float:
        """Eqn. 2 of this usage on ``tile``, as a float.

        Bit-identical to ``self.load(tile, total_work).combined(weights)``:
        ``n / d`` on ints and ``float(Fraction(n, d))`` are both the
        correctly rounded value of the same rational.
        """
        (p_n, p_d), (m_n, m_d), (c_n, c_d) = self.load_terms(tile, total_work)
        return (
            weights.processing * (p_n / p_d)
            + weights.memory * (m_n / m_d)
            + weights.communication * (c_n / c_d)
        )


def tile_usage(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    binding: Binding,
) -> Dict[str, TileUsage]:
    """The :class:`TileUsage` of every used tile, in first-use order.

    One pass over the bound actors and one over the channels.  Only
    channels with both endpoints bound are classified.
    """
    assignment = binding.assignment
    gamma = application.gamma
    usage: Dict[str, TileUsage] = {}
    for actor, tile_name in assignment.items():
        record = usage.get(tile_name)
        if record is None:
            record = usage[tile_name] = TileUsage()
        processor_type = architecture.tile(tile_name).processor_type
        requirements = application.requirements(actor)
        record.work += gamma[actor] * requirements.execution_time(
            processor_type
        )
        record.memory += requirements.memory(processor_type)
    for channel in application.graph.channels:
        src_tile = assignment.get(channel.src)
        dst_tile = assignment.get(channel.dst)
        if src_tile is None or dst_tile is None:
            continue
        theta = application.channel(channel.name)
        if src_tile == dst_tile:
            usage[src_tile].memory += theta.buffer_tile * theta.token_size
            continue
        source = usage[src_tile]
        source.memory += theta.buffer_src * theta.token_size
        source.bandwidth_out += theta.bandwidth
        source.connections += 1
        source.outgoing.append(channel)
        destination = usage[dst_tile]
        destination.memory += theta.buffer_dst * theta.token_size
        destination.bandwidth_in += theta.bandwidth
        destination.connections += 1
    return usage


class TileLedger:
    """Each used tile's :class:`TileUsage` under a changing binding.

    The ledger owns :attr:`binding`; actors move only through
    :meth:`bind` and :meth:`unbind`, and each move updates the usage of
    the moved actor's tile and of the tiles its bound channel partners
    sit on, in time proportional to the actor's channels.  After every
    move :attr:`usage` equals :func:`tile_usage` of :attr:`binding`,
    except that a tile's ``outgoing`` channels are listed in the order
    they started to cross.  The binding-independent quantities (each
    actor's ``gamma * tau`` and memory per processor type, its
    channels, the total worst-case work) are computed once.
    """

    def __init__(
        self,
        application: ApplicationGraph,
        architecture: ArchitectureGraph,
        binding: Optional[Binding] = None,
    ) -> None:
        self.application = application
        self.architecture = architecture
        self.binding = Binding()
        #: the usage of every used tile
        self.usage: Dict[str, TileUsage] = {}
        #: ``gamma(a) * tau(a)`` of every bound actor on its tile
        self.actor_work: Dict[str, int] = {}
        #: ``sum over a of gamma(a) * tau_max(a)``, the denominator of l_p
        self.total_work = application.total_worst_case_work()
        gamma = application.gamma
        self._claims = {
            actor: {
                processor_type: (gamma[actor] * tau, memory)
                for processor_type, (tau, memory) in (
                    application.requirements(actor).options.items()
                )
            }
            for actor in application.graph.actor_names
        }
        self._channels: Dict[
            str, List[Tuple[Channel, ChannelRequirements]]
        ] = {actor: [] for actor in application.graph.actor_names}
        for channel in application.graph.channels:
            entry = (channel, application.channel(channel.name))
            self._channels[channel.src].append(entry)
            if channel.dst != channel.src:
                self._channels[channel.dst].append(entry)
        self._actor_count: Dict[str, int] = {}
        if binding is not None:
            for actor, tile_name in binding.assignment.items():
                self.bind(actor, tile_name)

    def bind(self, actor: str, tile_name: str) -> None:
        """Bind the unbound ``actor`` to ``tile_name``."""
        if actor in self.actor_work:
            raise ValueError(f"actor {actor!r} is already bound")
        work, memory = self._claims[actor][
            self.architecture.tile(tile_name).processor_type
        ]
        record = self.usage.get(tile_name)
        if record is None:
            record = self.usage[tile_name] = TileUsage()
            self._actor_count[tile_name] = 0
        self._actor_count[tile_name] += 1
        record.work += work
        record.memory += memory
        self.actor_work[actor] = work
        self.binding.bind(actor, tile_name)
        self._count_channels(actor, tile_name, 1)

    def unbind(self, actor: str) -> None:
        """Unbind the bound ``actor``."""
        tile_name = self.binding.tile_of(actor)
        self._count_channels(actor, tile_name, -1)
        _, memory = self._claims[actor][
            self.architecture.tile(tile_name).processor_type
        ]
        record = self.usage[tile_name]
        record.work -= self.actor_work.pop(actor)
        record.memory -= memory
        self.binding.unbind(actor)
        self._actor_count[tile_name] -= 1
        if not self._actor_count[tile_name]:
            del self.usage[tile_name]
            del self._actor_count[tile_name]

    def _count_channels(self, actor: str, tile_name: str, sign: int) -> None:
        """Add (``sign`` 1) or remove (-1) ``actor``'s channels whose
        other endpoint is bound; ``actor`` itself is bound to
        ``tile_name``."""
        assignment = self.binding.assignment
        usage = self.usage
        for channel, theta in self._channels[actor]:
            outgoing = channel.src == actor
            other = channel.dst if outgoing else channel.src
            other_tile = assignment.get(other)
            if other_tile is None:
                continue
            if other_tile == tile_name:
                usage[tile_name].memory += (
                    sign * theta.buffer_tile * theta.token_size
                )
                continue
            source = usage[tile_name if outgoing else other_tile]
            destination = usage[other_tile if outgoing else tile_name]
            source.memory += sign * theta.buffer_src * theta.token_size
            source.bandwidth_out += sign * theta.bandwidth
            source.connections += sign
            destination.memory += sign * theta.buffer_dst * theta.token_size
            destination.bandwidth_in += sign * theta.bandwidth
            destination.connections += sign
            if sign > 0:
                source.outgoing.append(channel)
            else:
                source.outgoing.remove(channel)

    def usage_of(self, tile_name: str) -> TileUsage:
        """``tile_name``'s usage (all zero when no actor is bound to it)."""
        return self.usage.get(tile_name) or TileUsage()

    def load(self, tile_name: str) -> TileLoad:
        """The ``(l_p, l_m, l_c)`` of ``tile_name``."""
        return self.usage_of(tile_name).load(
            self.architecture.tile(tile_name), self.total_work
        )

    def cost(self, tile_name: str, weights: CostWeights) -> float:
        """Eqn. 2 evaluated on ``tile_name``, as a float."""
        return self.usage_of(tile_name).cost(
            self.architecture.tile(tile_name), self.total_work, weights
        )


def tile_loads(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    binding: Binding,
    tile_name: str,
) -> TileLoad:
    """The ``(l_p, l_m, l_c)`` of ``tile_name`` under ``binding``."""
    return TileLedger(application, architecture, binding).load(tile_name)


def tile_cost(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    binding: Binding,
    tile_name: str,
    weights: CostWeights,
) -> float:
    """Eqn. 2 evaluated on one tile under ``binding``."""
    return TileLedger(application, architecture, binding).cost(
        tile_name, weights
    )
