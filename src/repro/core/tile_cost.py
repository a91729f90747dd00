"""Tile load estimation and the Eqn. 2 cost function.

Given a (partial) binding, each tile's load is captured by three
normalised quantities (paper Section 9.1):

* ``l_p`` — processing: work bound to the tile over the application's
  total worst-case work;
* ``l_m`` — memory: actor state plus channel buffers over the tile's
  available memory;
* ``l_c`` — communication: the average of outgoing-bandwidth,
  incoming-bandwidth and NI-connection usage fractions.

:func:`tile_usage` classifies channels relative to a tile exactly as
in Section 7 (``D_t,tile``, ``D_t,src``, ``D_t,dst``) and sums them per
tile once for every reader; channels whose other endpoint is still
unbound are not counted (the greedy binder learns about them when that
endpoint is placed).  The combined cost is ``c1*l_p + c2*l_m + c3*l_c``
with user-chosen weights — the knob the paper's Tables 3-5 sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List

from repro.appmodel.application import ApplicationGraph
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


def _fraction_or_penalty(amount: int, available: int) -> Fraction:
    if available > 0:
        return Fraction(amount, available)
    return Fraction(0) if amount == 0 else Fraction(10**9)


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
    #: ``D_t,src`` in channel order
    outgoing: List[Channel] = field(default_factory=list)

    def load(self, tile: Tile, total_work: int) -> TileLoad:
        """The ``(l_p, l_m, l_c)`` of this usage on ``tile``.

        Denominators use the tile's *remaining* capacities, so the cost
        naturally steers later applications away from occupied tiles
        (the paper assumes unavailable resources are simply not
        specified).
        """
        processing = (
            Fraction(self.work, total_work) if total_work else Fraction(0)
        )
        communication = (
            _fraction_or_penalty(
                self.bandwidth_out, tile.bandwidth_out_remaining
            )
            + _fraction_or_penalty(
                self.bandwidth_in, tile.bandwidth_in_remaining
            )
            + _fraction_or_penalty(
                self.connections, tile.connections_remaining
            )
        ) / 3
        memory = _fraction_or_penalty(self.memory, tile.memory_remaining)
        return TileLoad(processing, memory, communication)


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


def tile_loads(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    binding: Binding,
    tile_name: str,
) -> TileLoad:
    """The ``(l_p, l_m, l_c)`` of ``tile_name`` under ``binding``."""
    usage = tile_usage(application, architecture, binding).get(tile_name)
    return (usage or TileUsage()).load(
        architecture.tile(tile_name), application.total_worst_case_work()
    )


def tile_cost(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    binding: Binding,
    tile_name: str,
    weights: CostWeights,
) -> float:
    """Eqn. 2 evaluated on one tile under ``binding``."""
    return tile_loads(application, architecture, binding, tile_name).combined(
        weights
    )
