"""Section 7 resource constraints and reservation construction.

A binding is resource-feasible when, for every tile,

1. a non-empty time slice can still be allocated
   (``Omega(t) < w_t`` for tiles with bound actors),
2. the memory demand (actor state + channel buffers) fits,
3. the NI connection count fits (``|D_src| + |D_dst| <= c_t``),
4. the summed channel bandwidths fit the incoming/outgoing limits.

Every sum comes from the per-tile account Eqn. 2 reads too: the
checks read a :class:`repro.core.tile_cost.TileLedger`, which the
greedy binder and the exact search update one actor move at a time.
The same accounting, derived from scratch by
:func:`repro.core.tile_cost.tile_usage` after slice allocation, yields
the :class:`~repro.arch.resources.ResourceReservation` an accepted
application commits to the architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.appmodel.application import ApplicationGraph
from repro.appmodel.binding import Binding
from repro.arch.architecture import ArchitectureGraph
from repro.arch.resources import ResourceReservation
from repro.core.tile_cost import TileLedger, tile_usage


@dataclass
class ConstraintViolation:
    """One violated Section 7 constraint (for diagnostics)."""

    tile: str
    constraint: str
    demanded: int
    available: int

    def __str__(self) -> str:
        return (
            f"tile {self.tile!r}: {self.constraint} needs {self.demanded}, "
            f"only {self.available} available"
        )


def ledger_violations(ledger: TileLedger) -> List[ConstraintViolation]:
    """All Section 7 violations of the ledger's (partial) binding.

    Channels to unbound actors are not yet counted (consistent with the
    cost function); cross-tile channels additionally require a
    connection in the architecture and a crossable channel (beta > 0),
    which are reported as ``connection-missing`` violations.
    """
    application = ledger.application
    architecture = ledger.architecture
    assignment = ledger.binding.assignment
    violations: List[ConstraintViolation] = []
    for tile_name, usage in ledger.usage.items():
        tile = architecture.tile(tile_name)
        if tile.wheel_remaining < 1:
            violations.append(
                ConstraintViolation(tile_name, "time-slice", 1, 0)
            )
        for constraint, demanded, available in (
            ("memory", usage.memory, tile.memory_remaining),
            ("connections", usage.connections, tile.connections_remaining),
            (
                "output-bandwidth",
                usage.bandwidth_out,
                tile.bandwidth_out_remaining,
            ),
            (
                "input-bandwidth",
                usage.bandwidth_in,
                tile.bandwidth_in_remaining,
            ),
        ):
            if demanded > available:
                violations.append(
                    ConstraintViolation(
                        tile_name, constraint, demanded, available
                    )
                )
        for channel in usage.outgoing:
            crossable = application.channel(channel.name).crossable
            if not crossable or not architecture.connected(
                tile_name, assignment[channel.dst]
            ):
                violations.append(
                    ConstraintViolation(tile_name, "connection-missing", 1, 0)
                )
    return violations


def binding_violations(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    binding: Binding,
) -> List[ConstraintViolation]:
    """All Section 7 violations of a (partial) binding."""
    return ledger_violations(TileLedger(application, architecture, binding))


def check_binding_constraints(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    binding: Binding,
) -> bool:
    """True when the (partial) binding violates no Section 7 constraint."""
    return not binding_violations(application, architecture, binding)


def reservation_for(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    binding: Binding,
    slices: Optional[Dict[str, int]] = None,
) -> ResourceReservation:
    """The resource claims of a complete binding (plus optional slices)."""
    reservation = ResourceReservation()
    for tile_name, usage in tile_usage(
        application, architecture, binding
    ).items():
        claim = reservation.tile(tile_name)
        claim.memory = usage.memory
        claim.connections = usage.connections
        claim.bandwidth_out = usage.bandwidth_out
        claim.bandwidth_in = usage.bandwidth_in
        if slices is not None:
            claim.time_slice = slices.get(tile_name, 0)
    return reservation
