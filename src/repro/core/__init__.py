"""The paper's contribution: SDFG-level resource allocation (Section 9).

The strategy runs three steps, each exactly once:

1. **Resource binding** (:mod:`repro.core.binding`): actors are sorted
   by criticality (Eqn. 1, :mod:`repro.core.criticality`) and greedily
   bound to the tile minimising the load-balancing cost function
   (Eqn. 2, :mod:`repro.core.tile_cost`), subject to the Section 7
   resource constraints (:mod:`repro.core.constraints`); a reverse-order
   rebinding pass then improves the balance.  Both the cost and the
   constraints read one per-tile account of the binding, a
   :class:`repro.core.tile_cost.TileLedger` that every placement
   updates.
2. **Static-order scheduling** (:mod:`repro.core.scheduling`): a list
   scheduler executes the binding-aware graph (50% slice assumption)
   and records per-tile firing orders, which are then compacted.
3. **Time-slice allocation** (:mod:`repro.core.slices`): a binary
   search finds minimal TDMA slices meeting the throughput constraint,
   verified with the constrained state-space analysis of Section 8.2,
   followed by a per-tile refinement search; probes below a tile's
   slice floor fail without an exploration.

:class:`repro.core.strategy.ResourceAllocator` chains the steps;
:mod:`repro.core.flow` runs the multi-application experiments of
Section 10.
"""

from repro.core.criticality import actor_criticality, binding_order
from repro.core.tile_cost import CostWeights, TileLoad, tile_cost, tile_loads
from repro.core.constraints import (
    ConstraintViolation,
    check_binding_constraints,
    reservation_for,
)
from repro.core.binding import BindingError, bind_application
from repro.core.scheduling import SchedulingError, build_static_order_schedules
from repro.core.slices import SliceAllocationError, allocate_time_slices
from repro.core.strategy import AllocationError, ResourceAllocator
from repro.core.flow import FlowResult, allocate_until_failure

__all__ = [
    "actor_criticality",
    "binding_order",
    "CostWeights",
    "TileLoad",
    "tile_cost",
    "tile_loads",
    "ConstraintViolation",
    "check_binding_constraints",
    "reservation_for",
    "BindingError",
    "bind_application",
    "SchedulingError",
    "build_static_order_schedules",
    "SliceAllocationError",
    "allocate_time_slices",
    "AllocationError",
    "ResourceAllocator",
    "FlowResult",
    "allocate_until_failure",
]
