"""``repro.exact`` — exact branch-and-bound resource allocation.

The paper's flow (Section 9) is a greedy heuristic: it commits each
binding, static order and slice width once and never proves it found
the cheapest feasible allocation.  This package is the exact
counterpart called for by ROADMAP item 4: a pure-python branch-and-bound
search over actor-to-tile bindings and discretised TDMA slice widths,
selectable through the :class:`~repro.core.strategy.ResourceAllocator`
facade with ``backend="exact"`` (CLI: ``repro-alloc allocate --backend
exact``).

* :mod:`repro.exact.cost` — the rational-arithmetic objective the
  search minimises (Eqn. 2 tile loads plus the occupied TDMA share);
* :mod:`repro.exact.bounds` — partial-binding refinements of the sound
  static bounds in :mod:`repro.analysis.bounds`, used as the pruning
  relaxation;
* :mod:`repro.exact.search` — the branch-and-bound core; every leaf is
  verified by the existing constrained state-space engine, so returned
  allocations carry a :mod:`repro.verify` certificate like greedy ones.

The search keeps one :class:`repro.core.tile_cost.TileLedger`: actors
move through it, and the objective, the bound and the Section 7 check
read it instead of rescanning the binding.  Leaf probes below a tile's
slice floor (:class:`repro.core.slices.SliceFloors`) are decided
without exploring them.

See ``docs/EXACT.md`` for the formulation, the bounding argument, and
the optimality-gap differential harness built on top
(``tests/test_differential_allocation.py``).
"""

from repro.exact.bounds import partial_throughput_bound
from repro.exact.cost import (
    allocation_cost,
    binding_load_cost,
    slice_cost,
)
from repro.exact.search import ExactSearchResult, exact_search

__all__ = [
    "ExactSearchResult",
    "allocation_cost",
    "binding_load_cost",
    "exact_search",
    "partial_throughput_bound",
    "slice_cost",
]
