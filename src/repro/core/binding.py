"""The resource-binding step (paper Section 9.1).

Actors are processed in decreasing criticality order.  For every actor
the candidate tiles (those whose processor type supports it) are sorted
by the Eqn. 2 cost *with the actor provisionally bound there*; the first
candidate that keeps all Section 7 constraints satisfied wins.  When no
tile fits, the problem is infeasible.  Costs and checks read one
:class:`~repro.core.tile_cost.TileLedger`, through which every
provisional and final placement is made.

A load-balancing optimisation pass then revisits the actors in reverse
order: each actor is unbound, the candidate tiles are re-sorted by the
cost of the binding *without* the actor, and the actor is re-bound to
the first feasible candidate.  The original tile is always among the
candidates, so the pass cannot fail.
"""

from __future__ import annotations

from typing import List, Optional

from repro.appmodel.application import ApplicationGraph
from repro.appmodel.binding import Binding
from repro.arch.architecture import ArchitectureGraph
from repro.core.constraints import ledger_violations
from repro.core.criticality import binding_order
from repro.core.tile_cost import CostWeights, TileLedger
from repro.obs import get_metrics
from repro.resilience.budget import Budget


class BindingError(RuntimeError):
    """Raised when no valid binding exists for some actor."""


def ranked_tiles(
    ledger: TileLedger, actor: str, weights: CostWeights
) -> List[str]:
    """The tiles that support the unbound ``actor``, cheapest first.

    Each tile is scored by its Eqn. 2 cost with ``actor`` provisionally
    bound there; ties go to the earlier tile of the architecture.  The
    ledger is left as it was.  The greedy binder and the exact search
    branch in this order.
    """
    requirements = ledger.application.requirements(actor)
    scored = []
    for rank, tile in enumerate(ledger.architecture.tiles):
        if not requirements.supports(tile.processor_type):
            continue
        ledger.bind(actor, tile.name)
        cost = ledger.cost(tile.name, weights)
        ledger.unbind(actor)
        scored.append((cost, rank, tile.name))
    scored.sort()
    return [name for _, _, name in scored]


def bind_application(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    weights: CostWeights,
    optimise: bool = True,
    budget: Optional[Budget] = None,
) -> Binding:
    """Bind every actor of ``application`` to a tile (Section 9.1).

    Raises :class:`BindingError` when some actor cannot be placed
    without violating the resource constraints.  ``optimise=False``
    skips the reverse-order rebinding pass (used by the ablation
    benchmarks).  A :class:`Budget` deadline is checked once per actor.
    """
    application.check_complete()
    obs = get_metrics()
    order = binding_order(application)
    ledger = TileLedger(application, architecture)
    retries = 0

    for actor in order:
        if budget is not None:
            budget.checkpoint()
        candidates = ranked_tiles(ledger, actor, weights)
        if not candidates:
            raise BindingError(
                f"actor {actor!r} is supported by no tile of "
                f"{architecture.name!r}"
            )
        placed = False
        for tile_name in candidates:
            ledger.bind(actor, tile_name)
            if not ledger_violations(ledger):
                placed = True
                break
            ledger.unbind(actor)
            retries += 1
        if not placed:
            ledger.bind(actor, candidates[0])
            violations = ledger_violations(ledger)
            raise BindingError(
                f"no feasible tile for actor {actor!r}; e.g. on "
                f"{candidates[0]!r}: "
                + "; ".join(str(v) for v in violations)
            )

    if obs.enabled:
        obs.counter("binding.actors_bound", len(order))
        obs.counter("binding.retries", retries)
    if optimise:
        _rebalance(ledger, order, weights, budget=budget)
    return ledger.binding


def _rebalance(
    ledger: TileLedger,
    order: List[str],
    weights: CostWeights,
    budget: Optional[Budget] = None,
) -> None:
    """Reverse-order rebinding pass (always succeeds)."""
    obs = get_metrics()
    moves = 0
    tiles = ledger.architecture.tiles
    tile_order = {tile.name: i for i, tile in enumerate(tiles)}
    for actor in reversed(order):
        if budget is not None:
            budget.checkpoint()
        original = ledger.binding.tile_of(actor)
        ledger.unbind(actor)
        requirements = ledger.application.requirements(actor)
        # Cost of the binding *without* the actor steers the re-sort.
        candidates = sorted(
            (
                tile.name
                for tile in tiles
                if requirements.supports(tile.processor_type)
            ),
            key=lambda t: (ledger.cost(t, weights), tile_order[t]),
        )
        placed = False
        for tile_name in candidates:
            ledger.bind(actor, tile_name)
            if not ledger_violations(ledger):
                placed = True
                break
            ledger.unbind(actor)
        if not placed:  # pragma: no cover - original tile always fits
            ledger.bind(actor, original)
        elif tile_name != original:
            moves += 1
    if obs.enabled:
        obs.counter("binding.rebalance_moves", moves)
