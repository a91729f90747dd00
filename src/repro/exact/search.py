"""The branch-and-bound core of the exact allocator.

The search space is the cross product of actor-to-tile bindings and
discretised TDMA slice widths.  Static orders are *not* independent
decision variables: for every complete binding the deterministic §9.2
list scheduler derives them, so the optimum is exact **relative to the
paper's scheduling policy** (the same restriction the greedy flow
lives under, which is what makes "exact cost <= greedy cost" a sound
differential oracle; see ``docs/EXACT.md``).

Shape of the search:

1. **Binding nodes.**  Actors are branched in decreasing criticality
   order (:func:`repro.core.criticality.binding_order`), candidate
   tiles in the greedy binder's order
   (:func:`repro.core.binding.ranked_tiles`) so good incumbents appear
   early.  A node is discarded when
   (a) the Section 7 resource constraints are already violated — all
   demands only grow as the binding is extended, so no completion can
   recover; (b) the refined static throughput bound
   (:func:`repro.exact.bounds.partial_throughput_bound`, read through
   the search's :class:`~repro.exact.bounds.ThroughputBound`) falls below
   the constraint; or (c) the admissible cost lower bound (partial
   Eqn. 2 loads plus one minimal slice per used tile) already reaches
   the incumbent's cost.  (b) and (c) are the *relaxation* prunes and
   can be disabled with ``prune=False`` — the property tests compare
   both modes to show pruning never changes the optimum.  Actors move
   through one :class:`~repro.core.tile_cost.TileLedger`, which all
   three checks and the candidate ranking read; a node's Eqn. 2 cost is
   computed at most once and handed down to its leaf.
2. **Leaves.**  A complete binding gets its §9.2 static orders, then a
   depth-first search over per-tile slice widths on the grid
   ``{1, 2, ..., wheel_remaining}``.  Throughput is monotone
   non-decreasing in every slice width, so (i) if even the full
   remaining wheels miss the constraint the leaf is dead, (ii) per
   prefix the minimal width that works "with everything after it at
   maximum" is found by binary search and smaller widths need never be
   tried, and (iii) on the last tile the first feasible width is the
   cheapest completion of the prefix.  Every evaluation is one
   throughput check: a constrained state-space exploration whose
   certificate is kept, so the winning allocation carries the same
   :mod:`repro.verify` evidence a greedy allocation does — unless a
   slice is below its tile's floor
   (:class:`~repro.core.slices.SliceFloors`), which fails the probe
   without exploring it.

The slice grid is a superset of anything the greedy binary search can
return, hence for any binding both backends agree on feasibility and
the exact cost lower-bounds the greedy cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from repro.appmodel.application import ApplicationGraph
from repro.appmodel.binding import Allocation, Binding, SchedulingFunction
from repro.appmodel.binding_aware import (
    BindingAwareGraph,
    InfeasibleBindingError,
    build_binding_aware_graph,
)
from repro.arch.architecture import ArchitectureGraph
from repro.core.binding import ranked_tiles
from repro.core.constraints import ledger_violations, reservation_for
from repro.core.criticality import binding_order
from repro.core.scheduling import SchedulingError, build_static_order_schedules
from repro.core.slices import SliceFloors
from repro.core.tile_cost import CostWeights, TileLedger
from repro.exact.bounds import ThroughputBound
from repro.exact.cost import load_cost, weight_fractions
from repro.obs import get_metrics
from repro.obs.trace import get_trace
from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.faults import fault_point
from repro.throughput.constrained import constrained_throughput
from repro.throughput.state_space import (
    DEFAULT_MAX_STATES,
    StateSpaceExplosionError,
)


@dataclass
class ExactSearchResult:
    """Outcome and work counters of one branch-and-bound run.

    ``allocation`` is ``None`` when the search *proved* the constraint
    infeasible (an exhausted budget raises instead — an unfinished
    search proves nothing).  The counters are deterministic for a fixed
    input, which is what lets the ``exact-small`` bench workload pin
    them.
    """

    allocation: Optional[Allocation]
    #: objective value of ``allocation`` (None when infeasible)
    cost: Optional[Fraction]
    #: binding nodes visited (one per attempted actor-to-tile placement)
    nodes_explored: int
    #: nodes discarded by the bound/incumbent relaxation prunes
    nodes_pruned: int
    #: nodes discarded because Section 7 constraints were violated
    constraint_rejections: int
    #: complete bindings whose slice space was searched
    leaves_evaluated: int
    #: constrained state-space explorations spent
    throughput_checks: int
    #: leaves abandoned on a state-space explosion (documented caveat:
    #: such leaves are treated as infeasible, like the greedy flow does)
    explosions: int

    @property
    def feasible(self) -> bool:
        return self.allocation is not None


@dataclass
class _Stats:
    nodes: int = 0
    pruned: int = 0
    rejected: int = 0
    leaves: int = 0
    checks: int = 0
    explosions: int = 0


@dataclass
class _Incumbent:
    cost: Fraction
    binding: Binding
    schedules: Dict[str, Any]
    slices: Dict[str, int]
    achieved: Fraction
    certificate: Optional[Dict[str, Any]]


@dataclass
class _SliceOutcome:
    slices: Dict[str, int]
    cost: Fraction
    achieved: Fraction
    certificate: Optional[Dict[str, Any]]


def _search_slices(
    bag: BindingAwareGraph,
    schedules: Dict[str, Any],
    base_cost: Fraction,
    incumbent_cost: Optional[Fraction],
    max_states: int,
    budget: Optional[Budget],
    stats: _Stats,
) -> Optional[_SliceOutcome]:
    """Cheapest feasible slice vector for one complete binding.

    Returns ``None`` when no vector on the grid meets the constraint
    *or* none beats ``incumbent_cost`` (callers cannot distinguish the
    two, and need not: either way the leaf does not improve the
    incumbent).
    """
    application = bag.application
    constraint = application.throughput_constraint
    output_actor = application.output_actor
    names = bag.binding.used_tiles()
    remaining = {
        name: bag.architecture.tile(name).wheel_remaining for name in names
    }
    if any(value < 1 for value in remaining.values()):
        return None
    wheels = {name: bag.architecture.tile(name).wheel for name in names}

    obs = get_metrics()
    scheduling = SchedulingFunction()
    for name, schedule in schedules.items():
        scheduling.set_schedule(name, schedule)

    floors = SliceFloors.of(bag)
    memo: Dict[
        Tuple[int, ...], Tuple[Optional[Fraction], Optional[Dict[str, Any]]]
    ] = {}

    def evaluate(
        slices: Dict[str, int],
    ) -> Tuple[Optional[Fraction], Optional[Dict[str, Any]]]:
        """One throughput check per distinct vector: its rate and
        certificate, or ``(None, None)`` when a slice below its floor
        fails the probe unexplored."""
        key = tuple(slices[name] for name in names)
        cached = memo.get(key)
        if cached is not None:
            return cached
        stats.checks += 1
        obs.counter("exact.throughput_checks")
        if budget is not None:
            budget.charge_check()
        if floors.rejects(slices):
            obs.counter("slices.floor_rejections")
            memo[key] = (None, None)
            return memo[key]
        for name in names:
            scheduling.set_slice(name, slices[name])
        result = constrained_throughput(
            bag.graph,
            bag.tile_constraints(scheduling),
            max_states=max_states,
            budget=budget,
        )
        value = (result.of(output_actor), result.certificate)
        memo[key] = value
        return value

    # even the full remaining wheels miss the constraint: dead leaf, by
    # monotonicity of throughput in the slice widths
    achieved, _ = evaluate(dict(remaining))
    if achieved is None or achieved < constraint:
        return None

    best: Optional[_SliceOutcome] = None

    def best_known() -> Optional[Fraction]:
        if best is None:
            return incumbent_cost
        if incumbent_cost is None:
            return best.cost
        return min(best.cost, incumbent_cost)

    def minimal_tail(start: int) -> Fraction:
        total = Fraction(0)
        for j in range(start, len(names)):
            total += Fraction(1, wheels[names[j]])
        return total

    def extend(
        index: int, chosen: Dict[str, int], prefix_cost: Fraction
    ) -> None:
        nonlocal best
        if budget is not None:
            budget.checkpoint()
        name = names[index]
        last = index == len(names) - 1

        def feasible_with_max_rest(width: int) -> bool:
            candidate = dict(chosen)
            candidate[name] = width
            for j in range(index + 1, len(names)):
                candidate[names[j]] = remaining[names[j]]
            rate, _ = evaluate(candidate)
            return rate is not None and rate >= constraint

        # smallest width that can still reach the constraint when every
        # later tile takes its whole wheel; anything below it is
        # infeasible for *every* completion
        low, high = 1, remaining[name]
        if not feasible_with_max_rest(high):
            return
        while low < high:
            mid = (low + high) // 2
            if feasible_with_max_rest(mid):
                high = mid
            else:
                low = mid + 1

        tail = minimal_tail(index + 1)
        for width in range(low, remaining[name] + 1):
            cost = prefix_cost + Fraction(width, wheels[name])
            known = best_known()
            if known is not None and cost + tail >= known:
                break  # widths only grow from here
            candidate = dict(chosen)
            candidate[name] = width
            if last:
                rate, certificate = evaluate(candidate)
                if rate is not None and rate >= constraint:
                    best = _SliceOutcome(
                        dict(candidate), cost, rate, certificate
                    )
                break  # minimal feasible width; larger only costs more
            extend(index + 1, candidate, cost)

    extend(0, {}, base_cost)
    return best


def exact_search(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    weights: Optional[CostWeights] = None,
    binding: Optional[Binding] = None,
    prune: bool = True,
    max_states: int = DEFAULT_MAX_STATES,
    budget: Optional[Budget] = None,
) -> ExactSearchResult:
    """Provably cheapest feasible allocation, or a proof there is none.

    ``weights`` defaults to :meth:`CostWeights.default` and must be
    non-negative (the admissible cost bound relies on monotone loads).
    A pre-computed (possibly partial) ``binding`` fixes those actors
    and branches only over the rest; one that already violates a
    Section 7 constraint, or whose root throughput bound misses the
    constraint, is proved infeasible.  The slice grid holds every width
    up to each tile's remaining wheel, so it dominates everything the
    greedy search can return.  ``prune=False`` disables the relaxation
    prunes (exhaustive enumeration — the property-test oracle).

    The search is deterministic: identical inputs yield the identical
    allocation and identical work counters.  A :class:`Budget` is
    checked at every node and threaded into every engine call; on
    exhaustion the raised :class:`BudgetExceededError` carries the
    incumbent so far under ``error.partial["exact"]``.
    """
    weights = weights if weights is not None else CostWeights.default()
    if min(weights.as_tuple()) < 0:
        raise ValueError(
            "exact search requires non-negative cost weights "
            f"(got {weights})"
        )
    application.check_complete()
    if budget is not None:
        budget.start()
    fault_point("exact.search", application=application.name)

    obs = get_metrics()
    tr = get_trace()
    constraint = application.throughput_constraint
    stats = _Stats()
    incumbent: Optional[_Incumbent] = None

    fixed = binding if binding is not None else Binding()
    order = [
        actor
        for actor in binding_order(application)
        if not fixed.is_bound(actor)
    ]

    def finish(span: Any) -> ExactSearchResult:
        allocation: Optional[Allocation] = None
        cost: Optional[Fraction] = None
        if incumbent is not None:
            scheduling = SchedulingFunction()
            for tile_name, schedule in incumbent.schedules.items():
                scheduling.set_schedule(tile_name, schedule)
            for tile_name, width in incumbent.slices.items():
                scheduling.set_slice(tile_name, width)
            reservation = reservation_for(
                application, architecture, incumbent.binding, incumbent.slices
            )
            allocation = Allocation(
                application=application,
                binding=incumbent.binding,
                scheduling=scheduling,
                reservation=reservation,
                achieved_throughput=incumbent.achieved,
                throughput_checks=stats.checks,
                certificate=incumbent.certificate,
            )
            cost = incumbent.cost
        if obs.enabled:
            obs.counter("exact.searches")
            obs.counter("exact.nodes_explored", stats.nodes)
            obs.counter("exact.nodes_pruned", stats.pruned)
            obs.counter("exact.leaves_evaluated", stats.leaves)
        if tr.enabled:
            span.set("outcome", "feasible" if allocation else "infeasible")
            span.set("feasible", allocation is not None)
            span.set("cost", str(cost) if cost is not None else None)
            span.set("nodes_explored", stats.nodes)
            span.set("nodes_pruned", stats.pruned)
            span.set("leaves_evaluated", stats.leaves)
            span.set("throughput_checks", stats.checks)
        return ExactSearchResult(
            allocation=allocation,
            cost=cost,
            nodes_explored=stats.nodes,
            nodes_pruned=stats.pruned,
            constraint_rejections=stats.rejected,
            leaves_evaluated=stats.leaves,
            throughput_checks=stats.checks,
            explosions=stats.explosions,
        )

    with tr.span("exact", "search", application=application.name) as span:
        # the fixed actors are the root node; demands only grow and the
        # bound only falls as the binding is extended, so a root whose
        # bound misses the constraint, or that violates §7, has no
        # feasible leaf (unfixed, the bound is static_throughput_bound)
        ledger = TileLedger(application, architecture, fixed)
        bound = ThroughputBound(application, architecture)
        root = bound.of(ledger)
        if root is not None and root < constraint:
            if obs.enabled:
                obs.counter("exact.static_rejections")
            return finish(span)
        if ledger_violations(ledger):
            stats.rejected += 1
            return finish(span)
        fractions = weight_fractions(weights)
        # every used tile (one with wheel left, or the node is rejected)
        # will pay at least one slot of its wheel
        minimal_slice = {
            tile.name: Fraction(1, tile.wheel) for tile in architecture.tiles
        }

        def admissible() -> Tuple[bool, Optional[Fraction]]:
            """Whether some completion of the ledger's binding can
            matter, and the binding's Eqn. 2 cost if that took it."""
            limit = bound.of(ledger)
            if limit is not None and limit < constraint:
                return False, None
            if incumbent is None:
                return True, None
            cost = load_cost(ledger, fractions)
            lower = cost + sum(
                (minimal_slice[tile_name] for tile_name in ledger.usage),
                Fraction(0),
            )
            return lower < incumbent.cost, cost

        def evaluate_leaf(cost: Optional[Fraction]) -> None:
            nonlocal incumbent
            stats.leaves += 1
            current = ledger.binding
            try:
                bag = build_binding_aware_graph(
                    application, architecture, current
                )
                schedules = build_static_order_schedules(
                    bag, max_states=max_states, budget=budget
                )
            except (InfeasibleBindingError, SchedulingError):
                return
            except StateSpaceExplosionError:
                stats.explosions += 1
                return
            base = cost if cost is not None else load_cost(ledger, fractions)
            try:
                outcome = _search_slices(
                    bag,
                    schedules,
                    base,
                    incumbent.cost if incumbent is not None else None,
                    max_states,
                    budget,
                    stats,
                )
            except StateSpaceExplosionError:
                stats.explosions += 1
                return
            if outcome is None:
                return
            if incumbent is None or outcome.cost < incumbent.cost:
                incumbent = _Incumbent(
                    cost=outcome.cost,
                    binding=current.copy(),
                    schedules=dict(schedules),
                    slices=outcome.slices,
                    achieved=outcome.achieved,
                    certificate=outcome.certificate,
                )
                if obs.enabled:
                    obs.counter("exact.incumbents")
                if tr.enabled:
                    tr.instant(
                        "exact",
                        "incumbent",
                        application=application.name,
                        cost=str(outcome.cost),
                        tiles_used=len(current.used_tiles()),
                    )

        def descend(index: int, cost: Optional[Fraction]) -> None:
            """Branch on ``order[index]``; ``cost`` is the current
            binding's Eqn. 2 cost when its node computed it."""
            if budget is not None:
                budget.checkpoint()
            if index == len(order):
                evaluate_leaf(cost)
                return
            actor = order[index]
            for tile_name in ranked_tiles(ledger, actor, weights):
                ledger.bind(actor, tile_name)
                stats.nodes += 1
                if ledger_violations(ledger):
                    stats.rejected += 1
                else:
                    keep, node_cost = admissible() if prune else (True, None)
                    if keep:
                        descend(index + 1, node_cost)
                    else:
                        stats.pruned += 1
                ledger.unbind(actor)

        try:
            descend(0, None)
        except BudgetExceededError as error:
            progress: Dict[str, Any] = {
                "nodes_explored": stats.nodes,
                "nodes_pruned": stats.pruned,
                "leaves_evaluated": stats.leaves,
                "throughput_checks": stats.checks,
            }
            if incumbent is not None:
                progress["incumbent_cost"] = str(incumbent.cost)
                progress["incumbent_binding"] = dict(
                    incumbent.binding.assignment
                )
                progress["incumbent_slices"] = dict(incumbent.slices)
            error.partial.setdefault("exact", progress)
            if obs.enabled:
                obs.counter("exact.budget_exceeded")
            if tr.enabled:
                span.set("outcome", "budget-exhausted")
                span.set("reason", error.reason)
            raise
        return finish(span)
