"""The complete resource-allocation strategy (paper Section 9).

:class:`ResourceAllocator` chains the three steps — binding, static-order
scheduling, slice allocation — and returns an :class:`Allocation` whose
reservation can be committed to the architecture.  Each step's failure
mode surfaces as a distinct exception, all subclasses of
:class:`AllocationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.appmodel.application import ApplicationGraph
from repro.appmodel.binding import Allocation, Binding, SchedulingFunction
from repro.appmodel.binding_aware import (
    InfeasibleBindingError,
    build_binding_aware_graph,
)
from repro.arch.architecture import ArchitectureGraph
from repro.core.binding import BindingError, bind_application
from repro.core.constraints import binding_violations, reservation_for
from repro.core.scheduling import SchedulingError, build_static_order_schedules
from repro.core.slices import SliceAllocationError, allocate_time_slices
from repro.core.tile_cost import CostWeights
from repro.obs import get_metrics
from repro.obs.trace import get_trace
from repro.resilience.budget import Budget, BudgetExceededError
from repro.throughput.state_space import (
    DEFAULT_MAX_STATES,
    StateSpaceExplosionError,
)

#: every strategy implementation :attr:`ResourceAllocator.backend` names
BACKENDS = ("greedy", "exact")


class AllocationError(RuntimeError):
    """A resource allocation could not be found.

    The ``__cause__`` chain identifies the failing step (binding,
    scheduling or slice allocation).
    """


@dataclass
class ResourceAllocator:
    """Configurable facade over the three-step strategy.

    Parameters mirror the paper's knobs: the Eqn. 2 weights, the 10%
    early-stop band of the slice search, whether the rebinding and
    slice-refinement optimisation passes run, and the state budget of
    the throughput engine.

    ``backend`` selects the strategy implementation: ``"greedy"`` (the
    paper's three-step heuristic, the default) or ``"exact"`` (the
    :mod:`repro.exact` branch-and-bound search, which returns the
    provably cheapest feasible allocation at combinatorial cost — see
    ``docs/EXACT.md``).  The exact backend honours ``weights`` and
    ``max_states``; the greedy-only knobs (``relaxation``,
    ``optimise_binding``, ``refine_slices``) do not apply to it.
    """

    weights: CostWeights = CostWeights(1, 1, 1)
    relaxation: float = 0.1
    optimise_binding: bool = True
    refine_slices: bool = True
    max_states: int = DEFAULT_MAX_STATES
    #: strategy implementation: "greedy" or "exact"
    backend: str = "greedy"

    def allocate(
        self,
        application: ApplicationGraph,
        architecture: ArchitectureGraph,
        binding: Optional[Binding] = None,
        budget: Optional[Budget] = None,
    ) -> Allocation:
        """Run the strategy for one application.

        A pre-computed ``binding`` skips step 1 (used by experiments
        that sweep schedules or slices for a fixed binding); one that
        violates a Section 7 constraint raises :class:`AllocationError`.
        The returned allocation is *not* committed; call
        ``allocation.reservation.commit(architecture)`` to occupy the
        resources (as :mod:`repro.core.flow` does).

        A :class:`Budget` is threaded through every step; on exhaustion
        the raised :class:`BudgetExceededError` propagates *unwrapped*
        (it is not an :class:`AllocationError` — the allocation is
        neither proven feasible nor infeasible, merely unfinished).
        """
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} "
                "(expected 'greedy' or 'exact')"
            )
        obs = get_metrics()
        tr = get_trace()
        if budget is not None:
            budget.start()
        if self.backend == "exact":
            return self._allocate_exact(
                application, architecture, binding, budget
            )
        with tr.span(
            "strategy", "allocate", application=application.name
        ) as span:
            try:
                if binding is None:
                    with obs.timer("allocate.binding_seconds"):
                        binding = bind_application(
                            application,
                            architecture,
                            self.weights,
                            optimise=self.optimise_binding,
                            budget=budget,
                        )
                else:
                    violations = binding_violations(
                        application, architecture, binding
                    )
                    if violations:
                        raise BindingError(
                            "the given binding violates Section 7: "
                            + "; ".join(str(v) for v in violations)
                        )
                with obs.timer("allocate.binding_aware_seconds"):
                    bag = build_binding_aware_graph(
                        application, architecture, binding
                    )
                with obs.timer("allocate.scheduling_seconds"):
                    schedules = build_static_order_schedules(
                        bag, max_states=self.max_states, budget=budget
                    )
                with obs.timer("allocate.slices_seconds"):
                    slice_result = allocate_time_slices(
                        bag,
                        schedules,
                        relaxation=self.relaxation,
                        refine=self.refine_slices,
                        max_states=self.max_states,
                        budget=budget,
                    )
            except BudgetExceededError as error:
                if obs.enabled:
                    obs.counter("allocate.budget_exceeded")
                if tr.enabled:
                    span.set("outcome", "budget-exhausted")
                    span.set("reason", error.reason)
                raise
            except (
                BindingError,
                InfeasibleBindingError,
                SchedulingError,
                SliceAllocationError,
                StateSpaceExplosionError,
            ) as error:
                if obs.enabled:
                    obs.counter("allocate.failures")
                if tr.enabled:
                    span.set("outcome", "failed")
                    span.set("reason", str(error))
                raise AllocationError(
                    f"no valid allocation for {application.name!r}: {error}"
                ) from error

            scheduling = SchedulingFunction()
            for tile_name, schedule in schedules.items():
                scheduling.set_schedule(tile_name, schedule)
            for tile_name, size in slice_result.slices.items():
                scheduling.set_slice(tile_name, size)

            achieved = slice_result.achieved_throughput
            checks = slice_result.throughput_checks
            reservation = reservation_for(
                application, architecture, binding, slice_result.slices
            )
            if obs.enabled:
                obs.counter("allocate.successes")
                obs.counter("allocate.throughput_checks", checks)
            if tr.enabled:
                span.set("outcome", "allocated")
                span.set("throughput_checks", checks)
                span.set("achieved_throughput", str(achieved))
                span.set("tiles_used", len(binding.used_tiles()))
            return Allocation(
                application=application,
                binding=binding,
                scheduling=scheduling,
                reservation=reservation,
                achieved_throughput=achieved,
                throughput_checks=checks,
                certificate=slice_result.certificate,
            )

    def _allocate_exact(
        self,
        application: ApplicationGraph,
        architecture: ArchitectureGraph,
        binding: Optional[Binding],
        budget: Optional[Budget],
    ) -> Allocation:
        """The ``backend="exact"`` path: delegate to :mod:`repro.exact`.

        Keeps the facade's contract: an infeasibility proof surfaces as
        :class:`AllocationError`, a :class:`BudgetExceededError`
        propagates unwrapped (the search is merely unfinished and
        carries its incumbent as partial progress).
        """
        # deferred import: repro.exact sits above core in the layering
        from repro.exact.search import exact_search

        obs = get_metrics()
        try:
            result = exact_search(
                application,
                architecture,
                weights=self.weights,
                binding=binding,
                max_states=self.max_states,
                budget=budget,
            )
        except BudgetExceededError:
            if obs.enabled:
                obs.counter("allocate.budget_exceeded")
            raise
        if result.allocation is None:
            if obs.enabled:
                obs.counter("allocate.failures")
            raise AllocationError(
                f"no valid allocation for {application.name!r}: the exact "
                f"search proved the constraint infeasible "
                f"({result.nodes_explored} nodes, "
                f"{result.throughput_checks} throughput checks)"
            )
        if obs.enabled:
            obs.counter("allocate.successes")
            obs.counter("allocate.throughput_checks", result.throughput_checks)
        return result.allocation
