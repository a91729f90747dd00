"""Multi-application allocation flow (paper Section 10.1).

Applications are allocated one after the other on the same architecture
until the first failure; each success commits its resource reservation,
so later applications only see the remaining capacity.  The number of
applications placed is the paper's quality metric (Table 4), and the
total occupied resources at the stopping point its efficiency metric
(Table 5).

The flow is hardened for long batch runs: a shared
:class:`~repro.resilience.budget.Budget` bounds the whole run,
``degrade=True`` walks the :mod:`repro.resilience.policy` ladder
instead of failing outright when the exact strategy runs out of search
resources, and an unexpected exception from one application is isolated
as an ``"error"`` outcome rather than aborting the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.appmodel.application import ApplicationGraph
from repro.appmodel.binding import Allocation
from repro.arch.architecture import ArchitectureGraph
from repro.core.strategy import AllocationError, ResourceAllocator
from repro.core.tile_cost import CostWeights
from repro.obs import get_metrics
from repro.obs.trace import get_trace
from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.policy import resilient_allocate


@dataclass
class FlowResult:
    """Outcome of one allocate-until-failure run."""

    allocations: List[Allocation] = field(default_factory=list)
    #: ladder rung per committed allocation (parallel to ``allocations``;
    #: None when the exact strategy ran without the degradation ladder)
    rungs: List[Optional[str]] = field(default_factory=list)
    failed_application: Optional[str] = None
    failure_reason: Optional[str] = None
    #: occupied resources summed over tiles when the flow stopped
    resource_usage: Dict[str, int] = field(default_factory=dict)
    #: architecture capacity summed over tiles (for utilisation ratios)
    resource_capacity: Dict[str, int] = field(default_factory=dict)
    #: one record per attempted application, uniform schema (see
    #: :func:`_stat`): every record has the same keys, with ``None``
    #: where a key does not apply to the outcome.  ``outcome`` is one of
    #: ``"allocated"``, ``"degraded"``, ``"rejected"``, ``"failed"``,
    #: ``"budget-exhausted"`` or ``"error"``.
    application_stats: List[Dict[str, object]] = field(default_factory=list)

    @property
    def applications_bound(self) -> int:
        return len(self.allocations)

    @property
    def degraded_applications(self) -> int:
        """Applications placed by a fallback rung, not the exact strategy."""
        return sum(
            1
            for record in self.application_stats
            if record["outcome"] == "degraded"
        )

    @property
    def total_throughput_checks(self) -> int:
        return sum(a.throughput_checks for a in self.allocations)

    def utilisation(self) -> Dict[str, float]:
        """Occupied fraction per resource kind."""
        return {
            key: (
                self.resource_usage[key] / self.resource_capacity[key]
                if self.resource_capacity.get(key)
                else 0.0
            )
            for key in self.resource_usage
        }


def _stat(
    application: str,
    outcome: str,
    seconds: float,
    reason: Optional[str] = None,
    throughput_checks: Optional[int] = None,
    achieved_throughput: Optional[str] = None,
    tiles_used: Optional[int] = None,
    rung: Optional[str] = None,
) -> Dict[str, object]:
    """One ``application_stats`` record; every key always present."""
    return {
        "application": application,
        "outcome": outcome,
        "seconds": seconds,
        "reason": reason,
        "throughput_checks": throughput_checks,
        "achieved_throughput": achieved_throughput,
        "tiles_used": tiles_used,
        "rung": rung,
    }


def allocate_until_failure(
    architecture: ArchitectureGraph,
    applications: Iterable[ApplicationGraph],
    allocator: Optional[ResourceAllocator] = None,
    weights: Optional[CostWeights] = None,
    continue_after_failure: bool = False,
    budget: Optional[Budget] = None,
    degrade: bool = False,
    checkpoint_path: Optional[str] = None,
    resume: Optional[Union[str, Dict[str, Any]]] = None,
    preflight: bool = True,
) -> FlowResult:
    """Allocate ``applications`` in order on ``architecture``.

    The architecture is mutated (reservations are committed); pass a
    copy when the original must stay clean.  By default the flow stops
    at the first failure (the paper's conservative estimate);
    ``continue_after_failure=True`` keeps trying the remaining
    applications (the improvement the paper suggests in §10.1).

    A ``budget`` is shared by the whole run.  With ``degrade=False`` an
    exhausted budget records a ``"budget-exhausted"`` outcome (treated
    like a failure for the stopping rule); with ``degrade=True`` each
    application descends the degradation ladder of
    :func:`~repro.resilience.policy.resilient_allocate` instead, so a
    tight deadline yields conservative-but-complete allocations
    (``"degraded"`` outcomes) rather than a truncated flow.  An
    unexpected exception from one application — a bug, a malformed
    graph, an injected fault — is recorded as ``"error"`` and isolated
    from the other applications.

    With ``checkpoint_path`` set the flow is crash-safe: after every
    successful commit a flow checkpoint (kind ``"flow"``, the committed
    allocations in full) is atomically rewritten at that path.  Passing
    a previously written flow checkpoint as ``resume`` re-applies the
    recorded commits without re-running their searches and continues
    with the remaining applications; an application that was not
    committed is searched again from the start.

    With ``preflight=True`` (default) every application first passes
    through the static analyser (:func:`repro.analysis.preflight_check`)
    against the architecture's *current* occupancy.  An error-severity
    finding — inconsistent rates, structural deadlock, an actor without
    a Γ entry, a throughput constraint above the static bounds — proves
    no allocation exists, so the application is recorded as
    ``"rejected"`` without exploring a single state (treated like a
    failure for the stopping rule).
    """
    if allocator is None:
        allocator = ResourceAllocator(weights=weights or CostWeights(1, 1, 1))
    elif weights is not None:
        raise ValueError("pass either an allocator or weights, not both")
    if budget is not None:
        budget.start()

    obs = get_metrics()
    tr = get_trace()
    result = FlowResult()

    completed: List[str] = []  # committed application names, in order
    #: per name, how many upcoming occurrences were already committed by
    #: the resumed run and must be skipped (count-based so flows with
    #: repeated application names resume correctly)
    skip_restored: Dict[str, int] = {}
    committed_bundles: List[Dict[str, Any]] = []
    committed_stats: List[Dict[str, object]] = []
    if resume is not None:
        from repro.appmodel.serialization import allocation_from_dict
        from repro.resilience.checkpoint import CheckpointError, read_checkpoint

        data = read_checkpoint(resume) if isinstance(resume, str) else resume
        if data.get("kind") != "flow":
            raise CheckpointError(
                f"expected a flow checkpoint, got kind {data.get('kind')!r}",
                field="kind",
            )
        for key in ("allocations", "stats"):
            if key not in data:
                raise CheckpointError(
                    f"flow checkpoint is missing required field {key!r} "
                    "(truncated or hand-edited?)",
                    field=key,
                )
        obs.counter("checkpoint.flow_resumes")
        for entry, stat in zip(data["allocations"], data["stats"]):
            allocation = allocation_from_dict(entry)
            allocation.reservation.commit(architecture)
            result.allocations.append(allocation)
            result.rungs.append(entry.get("rung"))
            result.application_stats.append(dict(stat))
            name = allocation.application.name
            completed.append(name)
            skip_restored[name] = skip_restored.get(name, 0) + 1
            committed_bundles.append(entry)
            committed_stats.append(dict(stat))

    def write_flow_checkpoint() -> None:
        from repro.resilience.checkpoint import write_checkpoint

        write_checkpoint(
            checkpoint_path,
            {
                "format": "repro-checkpoint",
                "version": 1,
                "kind": "flow",
                "completed": list(completed),
                "allocations": committed_bundles,
                "stats": committed_stats,
            },
        )

    def record_failure(
        application: ApplicationGraph, record: Dict[str, object], span: Any
    ) -> bool:
        """Append a non-success record; True when the flow should stop."""
        result.application_stats.append(record)
        span.set("outcome", record["outcome"])
        span.set("reason", record["reason"])
        if result.failed_application is None:
            result.failed_application = application.name
            result.failure_reason = record["reason"]  # type: ignore[assignment]
        return not continue_after_failure

    for application in applications:
        if skip_restored.get(application.name, 0) > 0:
            skip_restored[application.name] -= 1
            continue
        started = perf_counter()
        with tr.span(
            "flow", "application", application=application.name
        ) as span:
            if preflight:
                from repro.analysis.engine import preflight_check

                gate = preflight_check(application, architecture)
                if gate.has_errors:
                    obs.counter("flow.rejected")
                    stop = record_failure(
                        application,
                        _stat(
                            application.name,
                            "rejected",
                            perf_counter() - started,
                            reason=f"statically infeasible: {gate.summary()}",
                        ),
                        span,
                    )
                    if stop:
                        break
                    continue
            try:
                if degrade:
                    resilient = resilient_allocate(
                        application,
                        architecture,
                        allocator=allocator,
                        budget=budget,
                        preflight=False,
                    )
                    allocation = resilient.allocation
                    rung: Optional[str] = resilient.rung
                    outcome = "degraded" if resilient.degraded else "allocated"
                else:
                    allocation = allocator.allocate(
                        application, architecture, budget=budget
                    )
                    rung = None
                    outcome = "allocated"
                allocation.reservation.commit(architecture)
            except AllocationError as error:
                obs.counter("flow.failures")
                stop = record_failure(
                    application,
                    _stat(
                        application.name,
                        "failed",
                        perf_counter() - started,
                        reason=str(error),
                    ),
                    span,
                )
                if stop:
                    break
                continue
            except BudgetExceededError as error:
                obs.counter("flow.budget_exhausted")
                stop = record_failure(
                    application,
                    _stat(
                        application.name,
                        "budget-exhausted",
                        perf_counter() - started,
                        reason=str(error),
                    ),
                    span,
                )
                if stop:
                    break
                continue
            except Exception as error:  # noqa: BLE001 - isolation boundary
                obs.counter("flow.errors")
                span.set("error_type", type(error).__name__)
                stop = record_failure(
                    application,
                    _stat(
                        application.name,
                        "error",
                        perf_counter() - started,
                        reason=f"{type(error).__name__}: {error}",
                    ),
                    span,
                )
                if stop:
                    break
                continue
            result.allocations.append(allocation)
            result.rungs.append(rung)
            obs.counter("flow.allocated")
            if outcome == "degraded":
                obs.counter("flow.degraded")
            span.set("outcome", outcome)
            span.set("rung", rung)
            record = _stat(
                application.name,
                outcome,
                perf_counter() - started,
                throughput_checks=allocation.throughput_checks,
                achieved_throughput=str(allocation.achieved_throughput),
                tiles_used=len(allocation.binding.used_tiles()),
                rung=rung,
            )
            result.application_stats.append(record)
            completed.append(application.name)
            if checkpoint_path is not None:
                from repro.appmodel.serialization import allocation_to_dict

                committed_bundles.append(
                    allocation_to_dict(allocation, rung=rung)
                )
                committed_stats.append(dict(record))
                write_flow_checkpoint()
    result.resource_usage = architecture.total_usage()
    result.resource_capacity = architecture.total_capacity()
    if obs.enabled:
        obs.gauge("flow.applications_bound", result.applications_bound)
        obs.counter(
            "flow.throughput_checks", result.total_throughput_checks
        )
    return result
