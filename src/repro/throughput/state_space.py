"""Self-timed state-space throughput analysis (paper ref [10]).

An actor fires as soon as sufficient tokens are present on all inputs;
tokens are consumed at the start of a firing and produced at its end,
``tau`` time units later.  The state of the execution is the token
distribution plus the remaining execution times of all active firings.
Because a consistent, strongly connected SDFG visits only finitely many
states under self-timed execution, the execution eventually revisits a
state; the throughput of every actor is its firing count over the
duration of that periodic phase.

One front end serves SDF and CSDF graphs: a CSDF actor's ``k``-th firing
runs phase ``k mod n`` with that phase's time and rates, and an SDF actor
is the one-phase case (:class:`repro.sdf.repetition.DataflowGraph`).

Graphs that are not strongly connected have unbounded channels under
self-timed execution, so the driver :func:`throughput` decomposes the
graph into strongly connected components, analyses each in isolation and
combines them: the iteration rate of the graph is the minimum over the
components (upstream components throttle downstream ones; this is exact
for self-timed executions with unbounded inter-component buffers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs import get_metrics
from repro.obs.trace import get_trace
from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.checkpoint import CheckpointError, require_fields
from repro.resilience.faults import fault_point
from repro.sdf.analysis import strongly_connected_components
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import (
    DataflowGraph,
    Executable,
    PhasedActor,
    RatedChannel,
    repetition_vector,
)
from repro.sdf.serialization import graph_to_dict
from repro.throughput.kernel import (  # StateSpaceExplosionError: re-exported
    DEFAULT_MAX_STATES,
    ExecutionResult,
    FiringBurstError,
    Frontier,
    Kernel,
    StateSpaceExplosionError,
    phase_times,
    seen_to_json,
)

Rate = Union[Fraction, float]


def rate_to_str(rate: Rate) -> str:
    """A rate as an exact, JSON-safe string (``"p/q"``, ``"inf"``)."""
    if rate == float("inf"):
        return "inf"
    return str(Fraction(rate))


def rate_from_str(text: str) -> Rate:
    """Inverse of :func:`rate_to_str`."""
    if text == "inf":
        return float("inf")
    return Fraction(text)


@dataclass
class ThroughputResult:
    """Throughput of a full graph (possibly several SCCs).

    ``iteration_rate`` is the number of complete graph iterations per
    time unit (``float('inf')`` when nothing constrains the rate, i.e.
    the graph has no cycle; ``0`` when the graph deadlocks).
    """

    iteration_rate: Rate
    gamma: Dict[str, int]
    scc_rates: Dict[Tuple[str, ...], Rate] = field(default_factory=dict)
    states_explored: int = 0
    #: per-SCC periodic-phase certificates (see ``docs/VERIFICATION.md``)
    certificates: Dict[Tuple[str, ...], Dict[str, Any]] = field(
        default_factory=dict
    )

    def of(self, actor: str) -> Rate:
        """Steady-state firings per time unit of ``actor``.

        Actors absent from ``gamma`` (e.g. queried against the wrong
        graph) are reported as rate 0 instead of raising ``KeyError``.
        """
        if actor not in self.gamma:
            return Fraction(0)
        if self.iteration_rate == float("inf"):
            return float("inf")
        return self.iteration_rate * self.gamma[actor]

    @property
    def deadlocked(self) -> bool:
        return self.iteration_rate == 0


@dataclass
class _Component:
    """A strongly connected component: its actors and inner channels."""

    name: str
    actors: List[PhasedActor] = field(default_factory=list)
    channels: List[RatedChannel] = field(default_factory=list)


class SelfTimedExecution:
    """Executable self-timed semantics of one SDF or CSDF (sub-)graph.

    The engine assumes the graph's channels stay bounded (callers pass
    strongly connected graphs or graphs with explicit buffer back-edges,
    like binding-aware graphs).  ``auto_concurrency=False`` adds an
    implicit one-firing-at-a-time restriction per actor, equivalent to a
    self-edge with one initial token.  The execution itself runs in
    :class:`repro.throughput.kernel.Kernel`.
    """

    def __init__(
        self,
        graph: Executable,
        execution_times: Optional[Mapping[str, int]] = None,
        auto_concurrency: bool = True,
        max_states: int = DEFAULT_MAX_STATES,
        budget: Optional[Budget] = None,
    ) -> None:
        self.graph = graph
        self.auto_concurrency = auto_concurrency
        self.max_states = max_states
        self.budget = budget
        #: firing starts observed so far (accumulated across runs;
        #: exported when metrics are enabled)
        self.firing_starts = 0
        self._kernel = Kernel.compile(
            graph, execution_times, serial=not auto_concurrency
        )

    def execute_until(
        self, actor: str, firings: int
    ) -> Optional[int]:
        """Time at which ``actor`` completes its ``firings``-th firing.

        Runs the same self-timed semantics as :meth:`execute` but stops
        as soon as the target completion count is reached (used by the
        latency analysis).  Returns None when the graph deadlocks
        first.
        """
        get_metrics().counter("state_space.execute_until_calls")
        fault_point("state_space.execute", graph=self.graph.name)
        state = self._kernel.initial()
        state.starts = self.firing_starts
        return self._run(state, (self._kernel.index[actor], firings))

    def _run(self, state: Frontier, until: Optional[Tuple[int, int]] = None) -> Any:
        try:
            return self._kernel.run(state, self.max_states, self.budget, until)
        except FiringBurstError:
            get_metrics().counter("state_space.zero_time_guard_hits")
            raise
        finally:
            self.firing_starts = state.starts

    def execute(
        self, resume: Optional[Dict[str, Any]] = None
    ) -> ExecutionResult:
        """Run until a recurrent state (or deadlock) and report the period.

        ``resume`` restores a frontier previously captured on
        :class:`BudgetExceededError` (``error.partial["engine_state"]``)
        and continues the interrupted exploration bit-identically.
        """
        obs = get_metrics()
        tr = get_trace()
        fault_point("state_space.execute", graph=self.graph.name)
        started = perf_counter() if obs.enabled else 0.0
        trace_started = tr.now() if tr.enabled else 0.0
        kernel = self._kernel
        phased = kernel.max_phases > 1
        state = kernel.initial()
        state.starts = self.firing_starts
        if resume is not None:
            fields = ("time", "tokens", "active", "completed", "firing_starts", "seen")
            phase = ("phase",) if phased else ()
            require_fields(resume, fields + phase, "engine_state")
            state.time = resume["time"]
            state.tokens = list(resume["tokens"])
            state.active = [list(firing) for firing in resume["active"]]
            state.completed = list(resume["completed"])
            if phased:
                state.phase = list(resume["phase"])
            state.starts = resume["firing_starts"]
            kernel.restore(state, resume["seen"], resume.get("steps"))
        try:
            result = self._run(state)
        except BudgetExceededError as error:
            # the frontier, which execute(resume=...) continues
            # bit-identically (same recurrent state, period and count)
            error.partial["engine_state"] = frontier = {
                "time": state.time,
                "tokens": list(state.tokens),
                "active": [list(firing) for firing in state.active],
                "completed": list(state.completed),
                "firing_starts": state.starts,
                "steps": state.steps,
                "seen": seen_to_json(kernel.convert_seen(state.seen, to_work=True)),
            }
            if phased:
                frontier["phase"] = list(state.phase)
            raise
        if not result.deadlocked:
            # a firing in flight is remaining work * phases + phase; a
            # phased certificate lists per-phase times and adds each
            # actor's next phase and the phase of each firing in flight
            in_flight = [(sorted(f), n) for f, n in zip(state.active, kernel.phases)]
            certificate: Dict[str, Any] = {
                "format": "repro-certificate",
                "version": 1,
                "kind": "self-timed",
                "graph": self.graph.name,
                "actors": list(kernel.actors),
                "channels": [channel.name for channel in self.graph.channels],
                "execution_times": [list(t) if phased else t[0] for t in kernel.times],
                "auto_concurrency": self.auto_concurrency,
                "window_start": state.time,
                "period": result.period,
                "firings": dict(result.period_firings),
                "tokens": list(state.tokens),
                "active": [[e // n for e in firings] for firings, n in in_flight],
            }
            if phased:
                certificate["phases"] = list(state.phase)
                certificate["active_phases"] = [
                    [e % n for e in firings] for firings, n in in_flight
                ]
            result.certificate = certificate
        if obs.enabled:
            obs.counter("state_space.executions")
            obs.counter("state_space.states", result.states_explored)
            obs.counter("state_space.firing_starts", self.firing_starts)
            obs.gauge("state_space.hash_set_size", len(state.seen))
            obs.gauge("state_space.transient_time", result.transient_time)
            obs.gauge("state_space.period", result.period or 0)
            if result.deadlocked:
                obs.counter("state_space.deadlocks")
            obs.histogram(
                "state_space.execute_seconds", perf_counter() - started
            )
        if tr.enabled:
            detail: Dict[str, Any] = (
                {"deadlocked": True}
                if result.deadlocked
                else {"period": result.period, "transient_time": result.transient_time}
            )
            tr.complete(
                "engine",
                "state_space.execute",
                trace_started,
                tr.now(),
                graph=self.graph.name,
                states=result.states_explored,
                **detail,
            )
        return result


def throughput(
    graph: DataflowGraph,
    execution_times: Optional[Mapping[str, int]] = None,
    auto_concurrency: bool = True,
    max_states: int = DEFAULT_MAX_STATES,
    budget: Optional[Budget] = None,
    resume: Optional[Dict[str, Any]] = None,
) -> ThroughputResult:
    """Self-timed throughput of an SDF or CSDF graph, SCC by SCC.

    Returns a :class:`ThroughputResult`; ``result.of(actor)`` is the
    steady-state firing rate of an actor.  Graphs without any cycle are
    reported as unbounded (``float('inf')``); a deadlocking component
    makes the whole graph rate 0.  A :class:`Budget` bounds the
    exploration cooperatively (states charged across all components).

    When the budget fires the raised :class:`BudgetExceededError`
    carries ``error.partial["checkpoint"]``: a versioned, JSON-ready
    payload with the finished components' rates and the interrupted
    engine's frontier.  Passing that payload back as ``resume``
    (normally via
    :func:`repro.resilience.checkpoint.resume_from_checkpoint`)
    continues the analysis bit-identically.
    """
    obs = get_metrics()
    tr = get_trace()
    with tr.span("engine", "state_space.throughput", graph=graph.name) as span:
        gamma = repetition_vector(graph)
        components = strongly_connected_components(graph)
        # each component's actors and inner channels, in graph order
        where = {a: k for k, members in enumerate(components) for a in members}
        parts = [_Component(f"{graph.name}-sub") for _ in components]
        for actor in graph.actors:
            parts[where[actor.name]].actors.append(actor)
        for channel in graph.channels:
            if where[channel.src] == where[channel.dst]:
                parts[where[channel.src]].channels.append(channel)
        rates: Dict[Tuple[str, ...], Rate] = {}
        certificates: Dict[Tuple[str, ...], Dict[str, Any]] = {}
        states = first = 0
        engine_state = None
        if resume is not None:
            first = resume["component_index"]
            if not 0 <= first < len(components):
                raise CheckpointError(
                    "checkpoint does not match the graph: component index "
                    f"{first} outside [0, {len(components)})",
                    field="component_index",
                )
            states = resume["states"]
            # the components finished before the checkpoint, in order
            for done, rate, *certificate in resume["scc_rates"]:
                rates[tuple(done)] = rate_from_str(rate)
                if certificate and certificate[0] is not None:
                    certificates[tuple(done)] = certificate[0]
            engine_state = resume.get("engine_state")
            obs.counter("checkpoint.components_skipped", first)
        for index in range(first, len(components)):
            members, part = components[index], parts[index]
            if not part.channels:
                # an actor on no cycle limits the rate only when it fires
                # one at a time, like a self-edge with one token: one
                # iteration runs gamma / phases of its phase cycles
                if not auto_concurrency:
                    times = phase_times(part.actors[0], execution_times)
                    period = sum(times) * gamma[members[0]] // len(times)
                    if period > 0:
                        rates[tuple(members)] = Fraction(1, period)
                continue
            try:
                result = SelfTimedExecution(
                    part, execution_times, auto_concurrency, max_states, budget
                ).execute(resume=engine_state if index == first else None)
            except BudgetExceededError as error:
                # deferred: repro.csdf imports this module
                from repro.csdf.serialization import csdf_to_dict

                error.partial["checkpoint"] = {
                    "format": "repro-checkpoint",
                    "version": 1,
                    "kind": "state-space",
                    "graph": graph_to_dict(graph)
                    if isinstance(graph, SDFGraph)
                    else csdf_to_dict(graph),
                    "execution_times": execution_times,
                    "auto_concurrency": auto_concurrency,
                    "max_states": max_states,
                    "budget": budget.usage() if budget is not None else None,
                    "component_index": index,
                    "scc_rates": [
                        [list(done), rate_to_str(rate), certificates.get(done)]
                        for done, rate in rates.items()
                    ],
                    "states": states,
                    "engine_state": error.partial.get("engine_state"),
                }
                raise
            states += result.states_explored
            rate = result.actor_throughput(members[0]) / gamma[members[0]]
            rates[tuple(members)] = rate
            if result.certificate is not None:
                certificates[tuple(members)] = result.certificate
        outcome = ThroughputResult(
            iteration_rate=min(rates.values(), default=float("inf")),
            gamma=gamma,
            scc_rates=rates,
            states_explored=states,
            certificates=certificates,
        )
        if obs.enabled:
            obs.counter("state_space.throughput_calls")
        if tr.enabled:
            span.set("sccs", len(components))
            span.set("sccs_explored", len(rates))
            span.set("states", states)
            span.set("iteration_rate", str(outcome.iteration_rate))
    return outcome
