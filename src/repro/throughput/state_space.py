"""Self-timed state-space throughput analysis (paper ref [10]).

An actor fires as soon as sufficient tokens are present on all inputs;
tokens are consumed at the start of a firing and produced at its end,
``tau`` time units later.  The state of the execution is the token
distribution plus the remaining execution times of all active firings.
Because a consistent, strongly connected SDFG visits only finitely many
states under self-timed execution, the execution eventually revisits a
state; the throughput of every actor is its firing count over the
duration of that periodic phase.

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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import get_metrics
from repro.obs.trace import get_trace
from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.faults import fault_point
from repro.sdf.analysis import strongly_connected_components
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector
from repro.sdf.serialization import graph_to_dict
from repro.throughput.kernel import (  # StateSpaceExplosionError: re-exported
    DEFAULT_MAX_STATES,
    ExecutionResult,
    FiringBurstError,
    Frontier,
    Kernel,
    StateSpaceExplosionError,
    seen_from_json,
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


class SelfTimedExecution:
    """Executable self-timed semantics of one (sub-)graph.

    The engine assumes the graph's channels stay bounded (callers pass
    strongly connected graphs or graphs with explicit buffer back-edges,
    like binding-aware graphs).  ``auto_concurrency=False`` adds an
    implicit one-firing-at-a-time restriction per actor, equivalent to a
    self-edge with one initial token.  The execution itself runs in
    :class:`repro.throughput.kernel.Kernel`.
    """

    def __init__(
        self,
        graph: SDFGraph,
        execution_times: Optional[Dict[str, int]] = None,
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
        self._kernel = Kernel.from_sdf(
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
        state = self._kernel.initial()
        state.starts = self.firing_starts
        if resume is not None:
            state.time = resume["time"]
            state.tokens = list(resume["tokens"])
            state.active = [list(firing) for firing in resume["active"]]
            state.completed = list(resume["completed"])
            state.starts = resume["firing_starts"]
            state.seen = seen_from_json(resume["seen"])
        try:
            result = self._run(state)
        except BudgetExceededError as error:
            # the frontier, which execute(resume=...) continues
            # bit-identically (same recurrent state, period and count)
            error.partial["engine_state"] = {
                "time": state.time,
                "tokens": list(state.tokens),
                "active": [list(firing) for firing in state.active],
                "completed": list(state.completed),
                "firing_starts": state.starts,
                "seen": seen_to_json(state.seen),
            }
            raise
        if not result.deadlocked:
            result.certificate = {
                "format": "repro-certificate",
                "version": 1,
                "kind": "self-timed",
                "graph": self.graph.name,
                "actors": list(self._kernel.actors),
                "channels": list(self.graph.channel_names),
                "execution_times": [t for (t,) in self._kernel.times],
                "auto_concurrency": self.auto_concurrency,
                "window_start": state.time,
                "period": result.period,
                "firings": dict(result.period_firings),
                "tokens": list(state.tokens),
                "active": [sorted(firing) for firing in state.active],
            }
        if obs.enabled:
            obs.counter("state_space.executions")
            obs.counter("state_space.states", result.states_explored)
            obs.counter("state_space.firing_starts", self.firing_starts)
            obs.gauge("state_space.hash_set_size", result.states_explored)
            obs.gauge("state_space.transient_time", result.transient_time)
            obs.gauge("state_space.period", result.period or 0)
            if result.deadlocked:
                obs.counter("state_space.deadlocks")
            obs.observe("state_space.execute", perf_counter() - started)
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
    graph: SDFGraph,
    execution_times: Optional[Dict[str, int]] = None,
    auto_concurrency: bool = True,
    max_states: int = DEFAULT_MAX_STATES,
    budget: Optional[Budget] = None,
    resume: Optional[Dict[str, Any]] = None,
) -> ThroughputResult:
    """Self-timed throughput of ``graph`` via SCC-wise state-space analysis.

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
    trace_started = tr.now() if tr.enabled else 0.0
    times = execution_times or {}

    def execute(
        component: Sequence[str], engine_state: Optional[Dict[str, Any]]
    ) -> ExecutionResult:
        return SelfTimedExecution(
            graph.subgraph(component),
            execution_times=(
                {a: times[a] for a in component} if execution_times else None
            ),
            auto_concurrency=auto_concurrency,
            max_states=max_states,
            budget=budget,
        ).execute(resume=engine_state)

    def checkpoint() -> Dict[str, Any]:
        return {
            "kind": "state-space",
            "graph": graph_to_dict(graph),
            "execution_times": execution_times,
            "auto_concurrency": auto_concurrency,
            "max_states": max_states,
            "budget": budget.usage() if budget is not None else None,
        }

    with obs.span("state_space.throughput", graph=graph.name) as span:
        gamma = repetition_vector(graph)
        components = strongly_connected_components(graph)
        result = scc_throughput(
            graph,
            components,
            gamma,
            lambda a: times.get(a, graph.actor(a).execution_time) * gamma[a],
            execute,
            auto_concurrency,
            resume,
            checkpoint,
        )
        if obs.enabled:
            obs.counter("state_space.throughput_calls")
            span.set("sccs", len(components))
            span.set("sccs_explored", len(result.scc_rates))
            span.set("states", result.states_explored)
            span.set("iteration_rate", str(result.iteration_rate))
    if tr.enabled:
        tr.complete(
            "engine",
            "state_space.throughput",
            trace_started,
            tr.now(),
            graph=graph.name,
            states=result.states_explored,
            iteration_rate=str(result.iteration_rate),
        )
    return result


def scc_throughput(
    graph: Any,
    components: List[List[str]],
    gamma: Dict[str, int],
    serial_period: Callable[[str], int],
    execute: Callable[[Sequence[str], Optional[Dict[str, Any]]], ExecutionResult],
    auto_concurrency: bool,
    resume: Optional[Dict[str, Any]] = None,
    checkpoint: Optional[Callable[[], Dict[str, Any]]] = None,
) -> ThroughputResult:
    """The SCC-wise driver of SDF and CSDF throughput.

    ``execute(component, engine_state)`` explores one component with a
    cycle in isolation; the graph's iteration rate is the minimum of
    the component rates.  An actor on no cycle limits the rate only
    without auto-concurrency, to one iteration per
    ``serial_period(actor)``.  On a budget breach ``checkpoint()``
    supplies the fields that identify the analysis in the checkpoint.
    """
    rates: Dict[Tuple[str, ...], Rate] = {}
    certificates: Dict[Tuple[str, ...], Dict[str, Any]] = {}
    states = 0
    overall: Rate = float("inf")
    resume_index = -1
    engine_resume = None
    if resume is not None:
        resume_index = resume["component_index"]
        if not 0 <= resume_index < len(components):
            raise ValueError(
                "checkpoint does not match the graph: component index "
                f"{resume_index} outside [0, {len(components)})"
            )
        states = resume["states"]
        # the components finished before the checkpoint, in order
        for entry in resume["scc_rates"]:
            key = tuple(entry[0])
            rates[key] = rate_from_str(entry[1])
            if len(entry) > 2 and entry[2] is not None:
                certificates[key] = entry[2]
            if rates[key] < overall:
                overall = rates[key]
        engine_resume = resume.get("engine_state")
        get_metrics().counter("checkpoint.components_skipped", resume_index)
    for index, component in enumerate(components):
        key = tuple(component)
        if index < resume_index:
            continue
        if len(component) == 1 and not any(
            c.is_self_loop for c in graph.out_channels(component[0])
        ):
            if not auto_concurrency:
                # One firing at a time acts like a self-edge with one
                # token: the actor alone limits the rate.
                period = serial_period(component[0])
                if period > 0:
                    rate = Fraction(1, period)
                    rates[key] = rate
                    if rate < overall:
                        overall = rate
            continue
        try:
            result = execute(
                component, engine_resume if index == resume_index else None
            )
        except BudgetExceededError as error:
            if checkpoint is not None:
                error.partial["checkpoint"] = {
                    "format": "repro-checkpoint",
                    "version": 1,
                    **checkpoint(),
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
        representative = component[0]
        rate = result.actor_throughput(representative) / gamma[representative]
        rates[key] = rate
        if result.certificate is not None:
            certificates[key] = result.certificate
        if rate < overall:
            overall = rate
    return ThroughputResult(
        iteration_rate=overall,
        gamma=gamma,
        scc_rates=rates,
        states_explored=states,
        certificates=certificates,
    )
