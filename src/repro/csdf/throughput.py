"""Self-timed state-space throughput for CSDF graphs.

The execution kernel of :mod:`repro.throughput.kernel` runs CSDF
natively: every firing remembers the phase it started in, because
production rates and durations are phase-dependent, and each actor's
next phase is part of the hashed state.

The driver decomposes into strongly connected components like the SDF
driver: the iteration rate of the graph is the minimum over components
of their isolated rates (exact for self-timed executions with unbounded
inter-component buffers).
"""

from __future__ import annotations

from typing import Sequence

from repro.csdf.graph import CSDFGraph
from repro.sdf.analysis import strongly_connected_components
from repro.sdf.repetition import repetition_vector
from repro.throughput.kernel import DEFAULT_MAX_STATES, ExecutionResult, Kernel
from repro.throughput.state_space import ThroughputResult, scc_throughput

#: the SDF result type, under its former CSDF name
CSDFThroughputResult = ThroughputResult


def csdf_throughput(
    graph: CSDFGraph,
    auto_concurrency: bool = True,
    max_states: int = DEFAULT_MAX_STATES,
) -> ThroughputResult:
    """Self-timed throughput of a CSDF graph (SCC-wise, exact)."""
    gamma = repetition_vector(graph)

    def execute(component: Sequence[str], _: object) -> ExecutionResult:
        members = set(component)
        kernel = Kernel(
            graph.name,
            {a.name: a.execution_times for a in graph.actors if a.name in members},
            [
                (c.src, c.dst, c.productions, c.consumptions, c.tokens)
                for c in graph.channels
                if c.src in members and c.dst in members
            ],
            serial=not auto_concurrency,
        )
        return kernel.run(kernel.initial(), max_states)

    return scc_throughput(
        graph,
        strongly_connected_components(graph),
        gamma,
        # one iteration runs gamma(a) / phase_count(a) full phase cycles
        lambda a: sum(graph.actor(a).execution_times)
        * gamma[a]
        // graph.actor(a).phase_count,
        execute,
        auto_concurrency,
    )
