"""Self-timed state-space throughput for CSDF graphs: the one front end,
:func:`repro.throughput.state_space.throughput`, under its CSDF name."""

from __future__ import annotations

from repro.csdf.graph import CSDFGraph
from repro.throughput.kernel import DEFAULT_MAX_STATES
from repro.throughput.state_space import ThroughputResult, throughput

#: the SDF result type, under its former CSDF name
CSDFThroughputResult = ThroughputResult


def csdf_throughput(
    graph: CSDFGraph,
    auto_concurrency: bool = True,
    max_states: int = DEFAULT_MAX_STATES,
) -> ThroughputResult:
    """Self-timed throughput of a CSDF graph (SCC-wise, exact)."""
    return throughput(graph, auto_concurrency=auto_concurrency, max_states=max_states)
