"""Reference throughput path: SDF -> HSDF -> maximum cycle ratio.

This is what pre-existing resource-allocation flows must do and what the
paper's run-time comparison (Section 1: 21 minutes vs 3 minutes on the
H.263 decoder) is measured against.  It also serves as an independent
oracle for the state-space engine in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Union

from repro.sdf.cycles import CYCLE_LIMIT
from repro.sdf.graph import SDFGraph
from repro.sdf.transform import sdf_to_hsdf
from repro.throughput.mcr import hsdf_iteration_rate

Rate = Union[Fraction, float]


def reference_throughput(
    graph: SDFGraph,
    execution_times: Optional[Dict[str, int]] = None,
    exact: bool = True,
    limit: Optional[int] = CYCLE_LIMIT,
) -> Rate:
    """Iteration rate of ``graph`` computed the classical way.

    The graph is unfolded into its HSDFG (one actor per firing of an
    iteration) and the maximum cycle ratio of the result is inverted.
    ``exact=False`` selects the numpy-backed parametric search, needed
    for graphs whose HSDFG has thousands of actors.

    The result is directly comparable to
    ``repro.throughput.throughput(graph).iteration_rate`` for graphs
    with unrestricted auto-concurrency.
    """
    working = graph
    if execution_times is not None:
        working = graph.copy()
        for name, value in execution_times.items():
            working.actor(name).execution_time = value
    hsdf = sdf_to_hsdf(working)
    return hsdf_iteration_rate(hsdf, exact=exact, limit=limit)
