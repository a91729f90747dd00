"""Throughput analysis engines.

Every state-space engine runs on one phase-aware execution kernel,
:mod:`repro.throughput.kernel` (an SDF actor is its one-phase case).
Its front ends, plus the classical alternative:

* :mod:`repro.throughput.state_space` — self-timed state-space
  exploration directly on the SDFG (the paper's ref [10], Ghamarian et
  al. ACSD'06), for SDF and CSDF graphs alike.  This is the engine
  the resource-allocation strategy builds on.
* :mod:`repro.throughput.constrained` — the paper's Section 8.2: the
  same exploration, but constrained by per-tile static-order schedules
  and TDMA time wheels (neither is modelled in the graph itself); the
  §9.2 list scheduler (:mod:`repro.core.scheduling`) swaps static order
  for ready lists.
* :mod:`repro.throughput.mcr` — classical maximum-cycle-ratio analysis
  on the HSDFG, i.e. what pre-existing flows have to do after the
  exponential SDF->HSDF conversion; kept as the comparison baseline and
  as an oracle for testing the state-space engine.
"""

from repro.throughput.state_space import (
    ExecutionResult,
    SelfTimedExecution,
    ThroughputResult,
    throughput,
)
from repro.throughput.constrained import (
    ConstrainedThroughputResult,
    TileConstraints,
    constrained_throughput,
)
from repro.throughput.mcr import (
    max_cycle_ratio_exact,
    max_cycle_ratio_numeric,
    hsdf_iteration_rate,
)
from repro.throughput.howard import howard_max_cycle_ratio
from repro.throughput.reference import reference_throughput

__all__ = [
    "ExecutionResult",
    "SelfTimedExecution",
    "ThroughputResult",
    "throughput",
    "ConstrainedThroughputResult",
    "TileConstraints",
    "constrained_throughput",
    "max_cycle_ratio_exact",
    "max_cycle_ratio_numeric",
    "howard_max_cycle_ratio",
    "hsdf_iteration_rate",
    "reference_throughput",
]
