"""Cyclo-Static Dataflow (CSDF) support.

The paper's related work compares against Bilsen et al.'s cyclo-static
dataflow mapping ([6]); CSDF is also a first-class model of the SDF3
tool family this paper seeded.  A CSDF actor cycles through a fixed
sequence of *phases*; each phase has its own execution time and its own
production/consumption rates, which lets finer-grained pipelining be
expressed than SDF (an SDF actor is the special case of one phase).

Provided here:

* the CSDF graph model (:mod:`repro.csdf.graph`),
* phase-aware repetition vectors and liveness
  (:mod:`repro.csdf.analysis`), which are the SDF solver and abstract
  iteration of :mod:`repro.sdf` reading a CSDF graph directly,
* exact self-timed state-space throughput with per-firing phases:
  ``csdf_throughput`` is one call to the one front end,
  :func:`repro.throughput.state_space.throughput`, so CSDF runs take
  budgets, checkpoint and resume, and emit metrics, traces and
  certificates that :mod:`repro.verify` replays,
* lossless conversions between single-phase CSDF and SDF
  (:mod:`repro.csdf.convert`).
"""

from repro.csdf.graph import CSDFActor, CSDFChannel, CSDFGraph
from repro.csdf.analysis import (
    csdf_repetition_vector,
    is_csdf_consistent,
    is_csdf_deadlock_free,
)
from repro.csdf.throughput import csdf_throughput, CSDFThroughputResult
from repro.csdf.convert import (
    aggregate_csdf_to_sdf,
    csdf_to_sdf,
    sdf_to_csdf,
)
from repro.csdf.random_csdf import random_csdf, split_phases
from repro.csdf.serialization import (
    csdf_to_dict,
    csdf_from_dict,
    csdf_to_json,
    csdf_from_json,
)

__all__ = [
    "CSDFActor",
    "CSDFChannel",
    "CSDFGraph",
    "csdf_repetition_vector",
    "is_csdf_consistent",
    "is_csdf_deadlock_free",
    "csdf_throughput",
    "CSDFThroughputResult",
    "csdf_to_sdf",
    "sdf_to_csdf",
    "aggregate_csdf_to_sdf",
    "random_csdf",
    "split_phases",
    "csdf_to_dict",
    "csdf_from_dict",
    "csdf_to_json",
    "csdf_from_json",
]
