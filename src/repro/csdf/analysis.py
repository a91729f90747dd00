"""CSDF consistency and liveness.

The CSDF balance equations work on full phase cycles: with ``gamma(a)``
counting complete phase cycles of ``a``, every channel needs
``total_production * gamma(src) = total_consumption * gamma(dst)``.
The firing-level repetition vector is ``gamma(a) * phase_count(a)``.
Liveness is decided, as for SDF, by abstractly executing one complete
iteration phase-accurately.

Both are the SDF solver and iteration of :mod:`repro.sdf.repetition`
and :mod:`repro.sdf.analysis`, which read every graph as CSDF (an SDF
actor is the one-phase case); the CSDF names below are bound to them.
"""

from __future__ import annotations

from typing import Dict

from repro.csdf.graph import CSDFGraph
from repro.sdf.analysis import is_deadlock_free
from repro.sdf.repetition import (
    InconsistentGraphError,
    is_consistent,
    repetition_vector,
)

InconsistentCSDFError = InconsistentGraphError
is_csdf_consistent = is_consistent
is_csdf_deadlock_free = is_deadlock_free


def csdf_repetition_vector(
    graph: CSDFGraph, firings: bool = True
) -> Dict[str, int]:
    """The smallest repetition vector of ``graph``.

    ``firings=True`` (default) returns firing counts per iteration
    (phase cycles times phase count); ``firings=False`` returns the
    phase-cycle counts the balance equations are solved in.
    """
    gamma = repetition_vector(graph)
    if firings:
        return gamma
    return {
        name: count // graph.actor(name).phase_count
        for name, count in gamma.items()
    }
