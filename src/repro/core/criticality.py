"""Actor criticality estimation (paper Eqn. 1).

The throughput of an SDFG is limited by its critical cycle, but finding
it exactly requires the (potentially exponential) HSDFG.  The binding
step therefore estimates criticality directly on the SDFG: for every
actor, the maximum over simple cycles through it of

    sum_{b in cycle} gamma(b) * max_pt tau(b, pt)
    -----------------------------------------------
    sum_{d=(u,v,p,q) in cycle} Tok(d) / q

Actors on no cycle still carry work; the paper leaves their cost
undefined, so we fall back to the cycle-free workload ``gamma(a) *
tau_max(a)`` (always smaller than any cycle containing the actor would
give, since a cycle adds the other actors' work).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Union

from repro.appmodel.application import ApplicationGraph
from repro.sdf.cycles import CYCLE_LIMIT, per_actor_max_cycle_ratio

Criticality = Union[Fraction, float]


def actor_criticality(
    application: ApplicationGraph,
) -> Dict[str, Criticality]:
    """Eqn. 1 cost for every actor of ``application``.

    ``float('inf')`` marks actors on a token-free cycle (a modelling
    error that would deadlock; they bind first so the failure surfaces
    early).  At most :data:`CYCLE_LIMIT` cycles are enumerated.
    """
    gamma = application.gamma
    weights = {
        name: gamma[name]
        * application.requirements(name).worst_case_execution_time
        for name in application.graph.actor_names
    }
    on_cycles = per_actor_max_cycle_ratio(
        application.graph, weights, limit=CYCLE_LIMIT
    )
    result: Dict[str, Criticality] = {}
    for name in application.graph.actor_names:
        result[name] = on_cycles.get(name, Fraction(weights[name]))
    return result


def binding_order(application: ApplicationGraph) -> List[str]:
    """Actors sorted by decreasing criticality (stable: ties keep graph order)."""
    cost = actor_criticality(application)
    names = application.graph.actor_names
    return sorted(names, key=lambda a: (-cost[a], names.index(a)))
