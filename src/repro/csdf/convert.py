"""Conversions between SDF and CSDF.

SDF is the one-phase special case of CSDF, so lifting is lossless in
both directions when every actor has a single phase.  (General
multi-phase CSDF cannot be expressed as an SDF graph of the same
actors; analyses work on the CSDF directly, e.g.
:func:`repro.throughput.state_space.throughput`.)
"""

from __future__ import annotations

from repro.csdf.graph import CSDFGraph
from repro.sdf.graph import SDFGraph


def sdf_to_csdf(graph: SDFGraph) -> CSDFGraph:
    """Lift an SDF graph, read as one-phase CSDF, to a CSDF graph (lossless)."""
    csdf = CSDFGraph(graph.name)
    for actor in graph.actors:
        csdf.add_actor(actor.name, actor.execution_times)
    for c in graph.channels:
        csdf.add_channel(c.name, c.src, c.dst, c.productions, c.consumptions, c.tokens)
    return csdf


def aggregate_csdf_to_sdf(graph: CSDFGraph) -> SDFGraph:
    """Conservative SDF abstraction of a CSDF graph.

    Each actor's full phase cycle collapses into one SDF firing: the
    execution time is the cycle's total, each channel's rates are the
    cycle totals.  The abstraction consumes everything at the cycle
    start and produces everything at its end, i.e. strictly no earlier
    than the phased original, so its self-timed throughput is a *lower
    bound* on the CSDF throughput (property-tested in the suite).  It
    can therefore be fed to the SDF-only allocation strategy to obtain
    valid (if pessimistic) guarantees for CSDF applications.
    """
    sdf = SDFGraph(f"{graph.name}-aggregated")
    for actor in graph.actors:
        sdf.add_actor(actor.name, sum(actor.execution_times))
    for c in graph.channels:
        sdf.add_channel(
            c.name, c.src, c.dst, c.total_production, c.total_consumption, c.tokens
        )
    return sdf


def csdf_to_sdf(graph: CSDFGraph) -> SDFGraph:
    """Lower a single-phase CSDF graph back to SDF: with one phase per
    actor, :func:`aggregate_csdf_to_sdf` is exact.

    Raises ``ValueError`` when any actor has more than one phase: the
    phase structure cannot be represented in SDF.
    """
    for actor in graph.actors:
        if actor.phase_count != 1:
            raise ValueError(
                f"actor {actor.name!r} has {actor.phase_count} phases; "
                "multi-phase CSDF has no SDF equivalent — analyse it "
                "directly with repro.throughput.state_space.throughput"
            )
    sdf = aggregate_csdf_to_sdf(graph)
    sdf.name = graph.name
    return sdf
