"""SDF to homogeneous SDF (HSDF) conversion.

The classical unfolding (Sriram & Bhattacharyya): every actor ``a`` is
replaced by ``gamma(a)`` copies, one per firing in an iteration, and every
channel is expanded into single-rate edges between the producing and
consuming firings, with initial tokens counting iteration shifts.

The paper's central argument is that this conversion can blow up
exponentially (H.263: 4 actors -> 4754), which is why its strategy works
on the SDFG directly.  We implement the conversion both as the baseline
the paper compares against and to validate the state-space throughput
engine against max-cycle-mean analysis on small graphs.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import iteration_length, repetition_vector


def hsdf_actor_name(actor: str, copy: int) -> str:
    """Name of the HSDF copy for firing ``copy`` of ``actor``."""
    return f"{actor}#{copy}"


#: the number of actors of the HSDFG equivalent to a graph, computed
#: without the conversion: the sum of its repetition vector
hsdf_size = iteration_length


def sdf_to_hsdf(graph: SDFGraph, name: Optional[str] = None) -> SDFGraph:
    """The homogeneous SDFG equivalent to ``graph``.

    Every edge of the result has production and consumption rate 1; the
    initial tokens on an edge encode by how many iterations the producing
    firing precedes the consuming one.  Parallel edges implied by several
    consumed tokens of the same dependency are de-duplicated (keeping the
    smallest delay, which is the binding constraint).
    """
    gamma = repetition_vector(graph)
    hsdf = SDFGraph(name or f"{graph.name}-hsdf")
    for actor in graph.actors:
        for copy in range(gamma[actor.name]):
            hsdf.add_actor(hsdf_actor_name(actor.name, copy), actor.execution_time)

    edge_count = 0
    for channel in graph.channels:
        produced = channel.production
        consumed = channel.consumption
        delta = channel.tokens
        copies_src = gamma[channel.src]
        copies_dst = gamma[channel.dst]
        # (consumer copy -> (producer copy, delay)) with minimal delay kept
        edges: Dict[Tuple[int, int], int] = {}
        for k in range(copies_dst):
            for j in range(consumed):
                token_index = k * consumed + j - delta
                # Python floor division gives the right producer index for
                # negative token indices (tokens produced in a previous,
                # possibly virtual, iteration).
                producer_global = token_index // produced
                producer_copy = producer_global % copies_src
                delay = -(producer_global // copies_src)
                key = (k, producer_copy)
                if key not in edges or delay < edges[key]:
                    edges[key] = delay
        for (k, producer_copy), delay in sorted(edges.items()):
            hsdf.add_channel(
                f"{channel.name}@{edge_count}",
                hsdf_actor_name(channel.src, producer_copy),
                hsdf_actor_name(channel.dst, k),
                1,
                1,
                delay,
            )
            edge_count += 1
    return hsdf


def precedence_edges(graph: SDFGraph) -> Set[Tuple[str, str]]:
    """Distinct (src, dst) pairs of the HSDFG of ``graph`` (no conversion).

    Useful to size the HSDFG edge set without materialising the graph.
    """
    gamma = repetition_vector(graph)
    pairs: Set[Tuple[str, str]] = set()
    for channel in graph.channels:
        for k in range(gamma[channel.dst]):
            for j in range(channel.consumption):
                token_index = k * channel.consumption + j - channel.tokens
                producer_global = token_index // channel.production
                producer_copy = producer_global % gamma[channel.src]
                pairs.add(
                    (
                        hsdf_actor_name(channel.src, producer_copy),
                        hsdf_actor_name(channel.dst, k),
                    )
                )
    return pairs
