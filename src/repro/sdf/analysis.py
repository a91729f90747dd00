"""Structural analyses: deadlock-freedom and strong connectivity.

Deadlock-freedom is decided by abstractly executing one full iteration of
the graph (time-free): repeatedly fire any actor that still owes firings
this iteration and has enough tokens.  A consistent SDFG is deadlock-free
iff one complete iteration can be executed this way (Lee & Messerschmitt).

Strongly connected components drive both the state-space throughput
engine (throughput of a graph = min over SCCs) and cycle-based
criticality estimates.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Set

from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector


class Digraph(Protocol):
    """What Tarjan's algorithm reads: an SDF or a CSDF graph."""

    @property
    def actor_names(self) -> List[str]: ...

    def successors(self, actor: str) -> List[str]: ...


def strongly_connected_components(graph: Digraph) -> List[List[str]]:
    """Tarjan's algorithm (iterative); components in reverse topological order.

    Each component is a list of actor names in discovery order.
    """
    index_counter = 0
    indices: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []

    for root in graph.actor_names:
        if root in indices:
            continue
        work = [(root, iter(graph.successors(root)))]
        indices[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in indices:
                    indices[succ] = lowlink[succ] = index_counter
                    index_counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], indices[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def is_strongly_connected(graph: SDFGraph) -> bool:
    """True when the graph forms a single strongly connected component."""
    if len(graph) == 0:
        return True
    return len(strongly_connected_components(graph)) == 1


def is_deadlock_free(graph: SDFGraph) -> bool:
    """True when one complete iteration can execute from the initial tokens.

    The graph must be consistent; inconsistent graphs raise
    :class:`repro.sdf.repetition.InconsistentGraphError`.
    """
    gamma = repetition_vector(graph)
    remaining = dict(gamma)
    tokens = {c.name: c.tokens for c in graph.channels}
    pending = [a for a in graph.actor_names if remaining[a] > 0]

    def enabled(actor: str) -> bool:
        return all(
            tokens[c.name] >= c.consumption for c in graph.in_channels(actor)
        )

    progressed = True
    while progressed:
        progressed = False
        still_pending: List[str] = []
        for actor in pending:
            fired = 0
            while remaining[actor] > 0 and enabled(actor):
                for channel in graph.in_channels(actor):
                    tokens[channel.name] -= channel.consumption
                for channel in graph.out_channels(actor):
                    tokens[channel.name] += channel.production
                remaining[actor] -= 1
                fired += 1
            if fired:
                progressed = True
            if remaining[actor] > 0:
                still_pending.append(actor)
        pending = still_pending
    return not pending


def undirected_components(graph: SDFGraph) -> List[List[str]]:
    """Weakly connected components (actor names, discovery order)."""
    seen: Set[str] = set()
    components: List[List[str]] = []
    for root in graph.actor_names:
        if root in seen:
            continue
        component: List[str] = []
        stack = [root]
        seen.add(root)
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbour in graph.successors(node) + graph.predecessors(node):
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        components.append(component)
    return components


def is_connected(graph: SDFGraph) -> bool:
    """True when the graph is weakly connected (or empty)."""
    return len(graph) == 0 or len(undirected_components(graph)) == 1


def actors_on_cycles(graph: SDFGraph) -> Set[str]:
    """Actors that lie on at least one directed cycle (incl. self-loops)."""
    result: Set[str] = set()
    for component in strongly_connected_components(graph):
        if len(component) > 1:
            result.update(component)
    for channel in graph.channels:
        if channel.is_self_loop:
            result.add(channel.src)
    return result
