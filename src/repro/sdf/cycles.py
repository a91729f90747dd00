"""Cycle enumeration and cycle-ratio utilities.

The binding step of the strategy estimates actor criticality (paper
Eqn. 1) as the maximum, over simple cycles through the actor, of

    sum_b gamma(b) * tau_max(b)  /  sum_d Tok(d) / q_d .

This module provides simple-cycle enumeration on :class:`SDFGraph`
(Johnson's elementary-circuit algorithm, SIAM J. Comput. 4(1), 1975,
over integer actor indices) plus exact Fraction-based ratio
computation.  When several channels connect the same actor pair on a
cycle, the channel minimising ``Tok/q`` is the binding constraint and
is the one counted.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Dict, Iterator, List, Optional, Set, Union

from repro.obs import get_metrics
from repro.sdf.analysis import strongly_connected_components
from repro.sdf.graph import SDFGraph

Ratio = Union[Fraction, float]

#: cap on the simple cycles one enumeration yields (dense graphs); the
#: default ``limit`` of every cycle-ratio analysis built on this module
CYCLE_LIMIT = 20000


def _reach(start: int, adjacency: List[List[int]]) -> Set[int]:
    """``start`` and the vertices above it that ``adjacency`` reaches
    from it through vertices above it."""
    seen = {start}
    stack = [start]
    while stack:
        for vertex in adjacency[stack.pop()]:
            if vertex > start and vertex not in seen:
                seen.add(vertex)
                stack.append(vertex)
    return seen


def _circuits_through(
    start: int, adjacency: Dict[int, List[int]]
) -> Iterator[List[int]]:
    """Johnson's CIRCUIT(s), iteratively: the elementary circuits through
    ``start`` in ``adjacency``, the successor lists of its strong
    component among the vertices from ``start`` up."""
    path = [start]
    blocked = {start}
    held: Dict[int, Set[int]] = {}  # Johnson's B lists
    stack = [iter(adjacency[start])]
    closed = [False]  # per path vertex: a circuit was found through it
    while stack:
        for target in stack[-1]:
            if target == start:
                yield path[:]
                closed[-1] = True
            elif target not in blocked:
                path.append(target)
                blocked.add(target)
                stack.append(iter(adjacency[target]))
                closed.append(False)
                break
        else:
            stack.pop()
            vertex = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                unblock = [vertex]
                while unblock:
                    vertex = unblock.pop()
                    if vertex in blocked:
                        blocked.discard(vertex)
                        unblock.extend(held.pop(vertex, ()))
            else:
                for target in adjacency[vertex]:
                    held.setdefault(target, set()).add(vertex)


def _circuits(successors: List[List[int]]) -> Iterator[List[int]]:
    """Elementary circuits of a digraph on vertices ``0..n-1`` with
    distinct successors and no self-loop, lazily: for each start vertex
    in turn, the circuits whose least vertex it is."""
    predecessors: List[List[int]] = [[] for _ in successors]
    for vertex, targets in enumerate(successors):
        for target in targets:
            predecessors[target].append(vertex)
    for start in range(len(successors)):
        members = _reach(start, successors) & _reach(start, predecessors)
        if len(members) > 1:
            yield from _circuits_through(
                start,
                {
                    vertex: [t for t in successors[vertex] if t in members]
                    for vertex in members
                },
            )


def _enumerate(graph: SDFGraph) -> Iterator[List[str]]:
    """Self-loops as one-actor cycles, then every strong component's
    elementary circuits; parallel channels count once."""
    for name in graph.actor_names:
        if name in graph.successors(name):
            yield [name]
    for component in strongly_connected_components(graph):
        if len(component) < 2:
            continue
        index = {name: i for i, name in enumerate(component)}
        successors = [
            [index[target] for target in graph.successors(name)
             if target in index and target != name]
            for name in component
        ]
        for circuit in _circuits(successors):
            yield [component[i] for i in circuit]


def simple_cycles(
    graph: SDFGraph, limit: Optional[int] = None
) -> List[List[str]]:
    """Simple cycles of ``graph`` as actor-name lists (self-loops included).

    ``limit`` caps the number of enumerated cycles (Johnson's algorithm
    is output-sensitive but the number of cycles can be exponential; the
    criticality estimate degrades gracefully under a cap).  Cycles are
    produced lazily, so a cap also stops the search.
    """
    return list(islice(_enumerate(graph), limit))


def _min_hop_denominator(graph: SDFGraph, src: str, dst: str) -> Fraction:
    """Smallest ``Tok/q`` over channels from ``src`` to ``dst``."""
    candidates = graph.channels_between(src, dst)
    if not candidates:
        raise KeyError(f"no channel from {src!r} to {dst!r}")
    return min(Fraction(c.tokens, c.consumption) for c in candidates)


def cycle_ratio(
    graph: SDFGraph,
    cycle: List[str],
    weights: Dict[str, Union[int, Fraction]],
) -> Ratio:
    """The ratio of ``cycle``: actor weights over normalised tokens.

    ``weights[a]`` is the numerator contribution of actor ``a`` (for
    Eqn. 1 that is ``gamma(a) * tau_max(a)``).  Returns ``float('inf')``
    when the cycle carries no tokens (such a cycle deadlocks; callers
    treat it as maximally critical).
    """
    numerator = sum(Fraction(weights[a]) for a in cycle)
    denominator = Fraction(0)
    hops = list(zip(cycle, cycle[1:] + cycle[:1]))
    for src, dst in hops:
        denominator += _min_hop_denominator(graph, src, dst)
    if denominator == 0:
        return float("inf")
    return numerator / denominator


def per_actor_max_cycle_ratio(
    graph: SDFGraph,
    weights: Dict[str, Union[int, Fraction]],
    limit: Optional[int] = CYCLE_LIMIT,
) -> Dict[str, Ratio]:
    """For every actor, the max ratio over simple cycles through it.

    Actors on no cycle are absent from the result (the caller decides
    their fallback criticality).
    """
    best: Dict[str, Ratio] = {}
    for cycle in simple_cycles(graph, limit=limit):
        ratio = cycle_ratio(graph, cycle, weights)
        for actor in cycle:
            current = best.get(actor)
            if current is None or ratio > current:
                best[actor] = ratio
    return best


def max_cycle_ratio(
    graph: SDFGraph,
    weights: Optional[Dict[str, Union[int, Fraction]]] = None,
    limit: Optional[int] = CYCLE_LIMIT,
) -> Optional[Ratio]:
    """Maximum cycle ratio over all simple cycles (None when acyclic).

    With default weights (actor execution times) on an HSDFG this is the
    maximum cycle mean, whose reciprocal is the graph's throughput.
    """
    if weights is None:
        weights = {a.name: a.execution_time for a in graph.actors}
    best: Optional[Ratio] = None
    count = 0
    for cycle in simple_cycles(graph, limit=limit):
        count += 1
        ratio = cycle_ratio(graph, cycle, weights)
        if best is None or ratio > best:
            best = ratio
    obs = get_metrics()
    if obs.enabled:
        obs.counter("cycles.enumerated", count)
        if limit is not None and count == limit:
            obs.counter("cycles.limit_hits")
    return best
