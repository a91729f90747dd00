"""Repetition vectors and consistency (paper Definition 2).

A repetition vector ``gamma`` satisfies ``p * gamma(a) = q * gamma(b)``
for every channel ``(a, b, p, q)``.  A consistent SDFG has a non-trivial
(everywhere positive) repetition vector; *the* repetition vector is the
smallest such vector.  Inconsistent graphs either deadlock or need
unbounded memory, so the allocation strategy rejects them up front.

The one solver here reads every graph as CSDF, an SDF actor being the
one-phase case: it balances full phase cycles,
``total_production * c(src) = total_consumption * c(dst)``, and an
actor fires ``c(a) * phase_count(a)`` times per iteration.  SDF and
CSDF graphs, and the lint rules on both, share it.

Rates are propagated as reduced integer pairs ``(numerator,
denominator)``: a channel visit multiplies a pair by the channel's
integer totals and divides out one ``gcd``.  Each rational has one
reduced form, so comparing pairs decides exactly what comparing
:class:`~fractions.Fraction` values would, without building a
``Fraction`` per visit; ``Fraction`` appears only in what
:func:`balance` returns and in the message of
:class:`InconsistentGraphError`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Protocol, Sequence, Tuple


class InconsistentGraphError(ValueError):
    """Raised when a graph admits no non-trivial repetition vector."""


class RatedChannel(Protocol):
    """A channel as the solver and the abstract iteration read it."""

    name: str
    src: str
    dst: str
    tokens: int

    @property
    def productions(self) -> Tuple[int, ...]: ...

    @property
    def consumptions(self) -> Tuple[int, ...]: ...

    @property
    def total_production(self) -> int: ...

    @property
    def total_consumption(self) -> int: ...


class PhasedActor(Protocol):
    """An actor as the solver, the iteration and the kernel read it."""

    name: str

    @property
    def phase_count(self) -> int: ...

    @property
    def execution_times(self) -> Tuple[int, ...]: ...


class Executable(Protocol):
    """What the execution kernel compiles: a graph, or one strongly
    connected component of one, as its actors and channels."""

    name: str

    @property
    def actors(self) -> Sequence[PhasedActor]: ...

    @property
    def channels(self) -> Sequence[RatedChannel]: ...


class Digraph(Protocol):
    """What Tarjan's algorithm reads: an SDF or a CSDF graph."""

    @property
    def actor_names(self) -> List[str]: ...

    def successors(self, actor: str) -> List[str]: ...


class DataflowGraph(Executable, Digraph, Protocol):
    """An SDF or a CSDF graph, as the solver, the iteration and the
    self-timed front end read it."""

    def actor(self, name: str) -> PhasedActor: ...

    def out_channels(self, actor: str) -> Sequence[RatedChannel]: ...

    def in_channels(self, actor: str) -> Sequence[RatedChannel]: ...


#: a rational as a reduced integer pair ``(numerator, denominator)``,
#: the denominator positive, so equal pairs are equal rationals
Rational = Tuple[int, int]

#: a contradicted balance equation: the channel, the actor whose rate it
#: implies, the implied rate and the rate already derived (as pairs in
#: a ``PairConflict``)
Conflict = Tuple[RatedChannel, str, Fraction, Fraction]
PairConflict = Tuple[RatedChannel, str, Rational, Rational]


def _propagate(
    graph: DataflowGraph,
) -> Tuple[Dict[str, Rational], List[PairConflict]]:
    """:func:`balance` with every rate a :data:`Rational` pair."""
    rates: Dict[str, Rational] = {}
    conflicts: List[PairConflict] = []
    for seed in graph.actor_names:
        if seed in rates:
            continue
        rates[seed] = (1, 1)
        stack = [seed]
        clean = True
        while stack:
            actor = stack.pop()
            num, den = rates[actor]
            implied = [
                (c, c.dst, c.total_production, c.total_consumption)
                for c in graph.out_channels(actor)
            ]
            implied += [
                (c, c.src, c.total_consumption, c.total_production)
                for c in graph.in_channels(actor)
            ]
            for channel, other, multiplier, divisor in implied:
                top, bottom = num * multiplier, den * divisor
                common = gcd(top, bottom)
                value = (top // common, bottom // common)
                known = rates.get(other)
                if known is None:
                    rates[other] = value
                    stack.append(other)
                elif known != value and clean:
                    conflicts.append((channel, other, value, known))
                    clean = False
    return rates, conflicts


def balance(graph: DataflowGraph) -> Tuple[Dict[str, Fraction], List[Conflict]]:
    """Phase-cycle rates solving the balance equations of ``graph``.

    Each weakly connected component is traversed from a seed at rate 1
    (seeds in actor order, out-channels before in-channels), and every
    channel to an actor not yet reached fixes that actor's rate.  A
    channel contradicting a rate already derived is a conflict.  The
    first conflict of a component is recorded and the traversal goes on
    to the component's end, so each inconsistent component yields
    exactly one conflict.  No conflict means the graph is consistent.

    The traversal compares reduced integer pairs, which are equal
    exactly when the rationals are; only the rates and conflicts
    returned here are built as :class:`~fractions.Fraction` values.
    """
    rates, conflicts = _propagate(graph)
    return (
        {name: Fraction(*rate) for name, rate in rates.items()},
        [
            (channel, actor, Fraction(*implied), Fraction(*known))
            for channel, actor, implied, known in conflicts
        ],
    )


def repetition_vector(graph: DataflowGraph) -> Dict[str, int]:
    """The smallest non-trivial repetition vector of ``graph``, in firings.

    Raises :class:`InconsistentGraphError` at the first conflict
    :func:`balance` records.  The phase-cycle rates of all components
    are scaled together to the smallest integer vector (one lcm), so
    ``{a->b 1/2, c->d 1/3}`` gives ``{a: 6, b: 3, c: 6, d: 2}``; each
    actor then fires its phase cycles times its phase count.
    """
    rates, conflicts = _propagate(graph)
    if conflicts:
        channel, actor, implied, known = conflicts[0]
        raise InconsistentGraphError(
            f"graph {graph.name!r}: channel {channel.name!r} "
            f"implies gamma({actor}) = {Fraction(*implied)}, but "
            f"{Fraction(*known)} was already derived"
        )
    scale = lcm(*(den for _, den in rates.values()))
    return {
        name: num * (scale // den) * graph.actor(name).phase_count
        for name, (num, den) in rates.items()
    }


def is_consistent(graph: DataflowGraph) -> bool:
    """True when ``graph`` has a non-trivial repetition vector."""
    return not _propagate(graph)[1]


def iteration_length(
    graph: DataflowGraph, gamma: Optional[Dict[str, int]] = None
) -> int:
    """Total number of firings in one graph iteration (sum of gamma).

    This equals the number of actors of the corresponding HSDFG, the
    quantity the paper uses to argue HSDF conversion blows up (e.g. the
    H.263 decoder: 4754).
    """
    if gamma is None:
        gamma = repetition_vector(graph)
    return sum(gamma.values())
