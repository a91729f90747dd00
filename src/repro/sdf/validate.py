"""Structural validation of SDFGs.

The allocation strategy only accepts consistent, deadlock-free graphs
(paper Section 3: anything else needs unbounded memory or never runs).
:func:`validate_graph` collects *all* problems instead of failing on the
first, which makes generator and serialisation bugs much easier to
diagnose.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sdf.analysis import is_connected, stalled_actors
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import InconsistentGraphError, repetition_vector


class ValidationError(ValueError):
    """Raised by :func:`validate_graph` with all detected problems."""

    def __init__(self, problems: List[str]):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


def _check(
    graph: SDFGraph, require_connected: bool, require_deadlock_free: bool
) -> Tuple[List[str], Optional[Dict[str, int]]]:
    """The problems of ``graph`` and its repetition vector (None when it
    has none), from one solve of the balance equations."""
    problems: List[str] = []
    if len(graph) == 0:
        problems.append("graph has no actors")
        return problems, None

    gamma: Optional[Dict[str, int]] = None
    try:
        gamma = repetition_vector(graph)
    except InconsistentGraphError as error:
        problems.append(f"inconsistent: {error}")

    if require_connected and not is_connected(graph):
        problems.append("graph is not (weakly) connected")

    if (
        require_deadlock_free
        and gamma is not None
        and stalled_actors(graph, gamma)
    ):
        problems.append("graph deadlocks (cannot complete one iteration)")

    for channel in graph.channels:
        if channel.is_self_loop and channel.production != channel.consumption:
            problems.append(
                f"self-loop {channel.name!r} has unequal rates "
                f"({channel.production} != {channel.consumption}), "
                "which is inconsistent"
            )
    return problems, gamma


def validation_problems(
    graph: SDFGraph,
    require_connected: bool = True,
    require_deadlock_free: bool = True,
) -> List[str]:
    """All structural problems of ``graph`` (empty list when valid)."""
    return _check(graph, require_connected, require_deadlock_free)[0]


def validate_graph(
    graph: SDFGraph,
    require_connected: bool = True,
    require_deadlock_free: bool = True,
) -> Dict[str, int]:
    """Raise :class:`ValidationError` when ``graph`` is not well formed.

    Returns the repetition vector the checks solved, so a caller that
    needs it does not solve the balance equations a second time.
    """
    problems, gamma = _check(graph, require_connected, require_deadlock_free)
    if problems or gamma is None:
        raise ValidationError(problems)
    return gamma
