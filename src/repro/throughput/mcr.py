"""Maximum cycle ratio analysis on HSDFGs (the classical baseline).

For a homogeneous SDFG, the self-timed iteration period equals the
maximum, over all cycles, of (total execution time on the cycle) /
(total initial tokens on the cycle); the iteration rate is its
reciprocal.  Pre-existing allocation flows must convert the SDFG to its
(possibly exponentially larger) HSDFG and run such an analysis; the
paper's §1 run-time comparison is against exactly this path.

Two implementations are provided:

* :func:`max_cycle_ratio_exact` — enumerate simple cycles (exact
  Fractions).  Only viable for small graphs; used as a test oracle.
* :func:`max_cycle_ratio_numeric` — Lawler's parametric binary search
  with a numpy-vectorised Bellman-Ford positive-cycle test, then an
  exact rational snap via bounded-denominator approximation.  Scales to
  the 4754-actor H.263 HSDFG.  numpy is imported inside this search and
  its two helpers only, so importing the package never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.obs import get_metrics
from repro.resilience.budget import Budget
from repro.sdf.cycles import CYCLE_LIMIT
from repro.sdf.cycles import max_cycle_ratio as _enumerated_max_cycle_ratio
from repro.sdf.graph import SDFGraph

if TYPE_CHECKING:
    import numpy as np

Ratio = Union[Fraction, float]


def max_cycle_ratio_exact(hsdf: SDFGraph, limit: Optional[int] = None) -> Optional[Ratio]:
    """Exact maximum cycle ratio via cycle enumeration (small graphs only).

    Cycle weight is the execution time of the actors on the cycle;
    the denominator is the tokens on its edges.  ``None`` for acyclic
    graphs; ``float('inf')`` when a token-free cycle exists (deadlock).
    """
    obs = get_metrics()
    started = perf_counter() if obs.enabled else 0.0
    weights = {a.name: a.execution_time for a in hsdf.actors}
    ratio = _enumerated_max_cycle_ratio(hsdf, weights, limit=limit)
    if obs.enabled:
        obs.counter("mcr.enumerate.calls")
        obs.histogram("mcr.enumerate_seconds", perf_counter() - started)
    return ratio


def _edge_arrays(hsdf: SDFGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    import numpy as np

    index = {name: i for i, name in enumerate(hsdf.actor_names)}
    sources = np.fromiter(
        (index[c.src] for c in hsdf.channels), dtype=np.int64
    )
    targets = np.fromiter(
        (index[c.dst] for c in hsdf.channels), dtype=np.int64
    )
    times = np.fromiter(
        (hsdf.actor(c.src).execution_time for c in hsdf.channels),
        dtype=np.float64,
    )
    tokens = np.fromiter((c.tokens for c in hsdf.channels), dtype=np.float64)
    return sources, targets, times, tokens, len(index)


def _has_positive_cycle(
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    node_count: int,
) -> bool:
    """Bellman-Ford style test: does any cycle have positive total weight?

    Longest-path distances are relaxed ``node_count`` times; any further
    improvement implies a positive cycle.  Distances are clipped to
    avoid float overflow on long graphs.
    """
    import numpy as np

    if node_count == 0 or sources.size == 0:
        return False
    dist = np.zeros(node_count)
    for _ in range(node_count):
        candidate = dist[sources] + weights
        new_dist = dist.copy()
        np.maximum.at(new_dist, targets, candidate)
        if np.array_equal(new_dist, dist):
            return False  # fixpoint: no positive cycle reachable
        dist = np.minimum(new_dist, 1e15)
    candidate = dist[sources] + weights
    final = dist.copy()
    np.maximum.at(final, targets, candidate)
    return bool(np.any(final > dist + 1e-9))


def max_cycle_ratio_numeric(
    hsdf: SDFGraph,
    tolerance: float = 1e-9,
    budget: Optional[Budget] = None,
) -> Optional[Ratio]:
    """Maximum cycle ratio via parametric binary search (large graphs).

    For a candidate ratio ``lam`` the graph with edge weights
    ``tau(src) - lam * tokens(edge)`` has a positive cycle iff the true
    maximum ratio exceeds ``lam``.  The search narrows a float interval
    and the result is snapped to the unique rational with denominator
    bounded by the total token count.  Returns ``None`` when the graph
    is acyclic, ``float('inf')`` when a token-free cycle exists.
    """
    import numpy as np

    obs = get_metrics()
    started = perf_counter() if obs.enabled else 0.0
    sources, targets, times, tokens, node_count = _edge_arrays(hsdf)
    if sources.size == 0:
        return None

    # Token-free positive-time cycle => infinite ratio (deadlock).
    zero_token = tokens == 0
    if zero_token.any():
        if _has_positive_cycle(
            sources[zero_token],
            targets[zero_token],
            # weight 1 per edge: any cycle among token-free edges counts
            np.ones(int(zero_token.sum())),
            node_count,
        ):
            return float("inf")

    # Cycle existence at all: lam = 0 weights are execution times >= 0;
    # use weight 1 to detect any cycle.
    if not _has_positive_cycle(
        sources, targets, np.ones(sources.size), node_count
    ):
        return None

    total_time = float(times.sum())
    low, high = 0.0, max(total_time, 1.0)
    iterations = 0
    while high - low > tolerance:
        if budget is not None:
            budget.checkpoint()
        iterations += 1
        mid = (low + high) / 2.0
        if _has_positive_cycle(
            sources, targets, times - mid * tokens, node_count
        ):
            low = mid
        else:
            high = mid
    total_tokens = int(tokens.sum())
    midpoint = Fraction((low + high) / 2.0)
    if obs.enabled:
        obs.counter("mcr.lawler.calls")
        obs.counter("mcr.lawler.iterations", iterations)
        obs.histogram("mcr.lawler_seconds", perf_counter() - started)
    return midpoint.limit_denominator(max(total_tokens, 1))


def hsdf_iteration_rate(
    hsdf: SDFGraph,
    exact: bool = True,
    limit: Optional[int] = CYCLE_LIMIT,
    method: Optional[str] = None,
    budget: Optional[Budget] = None,
) -> Ratio:
    """Self-timed iteration rate of an HSDFG (reciprocal of its MCR).

    ``float('inf')`` for acyclic graphs, 0 when a token-free cycle makes
    the graph deadlock.  ``method`` selects the MCR algorithm explicitly
    (``"enumerate"``, ``"numeric"`` or ``"howard"``); by default
    ``exact`` picks between enumeration and the numeric search.
    A :class:`Budget` deadline is honoured by the numeric and Howard
    oracles (the enumeration oracle is bounded by ``limit`` instead).
    """
    if method is None:
        method = "enumerate" if exact else "numeric"
    if method == "enumerate":
        ratio = max_cycle_ratio_exact(hsdf, limit=limit)
    elif method == "numeric":
        ratio = max_cycle_ratio_numeric(hsdf, budget=budget)
    elif method == "howard":
        from repro.throughput.howard import howard_max_cycle_ratio

        ratio = howard_max_cycle_ratio(hsdf, budget=budget)
    else:
        raise ValueError(f"unknown MCR method {method!r}")
    if ratio is None:
        return float("inf")
    if ratio == float("inf"):
        return Fraction(0)
    if ratio == 0:
        return float("inf")
    return 1 / ratio
