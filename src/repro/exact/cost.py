"""The objective of the exact backend, in exact rational arithmetic.

The greedy strategy uses Eqn. 2 (``c1*l_p + c2*l_m + c3*l_c``) only to
*rank* candidate tiles, so ``float`` precision is fine there.  The
branch-and-bound search instead *compares* complete allocations and
prunes subtrees against an incumbent, where float rounding could flip a
comparison and silently discard the optimum — so everything here is a
:class:`fractions.Fraction`.

The objective is::

    cost(B, S) = sum_{t in used(B)} (c1*l_p(t) + c2*l_m(t) + c3*l_c(t))
               + sum_{t in used(B)} omega_t / wheel_t

i.e. the Eqn. 2 load of every used tile plus the fraction of each TDMA
wheel the allocation occupies.  The slice term makes the objective
strictly monotone in the slice widths, so "cheapest feasible
allocation" coincides with the paper's goal of reserving as little of
the platform as possible for the application.

Both terms are monotone non-decreasing when a *partial* binding is
extended (every load numerator only grows with more bound actors and
channels, denominators are fixed by the architecture state), which is
what makes :func:`binding_load_cost` of a partial binding an admissible
lower bound for the search — provided all weights are non-negative,
which :func:`repro.exact.search.exact_search` enforces.  The search
reads the same sum from its :class:`~repro.core.tile_cost.TileLedger`
with :func:`load_cost`, once per node, and hands it to the leaf.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from repro.appmodel.application import ApplicationGraph
from repro.appmodel.binding import Binding
from repro.arch.architecture import ArchitectureGraph
from repro.core.tile_cost import CostWeights, TileLedger


def weight_fractions(
    weights: CostWeights,
) -> Tuple[Fraction, Fraction, Fraction]:
    """``(c1, c2, c3)`` as exact fractions.

    ``Fraction(float)`` is exact (binary expansion), so ranking by this
    rational cost agrees with the float Eqn. 2 wherever the float
    arithmetic did not round.
    """
    return (
        Fraction(weights.processing),
        Fraction(weights.memory),
        Fraction(weights.communication),
    )


def load_cost(
    ledger: TileLedger, weights: Tuple[Fraction, Fraction, Fraction]
) -> Fraction:
    """Eqn. 2 summed over the used tiles of the ledger's binding.

    ``weights`` are :func:`weight_fractions`, converted once per
    search.  Each load kind is summed over the tiles as one integer
    ratio and reduced once.
    """
    sums = [(0, 1)] * 3
    for tile_name, usage in ledger.usage.items():
        terms = usage.load_terms(
            ledger.architecture.tile(tile_name), ledger.total_work
        )
        sums = [
            (n * term_d + term_n * d, d * term_d)
            for (n, d), (term_n, term_d) in zip(sums, terms)
        ]
    return sum(
        (c * Fraction(n, d) for c, (n, d) in zip(weights, sums)), Fraction(0)
    )


def binding_load_cost(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    binding: Binding,
    weights: CostWeights,
) -> Fraction:
    """Eqn. 2 summed over the used tiles of a (possibly partial) binding."""
    return load_cost(
        TileLedger(application, architecture, binding),
        weight_fractions(weights),
    )


def slice_cost(
    architecture: ArchitectureGraph, slices: Dict[str, int]
) -> Fraction:
    """The occupied TDMA share: ``sum_t omega_t / wheel_t``."""
    total = Fraction(0)
    for tile_name, width in slices.items():
        total += Fraction(width, architecture.tile(tile_name).wheel)
    return total


def allocation_cost(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    binding: Binding,
    slices: Dict[str, int],
    weights: CostWeights,
) -> Fraction:
    """The full objective of one complete allocation.

    The differential harness evaluates this on both the greedy and the
    exact backend's output (same weights, same architecture state) to
    quantify the heuristic's optimality gap.
    """
    return binding_load_cost(
        application, architecture, binding, weights
    ) + slice_cost(architecture, slices)
