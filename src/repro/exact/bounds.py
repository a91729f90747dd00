"""Partial-binding refinements of the static throughput bounds.

:mod:`repro.analysis.bounds` bounds what *any* allocation can deliver
using each actor's fastest supported execution time.  During the
branch-and-bound search part of the binding is already decided, which
sharpens both arguments without losing soundness:

* a bound actor's execution time is its *actual* time on the assigned
  tile's processor type (never faster than ``tau_min``), tightening the
  per-actor serialisation bound and the work term of the utilisation
  bound;
* actors sharing a tile serialise *jointly*: tile ``t`` can devote at
  most ``wheel_remaining(t) / wheel(t)`` of real time to the
  application, and one graph iteration needs
  ``sum_{a on t} gamma(a) * tau(a)`` time on it, giving the per-tile
  utilisation bound
  ``lambda <= gamma(out) * (r_t / w_t) / sum_{a on t} gamma(a)*tau(a)``.

Every completion of the partial binding only *adds* actors to tiles and
only assigns supported (hence ``>= tau_min``) execution times, so each
refined bound is an upper bound on the throughput of every completion —
exactly the property the search needs: a subtree whose bound is below
the constraint contains no feasible leaf and can be discarded.

Taken at a slice probe's own width ``omega_t`` instead of ``r_t``, the
per-tile term is the slice floor of
:class:`repro.core.slices.SliceFloors`: the term is below ``lambda``
exactly when ``omega_t < ceil(lambda * w_t * sum gamma*tau /
gamma(out))``, and both slice searches decide such probes without
exploring them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.analysis.bounds import minimal_execution_times
from repro.appmodel.application import ApplicationGraph
from repro.appmodel.binding import Binding
from repro.arch.architecture import ArchitectureGraph
from repro.core.tile_cost import TileLedger


class ThroughputBound:
    """:func:`partial_throughput_bound` over a search's ledger.

    The binding-independent parts — ``gamma(out)``, each actor's
    ``gamma * tau_min`` and the platform's remaining wheel capacity —
    are computed once per search; :meth:`of` reads the bound actors'
    work and the per-tile sums from the ledger.
    """

    def __init__(
        self, application: ApplicationGraph, architecture: ArchitectureGraph
    ) -> None:
        gamma = application.gamma
        self.gamma_out = gamma[application.output_actor]
        self._actors = application.graph.actor_names
        self._unbound_work = {
            actor: gamma[actor] * tau
            for actor, tau in minimal_execution_times(application).items()
        }
        capacity = Fraction(0)
        for tile in architecture.tiles:
            capacity += Fraction(max(0, tile.wheel_remaining), tile.wheel)
        self._platform = self.gamma_out * capacity

    def of(self, ledger: TileLedger) -> Optional[Fraction]:
        """The bound over all completions of the ledger's binding."""
        candidates = []
        # -- per-actor serialisation + work for the global utilisation
        work = heaviest = 0
        for actor in self._actors:
            actor_work = ledger.actor_work.get(actor)
            if actor_work is None:
                actor_work = self._unbound_work.get(actor)
            if not actor_work:  # no supported type, or tau < 1
                continue
            work += actor_work
            heaviest = max(heaviest, actor_work)
        if heaviest:
            candidates.append(Fraction(self.gamma_out, heaviest))
        # -- global utilisation: platform capacity over total work ---
        if work > 0:
            candidates.append(self._platform / work)
        # -- per-tile utilisation: the slice floor's bound at
        # omega = wheel_remaining (co-located actors share one wheel)
        for tile_name, usage in ledger.usage.items():
            if usage.work > 0:
                tile = ledger.architecture.tile(tile_name)
                candidates.append(
                    Fraction(
                        self.gamma_out * max(0, tile.wheel_remaining),
                        tile.wheel * usage.work,
                    )
                )
        return min(candidates) if candidates else None


def partial_throughput_bound(
    application: ApplicationGraph,
    architecture: ArchitectureGraph,
    binding: Binding,
) -> Optional[Fraction]:
    """Sound throughput upper bound over all completions of ``binding``.

    Returns ``None`` when nothing constrains the rate (no actor carries
    execution-time requirements).  With an empty binding this reduces
    to :func:`repro.analysis.bounds.static_throughput_bound` minus the
    per-tile term (which then has no used tiles to range over).
    """
    return ThroughputBound(application, architecture).of(
        TileLedger(application, architecture, binding)
    )
