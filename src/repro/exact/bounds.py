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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.analysis.bounds import minimal_execution_times
from repro.appmodel.application import ApplicationGraph
from repro.appmodel.binding import Binding
from repro.arch.architecture import ArchitectureGraph
from repro.core.tile_cost import tile_usage


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
    gamma = application.gamma
    gamma_out = gamma[application.output_actor]
    tau_min = minimal_execution_times(application)

    bound: Optional[Fraction] = None

    def tighten(candidate: Fraction) -> None:
        nonlocal bound
        if bound is None or candidate < bound:
            bound = candidate

    # -- per-actor serialisation + work for the global utilisation -----
    work = 0
    for actor in application.graph.actor_names:
        if binding.is_bound(actor):
            tile = architecture.tile(binding.tile_of(actor))
            tau = application.requirements(actor).execution_time(
                tile.processor_type
            )
        else:
            minimum = tau_min.get(actor)
            if minimum is None:
                continue
            tau = minimum
        if tau < 1:
            continue
        work += gamma[actor] * tau
        tighten(Fraction(gamma_out, gamma[actor] * tau))

    # -- global utilisation: platform capacity over total work ---------
    if work > 0:
        capacity = Fraction(0)
        for tile in architecture.tiles:
            remaining = max(0, tile.wheel_remaining)
            capacity += Fraction(remaining, tile.wheel)
        tighten(Fraction(gamma_out) * capacity / work)

    # -- per-tile utilisation: co-located actors share one wheel -------
    for tile_name, usage in tile_usage(
        application, architecture, binding
    ).items():
        if usage.work > 0:
            tile = architecture.tile(tile_name)
            share = Fraction(max(0, tile.wheel_remaining), tile.wheel)
            tighten(Fraction(gamma_out) * share / usage.work)

    return bound
