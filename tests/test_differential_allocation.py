"""Differential harness: greedy allocation vs. the exact backend.

The allocation-level counterpart of ``tests/test_differential.py``:
for seeded small applications (<= 5 actors on <= 3 tiles) the greedy
three-step strategy and the :mod:`repro.exact` branch-and-bound search
must agree on *feasibility*, and whenever both allocate, the exact
cost must lower-bound the greedy cost under the shared objective
(:func:`repro.exact.cost.allocation_cost`, same weights, same
architecture state).  Every exact allocation's certificate must replay
as ``certified`` by :mod:`repro.verify` after a JSON round trip — the
exact backend earns no trust the greedy path does not.

The sound invariant is one-directional.  Exact's slice grid holds
every width up to each tile's free wheel, which dominates everything
the greedy search can return, so

* greedy feasible but exact infeasible is a soundness bug (the search
  pruned a feasible region, or its leaf evaluation diverges from the
  strategy's) and fails the suite everywhere;
* exact cost above greedy is a missed optimum and fails everywhere;
* exact feasible but greedy infeasible is the greedy heuristic's
  *incompleteness*: it commits to one binding and gives up when that
  binding cannot reach the constraint, even though another binding
  could.  On the main corpus this never happens (asserted — verdicts
  are identical on all 40 seeds); the ``tight`` group, whose
  constraints sit near the static bound, deliberately contains such
  cases and pins them as evidence of the gap the exact backend closes.

The heavy group (more actors and repetitions, larger wheels) carries
``@slow``.
"""

from fractions import Fraction
from random import Random

import json
import pytest

from repro.appmodel.serialization import bundle_to_dict
from repro.arch.presets import mesh_architecture
from repro.arch.tile import ProcessorType
from repro.core.strategy import AllocationError, ResourceAllocator
from repro.core.tile_cost import CostWeights
from repro.exact import allocation_cost, exact_search
from repro.generate.benchmark import BenchmarkSetProfile, generate_application
from repro.generate.random_sdf import RandomSDFParameters
from repro.verify import VERDICT_CERTIFIED, certify_allocation

pytestmark = pytest.mark.exact

WEIGHTS = CostWeights.default()

SMALL_PROFILE = BenchmarkSetProfile(
    name="alloc-diff",
    structure=RandomSDFParameters(
        actors_min=2,
        actors_max=5,
        repetition_max=2,
        extra_channel_fraction=0.3,
    ),
    execution_time=(1, 3),
    actor_memory=(5, 20),
    token_size=(1, 3),
    buffer_tokens=(1, 2),
    bandwidth=(8, 40),
    constraint_percent=(5, 25),
)

#: constraints close to the ideal rate: a share of these cases is
#: infeasible on the small platform, exercising verdict agreement
TIGHT_PROFILE = BenchmarkSetProfile(
    name="alloc-diff-tight",
    structure=SMALL_PROFILE.structure,
    execution_time=(1, 3),
    actor_memory=(5, 20),
    token_size=(1, 3),
    buffer_tokens=(1, 2),
    bandwidth=(8, 40),
    constraint_percent=(60, 95),
)

HEAVY_PROFILE = BenchmarkSetProfile(
    name="alloc-diff-heavy",
    structure=RandomSDFParameters(
        actors_min=4,
        actors_max=5,
        repetition_max=3,
        extra_channel_fraction=0.5,
    ),
    execution_time=(1, 4),
    actor_memory=(5, 20),
    token_size=(1, 3),
    buffer_tokens=(1, 2),
    bandwidth=(8, 40),
    constraint_percent=(5, 25),
)

TYPES = [ProcessorType("p1"), ProcessorType("p2")]

FAST_SEEDS = list(range(40))
TIGHT_SEEDS = list(range(100, 112))
HEAVY_SEEDS = list(range(200, 210))


def _architecture(seed, wheel=8):
    """A 1x2 or 1x3 mesh; small wheels keep the slice grid tractable."""
    return mesh_architecture(
        1,
        2 + seed % 2,
        TYPES,
        wheel=wheel,
        memory=4_000,
        max_connections=16,
        bandwidth_in=2_000,
        bandwidth_out=2_000,
    )


def _application(profile, seed):
    return generate_application(
        profile, TYPES, Random(seed), name=f"{profile.name}-{seed}"
    )


def _greedy(application, architecture):
    try:
        return ResourceAllocator(weights=WEIGHTS).allocate(
            application, architecture
        )
    except AllocationError:
        return None


def _assert_certified(architecture, allocation):
    """The certificate must replay as certified after a JSON round trip."""
    bundle = json.loads(
        json.dumps(bundle_to_dict(architecture, [allocation]))
    )
    report = certify_allocation(bundle)
    assert report.certified, report.summary()
    assert report.verdicts[0].verdict == VERDICT_CERTIFIED


def _compare(profile, seed, wheel=8, strict_verdicts=True):
    """Run both backends; return (greedy_feasible, exact_feasible)."""
    application = _application(profile, seed)
    greedy = _greedy(application, _architecture(seed, wheel))

    architecture = _architecture(seed, wheel)
    exact = exact_search(application, architecture, weights=WEIGHTS)

    if greedy is not None:
        # the soundness direction: exact may never reject what greedy
        # allocates (its search space is a superset)
        assert exact.feasible, (
            f"soundness bug on {application.name}: greedy allocated "
            "but the exact search claims infeasibility"
        )
    if strict_verdicts:
        assert (greedy is not None) == exact.feasible, (
            f"feasibility disagreement on {application.name}: "
            f"greedy={'feasible' if greedy else 'infeasible'}, "
            f"exact={'feasible' if exact.feasible else 'infeasible'}"
        )
    if not exact.feasible:
        return (greedy is not None, False)

    assert exact.allocation.satisfied
    _assert_certified(architecture, exact.allocation)
    if greedy is None:
        return (False, True)
    exact_cost = exact.cost
    greedy_cost = allocation_cost(
        application,
        architecture,
        greedy.binding,
        greedy.scheduling.slices,
        WEIGHTS,
    )
    assert exact_cost <= greedy_cost, (
        f"exact cost {exact_cost} exceeds greedy cost {greedy_cost} "
        f"on {application.name}"
    )
    assert isinstance(exact_cost, Fraction)
    return (True, True)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_exact_lower_bounds_greedy(seed):
    _compare(SMALL_PROFILE, seed)


@pytest.mark.parametrize("seed", TIGHT_SEEDS)
def test_soundness_under_tight_constraints(seed):
    _compare(TIGHT_PROFILE, seed, strict_verdicts=False)


def test_tight_corpus_exercises_both_directions():
    """The tight group must contain genuinely infeasible cases *and*
    cases where the exact backend allocates what greedy gives up on
    (the incompleteness gap) — otherwise the group tests nothing."""
    verdicts = [
        _compare(TIGHT_PROFILE, seed, strict_verdicts=False)
        for seed in TIGHT_SEEDS
    ]
    assert any(not exact for _, exact in verdicts), (
        "no infeasible case in the tight corpus"
    )
    assert any(
        exact and not greedy for greedy, exact in verdicts
    ), "no greedy-incompleteness case in the tight corpus"


@pytest.mark.slow
@pytest.mark.parametrize("seed", HEAVY_SEEDS)
def test_exact_lower_bounds_greedy_heavy(seed):
    _compare(HEAVY_PROFILE, seed, wheel=10)


def test_differential_corpus_is_deterministic():
    """Identical seeds re-draw identical applications."""
    first = _application(SMALL_PROFILE, 7)
    second = _application(SMALL_PROFILE, 7)
    assert [a.name for a in first.graph.actors] == [
        a.name for a in second.graph.actors
    ]
    assert first.throughput_constraint == second.throughput_constraint
