"""Unit tests for the tile loads and the Eqn. 2 cost function."""

from fractions import Fraction
from random import Random

import pytest

from repro.appmodel.binding import Binding
from repro.core.tile_cost import (
    CostWeights,
    tile_cost,
    tile_loads,
    tile_usage,
)


@pytest.fixture
def section8_binding(example_binding):
    return example_binding  # a1, a2 -> t1; a3 -> t2


class TestChannelSets:
    def test_full_binding_classification(
        self, example_application, example_architecture, section8_binding
    ):
        usage = tile_usage(
            example_application, example_architecture, section8_binding
        )
        assert list(usage) == ["t1", "t2"]
        # d1 and d3 stay on t1 (D_t,tile); d2 leaves it (D_t,src)
        assert [c.name for c in usage["t1"].outgoing] == ["d2"]
        assert (usage["t1"].bandwidth_out, usage["t1"].bandwidth_in) == (10, 0)
        assert usage["t1"].connections == 1
        # and arrives on t2 (D_t,dst)
        assert usage["t2"].outgoing == []
        assert (usage["t2"].bandwidth_out, usage["t2"].bandwidth_in) == (0, 10)
        assert usage["t2"].connections == 1

    def test_partial_binding_ignores_unbound_endpoints(
        self, example_application, example_architecture
    ):
        binding = Binding()
        binding.bind("a1", "t1")
        usage = tile_usage(example_application, example_architecture, binding)
        # d1's destination a2 is unbound; only the self edge d3 counts
        assert list(usage) == ["t1"]
        assert usage["t1"].memory == 10 + 1
        assert usage["t1"].outgoing == []
        assert usage["t1"].connections == 0
        assert usage["t1"].work == 1


class TestLoads:
    def test_processing_load(
        self, example_application, example_architecture, section8_binding
    ):
        # total worst-case work = 4 + 7 + 3 = 14; t1 runs a1+a2 at 1+1
        load = tile_loads(
            example_application, example_architecture, section8_binding, "t1"
        )
        assert load.processing == Fraction(2, 14)
        load2 = tile_loads(
            example_application, example_architecture, section8_binding, "t2"
        )
        assert load2.processing == Fraction(2, 14)

    def test_memory_demand_section7(
        self, example_application, example_architecture, section8_binding
    ):
        usage = tile_usage(
            example_application, example_architecture, section8_binding
        )
        # t1: mu(a1)+mu(a2) + d1 tile buffer (1*7) + d3 (1*1) + d2 src (2*100)
        assert usage["t1"].memory == 10 + 7 + 7 + 1 + 200
        # t2: mu(a3) + d2 dst buffer (2*100)
        assert usage["t2"].memory == 10 + 200

    def test_memory_load_normalised(
        self, example_application, example_architecture, section8_binding
    ):
        load = tile_loads(
            example_application, example_architecture, section8_binding, "t1"
        )
        assert load.memory == Fraction(225, 700)

    def test_communication_load(
        self, example_application, example_architecture, section8_binding
    ):
        load = tile_loads(
            example_application, example_architecture, section8_binding, "t1"
        )
        # t1: out bw 10/100, in 0, connections 1/5 -> avg = (0.1+0+0.2)/3
        assert load.communication == (
            Fraction(10, 100) + Fraction(0) + Fraction(1, 5)
        ) / 3

    def test_occupied_resources_shrink_denominators(
        self, example_application, example_architecture, section8_binding
    ):
        example_architecture.tile("t1").memory_occupied = 350
        load = tile_loads(
            example_application, example_architecture, section8_binding, "t1"
        )
        assert load.memory == Fraction(225, 350)

    def test_zero_capacity_with_demand_is_penalised(
        self, example_application, example_architecture, section8_binding
    ):
        example_architecture.tile("t1").memory_occupied = 700
        load = tile_loads(
            example_application, example_architecture, section8_binding, "t1"
        )
        assert load.memory >= 10**9

    def test_empty_tile_has_zero_load(
        self, example_application, example_architecture
    ):
        binding = Binding()
        load = tile_loads(
            example_application, example_architecture, binding, "t1"
        )
        assert load.processing == 0
        assert load.memory == 0
        assert load.communication == 0


class TestCostWeights:
    def test_combined_weighting(
        self, example_application, example_architecture, section8_binding
    ):
        load = tile_loads(
            example_application, example_architecture, section8_binding, "t1"
        )
        only_memory = tile_cost(
            example_application,
            example_architecture,
            section8_binding,
            "t1",
            CostWeights(0, 1, 0),
        )
        assert only_memory == pytest.approx(float(load.memory))

    def test_weights_tuple_and_str(self):
        weights = CostWeights(0, 1, 2)
        assert weights.as_tuple() == (0, 1, 2)
        assert str(weights) == "(0,1,2)"

    def test_zero_weights_give_zero_cost(
        self, example_application, example_architecture, section8_binding
    ):
        assert (
            tile_cost(
                example_application,
                example_architecture,
                section8_binding,
                "t1",
                CostWeights(0, 0, 0),
            )
            == 0.0
        )


# -- differential: the one-pass account against the per-tile rescans it
# replaced (channel sets, memory demand, loads, §7 checks, reservation,
# exact objective and bound), kept here verbatim as the reference


def reference_channel_sets(application, binding, tile_name):
    """``(D_t,tile, D_t,src, D_t,dst)`` for ``tile_name``."""
    sets = ([], [], [])
    for channel in application.graph.channels:
        if not (binding.is_bound(channel.src) and binding.is_bound(channel.dst)):
            continue
        src_tile = binding.tile_of(channel.src)
        dst_tile = binding.tile_of(channel.dst)
        if src_tile == tile_name and dst_tile == tile_name:
            sets[0].append(channel)
        elif src_tile == tile_name:
            sets[1].append(channel)
        elif dst_tile == tile_name:
            sets[2].append(channel)
    return sets


def reference_memory_demand(application, binding, tile):
    inside, src, dst = reference_channel_sets(application, binding, tile.name)
    total = 0
    for actor in binding.actors_on(tile.name):
        total += application.requirements(actor).memory(tile.processor_type)
    for channel in inside:
        requirements = application.channel(channel.name)
        total += requirements.buffer_tile * requirements.token_size
    for channel in src:
        requirements = application.channel(channel.name)
        total += requirements.buffer_src * requirements.token_size
    for channel in dst:
        requirements = application.channel(channel.name)
        total += requirements.buffer_dst * requirements.token_size
    return total


def reference_tile_loads(application, architecture, binding, tile_name):
    from repro.core.tile_cost import TileLoad

    tile = architecture.tile(tile_name)
    _, src, dst = reference_channel_sets(application, binding, tile_name)
    work_on_tile = sum(
        application.gamma[a]
        * application.requirements(a).execution_time(tile.processor_type)
        for a in binding.actors_on(tile_name)
    )
    total_work = application.total_worst_case_work()
    processing = Fraction(work_on_tile, total_work) if total_work else Fraction(0)
    memory_available = tile.memory_remaining
    demand = reference_memory_demand(application, binding, tile)
    memory = (
        Fraction(demand, memory_available)
        if memory_available > 0
        else (Fraction(0) if demand == 0 else Fraction(10**9))
    )
    outgoing = sum(application.channel(c.name).bandwidth for c in src)
    incoming = sum(application.channel(c.name).bandwidth for c in dst)
    connection_count = len(src) + len(dst)

    def fraction_or_penalty(amount, available):
        if available > 0:
            return Fraction(amount, available)
        return Fraction(0) if amount == 0 else Fraction(10**9)

    communication = (
        fraction_or_penalty(outgoing, tile.bandwidth_out_remaining)
        + fraction_or_penalty(incoming, tile.bandwidth_in_remaining)
        + fraction_or_penalty(connection_count, tile.connections_remaining)
    ) / 3
    return TileLoad(processing, memory, communication)


def reference_binding_violations(application, architecture, binding):
    """``(tile, constraint, demanded, available)`` per violation."""
    violations = []
    for tile_name in binding.used_tiles():
        tile = architecture.tile(tile_name)
        _, src, dst = reference_channel_sets(application, binding, tile_name)
        if tile.wheel_remaining < 1:
            violations.append((tile_name, "time-slice", 1, 0))
        demand = reference_memory_demand(application, binding, tile)
        if demand > tile.memory_remaining:
            violations.append(
                (tile_name, "memory", demand, tile.memory_remaining)
            )
        connection_count = len(src) + len(dst)
        if connection_count > tile.connections_remaining:
            violations.append(
                (
                    tile_name,
                    "connections",
                    connection_count,
                    tile.connections_remaining,
                )
            )
        outgoing = sum(application.channel(c.name).bandwidth for c in src)
        if outgoing > tile.bandwidth_out_remaining:
            violations.append(
                (
                    tile_name,
                    "output-bandwidth",
                    outgoing,
                    tile.bandwidth_out_remaining,
                )
            )
        incoming = sum(application.channel(c.name).bandwidth for c in dst)
        if incoming > tile.bandwidth_in_remaining:
            violations.append(
                (
                    tile_name,
                    "input-bandwidth",
                    incoming,
                    tile.bandwidth_in_remaining,
                )
            )
        for channel in src:
            dst_tile = binding.tile_of(channel.dst)
            if not application.channel(channel.name).crossable:
                violations.append((tile_name, "connection-missing", 1, 0))
            elif not architecture.connected(tile_name, dst_tile):
                violations.append((tile_name, "connection-missing", 1, 0))
    return violations


def reference_reservation_for(application, architecture, binding, slices):
    from repro.arch.resources import ResourceReservation

    reservation = ResourceReservation()
    for tile_name in binding.used_tiles():
        tile = architecture.tile(tile_name)
        _, src, dst = reference_channel_sets(application, binding, tile_name)
        claim = reservation.tile(tile_name)
        claim.memory = reference_memory_demand(application, binding, tile)
        claim.connections = len(src) + len(dst)
        claim.bandwidth_out = sum(
            application.channel(c.name).bandwidth for c in src
        )
        claim.bandwidth_in = sum(
            application.channel(c.name).bandwidth for c in dst
        )
        claim.time_slice = slices.get(tile_name, 0)
    return reservation


def reference_binding_load_cost(application, architecture, binding, weights):
    c1, c2, c3 = (Fraction(w) for w in weights.as_tuple())
    total = Fraction(0)
    for tile_name in binding.used_tiles():
        load = reference_tile_loads(
            application, architecture, binding, tile_name
        )
        total += c1 * load.processing + c2 * load.memory + c3 * load.communication
    return total


def reference_partial_throughput_bound(application, architecture, binding):
    from repro.analysis.bounds import minimal_execution_times

    gamma = application.gamma
    gamma_out = gamma[application.output_actor]
    tau_min = minimal_execution_times(application)
    candidates = []
    work = 0
    for actor in application.graph.actor_names:
        if binding.is_bound(actor):
            tile = architecture.tile(binding.tile_of(actor))
            tau = application.requirements(actor).execution_time(
                tile.processor_type
            )
        else:
            tau = tau_min.get(actor)
            if tau is None:
                continue
        if tau < 1:
            continue
        work += gamma[actor] * tau
        candidates.append(Fraction(gamma_out, gamma[actor] * tau))
    if work > 0:
        capacity = sum(
            Fraction(max(0, tile.wheel_remaining), tile.wheel)
            for tile in architecture.tiles
        )
        candidates.append(Fraction(gamma_out) * capacity / work)
    for tile_name in binding.used_tiles():
        tile = architecture.tile(tile_name)
        tile_work = sum(
            gamma[actor]
            * application.requirements(actor).execution_time(
                tile.processor_type
            )
            for actor in binding.actors_on(tile_name)
        )
        if tile_work > 0:
            share = Fraction(max(0, tile.wheel_remaining), tile.wheel)
            candidates.append(Fraction(gamma_out) * share / tile_work)
    return min(candidates) if candidates else None


DIFFERENTIAL_WEIGHTS = [
    CostWeights.default(),
    CostWeights(1, 1, 1),
    CostWeights(1, 0, 0),
    CostWeights(0.3, 1.7, 0.9),
]


def _random_binding(application, architecture, rng, share):
    """Each actor bound with probability ``share`` to a random tile
    that supports it."""
    binding = Binding()
    for actor in application.graph.actor_names:
        requirements = application.requirements(actor)
        tiles = [
            tile.name
            for tile in architecture.tiles
            if requirements.supports(tile.processor_type)
        ]
        if tiles and rng.random() < share:
            binding.bind(actor, rng.choice(tiles))
    return binding


def _occupy(architecture, rng):
    """Random occupancy per tile and resource: none, some or all of it
    (all of it takes the ``10**9`` penalty and violation paths)."""
    for tile in architecture.tiles:
        for field, capacity in (
            ("wheel_occupied", tile.wheel),
            ("memory_occupied", tile.memory),
            ("connections_occupied", tile.max_connections),
            ("bandwidth_in_occupied", tile.bandwidth_in),
            ("bandwidth_out_occupied", tile.bandwidth_out),
        ):
            level = rng.choice(("none", "some", "all"))
            amount = {
                "none": 0,
                "some": rng.randint(0, capacity),
                "all": capacity,
            }[level]
            setattr(tile, field, amount)


def _assert_account_matches_reference(
    application, architecture, binding, seen
):
    """Compare every consumer with its reference; tally in ``seen`` the
    violation labels met and whether a ``10**9`` penalty was."""
    from repro.core.constraints import binding_violations, reservation_for
    from repro.exact import binding_load_cost, partial_throughput_bound

    for tile in architecture.tiles:
        load = tile_loads(application, architecture, binding, tile.name)
        assert load == reference_tile_loads(
            application, architecture, binding, tile.name
        )
        if max(load.memory, load.communication) >= Fraction(10**9, 3):
            seen.add("penalty")
        for weights in DIFFERENTIAL_WEIGHTS:
            assert tile_cost(
                application, architecture, binding, tile.name, weights
            ) == reference_tile_loads(
                application, architecture, binding, tile.name
            ).combined(weights)
    violations = [
        (v.tile, v.constraint, v.demanded, v.available)
        for v in binding_violations(application, architecture, binding)
    ]
    assert violations == reference_binding_violations(
        application, architecture, binding
    )
    seen.update(label for _, label, _, _ in violations)
    slices = {name: 1 + i for i, name in enumerate(binding.used_tiles())}
    assert list(
        reservation_for(application, architecture, binding, slices).tiles.items()
    ) == list(
        reference_reservation_for(
            application, architecture, binding, slices
        ).tiles.items()
    )
    for weights in DIFFERENTIAL_WEIGHTS:
        assert binding_load_cost(
            application, architecture, binding, weights
        ) == reference_binding_load_cost(
            application, architecture, binding, weights
        )
    assert partial_throughput_bound(
        application, architecture, binding
    ) == reference_partial_throughput_bound(application, architecture, binding)


def _differential_cases():
    """(application, architecture factory) pairs: the four
    benchmark sets on the §10.1 meshes, and the greedy-vs-exact
    harness's small and heavy profiles on its 1x2 and 1x3 meshes, with
    every third channel made uncrossable (zero bandwidth)."""
    from repro.arch.presets import benchmark_architectures
    from repro.generate.benchmark import (
        SET_PROFILES,
        generate_application,
        generate_benchmark_set,
    )
    from tests.test_differential_allocation import (
        HEAVY_PROFILE,
        SMALL_PROFILE,
        TYPES,
        _architecture,
    )

    types = benchmark_architectures()[0].processor_types()
    for index, set_name in enumerate([*SET_PROFILES, "mixed"]):
        for application in generate_benchmark_set(
            set_name, 3, types, seed=11 + index
        ):
            for variant in range(3):
                yield application, (
                    lambda v=variant: benchmark_architectures()[v]
                )
    for profile, seeds in (
        (SMALL_PROFILE, range(12)),
        (HEAVY_PROFILE, range(200, 206)),
    ):
        for seed in seeds:
            application = generate_application(
                profile, TYPES, Random(seed), name=f"{profile.name}-{seed}"
            )
            for channel in application.graph.channels[::3]:
                application.channel(channel.name).bandwidth = 0
            yield application, (lambda s=seed: _architecture(s))


def test_tile_usage_matches_the_per_tile_rescans():
    bindings = 0
    seen = set()
    for seed, (application, make_architecture) in enumerate(
        _differential_cases()
    ):
        rng = Random(seed)
        for occupied in (False, True):
            architecture = make_architecture()
            if occupied:
                _occupy(architecture, rng)
            for share in (0.0, 0.5, 1.0, 1.0):
                binding = _random_binding(application, architecture, rng, share)
                _assert_account_matches_reference(
                    application, architecture, binding, seen
                )
                bindings += 1
    assert bindings == (4 * 3 * 3 + 12 + 6) * 2 * 4
    # the inputs reach every §7 label and the penalty path
    assert seen == {
        "penalty",
        "time-slice",
        "memory",
        "connections",
        "output-bandwidth",
        "input-bandwidth",
        "connection-missing",
    }


def _account(usage):
    """A :class:`TileUsage` map as comparable values; ``outgoing`` as a
    set, since the ledger lists it in the order channels started to
    cross."""
    return {
        name: (
            record.work,
            record.memory,
            record.bandwidth_out,
            record.bandwidth_in,
            record.connections,
            sorted(channel.name for channel in record.outgoing),
        )
        for name, record in usage.items()
    }


def test_ledger_follows_random_moves_like_a_fresh_account():
    """Seeded bind, unbind and rebind sequences through one ledger:
    after every move its account equals ``tile_usage`` from scratch,
    every tile's float Eqn. 2 cost is bit-identical to the Fraction
    loads' ``combined``, and the §7 violations, the exact objective and
    the throughput bound it feeds equal their per-tile rescans."""
    from repro.core.constraints import ledger_violations
    from repro.core.tile_cost import TileLedger
    from repro.exact.bounds import ThroughputBound
    from repro.exact.cost import load_cost, weight_fractions

    moves = 0
    for seed, (application, make_architecture) in enumerate(
        _differential_cases()
    ):
        rng = Random(1000 + seed)
        for occupied in (False, True):
            architecture = make_architecture()
            if occupied:
                _occupy(architecture, rng)
            ledger = TileLedger(application, architecture)
            bound = ThroughputBound(application, architecture)
            actors = application.graph.actor_names
            for _ in range(24):
                actor = rng.choice(actors)
                tiles = [
                    tile.name
                    for tile in architecture.tiles
                    if application.requirements(actor).supports(
                        tile.processor_type
                    )
                ]
                if ledger.binding.is_bound(actor):
                    ledger.unbind(actor)
                    if rng.random() < 0.5:  # rebind
                        ledger.bind(actor, rng.choice(tiles))
                else:
                    ledger.bind(actor, rng.choice(tiles))
                moves += 1
                binding = ledger.binding
                assert _account(ledger.usage) == _account(
                    tile_usage(application, architecture, binding)
                )
                for tile in architecture.tiles:
                    reference = reference_tile_loads(
                        application, architecture, binding, tile.name
                    )
                    assert ledger.load(tile.name) == reference
                    for weights in DIFFERENTIAL_WEIGHTS:
                        assert ledger.cost(
                            tile.name, weights
                        ) == reference.combined(weights)
                assert sorted(
                    (v.tile, v.constraint, v.demanded, v.available)
                    for v in ledger_violations(ledger)
                ) == sorted(
                    reference_binding_violations(
                        application, architecture, binding
                    )
                )
                for weights in DIFFERENTIAL_WEIGHTS:
                    assert load_cost(
                        ledger, weight_fractions(weights)
                    ) == reference_binding_load_cost(
                        application, architecture, binding, weights
                    )
                assert bound.of(ledger) == reference_partial_throughput_bound(
                    application, architecture, binding
                )
            for actor in list(ledger.binding.assignment):
                ledger.unbind(actor)
            assert ledger.usage == {} and ledger.actor_work == {}
    assert moves == (4 * 3 * 3 + 12 + 6) * 2 * 24


def test_ledger_refuses_to_bind_a_bound_actor(
    example_application, example_architecture
):
    from repro.core.tile_cost import TileLedger

    ledger = TileLedger(example_application, example_architecture)
    ledger.bind("a1", "t1")
    with pytest.raises(ValueError, match="already bound"):
        ledger.bind("a1", "t2")
