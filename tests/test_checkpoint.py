"""Crash-safe checkpoint/resume (``make test-verify``).

The promise under test (``docs/VERIFICATION.md``): a budget-killed
exploration serialises its frontier to a versioned JSON checkpoint, and
resuming from that checkpoint — even after a round-trip through a file
— continues *bit-identically*, i.e. yields exactly the result an
uninterrupted run would have produced.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csdf.random_csdf import random_csdf
from repro.csdf.serialization import csdf_to_dict
from repro.generate.random_sdf import random_sdfg
from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    read_checkpoint,
    resume_from_checkpoint,
    write_checkpoint,
)
from repro.sdf.analysis import strongly_connected_components
from repro.sdf.graph import SDFGraph
from repro.sdf.serialization import SerializationError
from repro.throughput.constrained import (
    StaticOrderSchedule,
    TileConstraints,
    constrained_throughput,
)
from repro.throughput.state_space import (
    rate_from_str,
    rate_to_str,
    throughput,
)


def _random_graph(seed):
    """A consistent, live random SDFG with varied execution times."""
    rng = random.Random(seed)
    base = random_sdfg(rng=rng, name=f"rand-{seed}")
    graph = SDFGraph(base.name)
    for actor in base.actors:
        graph.add_actor(actor.name, rng.randint(1, 5))
    for channel in base.channels:
        graph.add_channel(
            channel.name,
            channel.src,
            channel.dst,
            channel.production,
            channel.consumption,
            channel.tokens,
        )
    return graph


def _interrupt(graph, max_states):
    """Run ``throughput`` under a state budget; the checkpoint or None."""
    try:
        throughput(graph, budget=Budget(max_states=max_states))
    except BudgetExceededError as error:
        return error.partial["checkpoint"]
    return None


def _assert_same_result(resumed, full):
    assert resumed.iteration_rate == full.iteration_rate
    assert resumed.gamma == full.gamma
    assert resumed.scc_rates == full.scc_rates
    assert resumed.states_explored == full.states_explored
    assert resumed.certificates == full.certificates
    for actor in full.gamma:
        assert resumed.of(actor) == full.of(actor)


# -- bit-identical resume over seeded random graphs ------------------------


def test_budget_killed_runs_resume_bit_identically():
    """Acceptance: >= 20 seeded random SDFGs, budget-killed mid-search,
    must resume from their checkpoint to the uninterrupted result."""
    resumed_count = 0
    seed = 0
    while resumed_count < 20:
        seed += 1
        assert seed < 200, "random graphs stopped producing interruptions"
        graph = _random_graph(seed)
        checkpoint = _interrupt(graph, max_states=2)
        if checkpoint is None:  # finished within the tiny budget
            continue
        # force a JSON round-trip: what resumes is exactly what a file
        # would have carried
        checkpoint = json.loads(json.dumps(checkpoint))
        resumed = resume_from_checkpoint(checkpoint)
        _assert_same_result(resumed, throughput(graph))
        resumed_count += 1


def test_chained_interruptions_resume_bit_identically():
    """Kill, resume with another tiny budget, kill again, resume fully."""
    graph = first = None
    for seed in range(1, 50):
        graph = _random_graph(seed)
        if throughput(graph).states_explored < 8:
            continue  # too small to interrupt twice
        first = _interrupt(graph, max_states=2)
        if first is not None:
            break
    assert first is not None
    checkpoint, hops = first, 0
    while True:
        assert hops < 10_000, "chained resume stopped making progress"
        try:
            resumed = resume_from_checkpoint(
                json.loads(json.dumps(checkpoint)),
                budget=Budget(max_states=2),
            )
            break
        except BudgetExceededError as error:
            checkpoint = error.partial["checkpoint"]
            hops += 1
    assert hops >= 1, "budget never interrupted the resumed runs"
    _assert_same_result(resumed, throughput(graph))


def test_csdf_runs_resume_bit_identically():
    """Seeded multi-phase CSDF graphs, budget-killed and resumed from a
    JSON round trip of their checkpoint, give the uninterrupted result;
    some interruptions catch a phased actor with firings in flight."""
    resumed_count = phased_in_flight = 0
    for seed in range(20):
        graph = random_csdf(random.Random(seed), max_phases=3, name=f"c{seed}")
        full = throughput(graph)
        for max_states in (2, 5, 20):
            checkpoint = _interrupt(graph, max_states)
            if checkpoint is None:
                continue
            checkpoint = json.loads(json.dumps(checkpoint))
            assert checkpoint["graph"] == csdf_to_dict(graph)
            _assert_same_result(resume_from_checkpoint(checkpoint), full)
            resumed_count += 1
            # the interrupted component's actors, in graph order; only a
            # phased component records each actor's next phase
            component = strongly_connected_components(graph)[
                checkpoint["component_index"]
            ]
            actors = [a for a in graph.actors if a.name in component]
            engine = checkpoint["engine_state"]
            assert ("phase" in engine) == any(a.phase_count > 1 for a in actors)
            phased_in_flight += any(
                busy and actor.phase_count > 1
                for actor, busy in zip(actors, engine["active"])
            )
    assert resumed_count >= 20
    assert phased_in_flight >= 1


def test_csdf_budget_is_charged():
    graph = random_csdf(random.Random(1), max_phases=3)
    full = throughput(graph)
    budget = Budget(max_states=10 * full.states_explored)
    throughput(graph, budget=budget)
    # one charge per state visited, and one per recurrent state found
    charged = full.states_explored + len(full.certificates)
    assert budget.usage()["states_charged"] == charged
    assert _interrupt(graph, max_states=full.states_explored // 2) is not None


def _pipe():
    """A two-actor graph on one TDMA tile, and its tile."""
    graph = SDFGraph("pipe")
    graph.add_actor("a", 2)
    graph.add_actor("b", 3)
    graph.add_channel("self:a", "a", "a", tokens=1)
    graph.add_channel("self:b", "b", "b", tokens=1)
    graph.add_channel("ab", "a", "b")
    graph.add_channel("ba", "b", "a", tokens=1)
    tiles = [
        TileConstraints("t", 10, 5, StaticOrderSchedule(periodic=("a", "b")))
    ]
    return graph, tiles


def _constrained_checkpoint(graph, tiles):
    with pytest.raises(BudgetExceededError) as info:
        constrained_throughput(graph, tiles, budget=Budget(max_states=2))
    return json.loads(json.dumps(info.value.partial["checkpoint"]))


def test_constrained_run_resumes_bit_identically():
    graph, tiles = _pipe()
    full = constrained_throughput(graph, tiles)
    checkpoint = _constrained_checkpoint(graph, tiles)
    assert checkpoint["kind"] == "constrained"
    resumed = resume_from_checkpoint(checkpoint)
    assert resumed.period == full.period
    assert resumed.period_firings == full.period_firings
    assert resumed.transient_time == full.transient_time
    assert resumed.certificate == full.certificate
    assert resumed.of("a") == full.of("a")


# -- checkpoint file round-trip --------------------------------------------


def test_write_read_round_trip(tmp_path):
    graph = _random_graph(1)
    checkpoint = _interrupt(graph, max_states=2)
    assert checkpoint is not None
    path = str(tmp_path / "ck.json")
    write_checkpoint(path, checkpoint)
    assert read_checkpoint(path) == json.loads(json.dumps(checkpoint))
    resumed = resume_from_checkpoint(path)
    _assert_same_result(resumed, throughput(graph))


def test_write_rejects_payload_without_envelope(tmp_path):
    path = str(tmp_path / "ck.json")
    with pytest.raises(CheckpointError):
        write_checkpoint(path, {"kind": "state-space"})
    assert not (tmp_path / "ck.json").exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_read_rejects_truncated_and_foreign_files(tmp_path):
    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"format": "repro-ch')
    with pytest.raises(CheckpointError):
        read_checkpoint(str(truncated))
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(CheckpointError):
        read_checkpoint(str(foreign))
    with pytest.raises(CheckpointError):
        read_checkpoint(str(tmp_path / "missing.json"))


def test_resume_rejects_flow_checkpoint_directly():
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": 1,
        "kind": "flow",
        "completed": [],
        "allocations": [],
        "stats": [],
    }
    with pytest.raises(CheckpointError):
        resume_from_checkpoint(payload)


# -- randomised format round-trips (hypothesis) ----------------------------


@given(num=st.integers(0, 10**12), den=st.integers(1, 10**12))
def test_rate_string_round_trip(num, den):
    from fractions import Fraction

    rate = Fraction(num, den)
    assert rate_from_str(rate_to_str(rate)) == rate


def test_infinite_rate_round_trip():
    assert rate_from_str(rate_to_str(float("inf"))) == float("inf")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_checkpoint_json_round_trip_is_lossless(seed):
    """Any checkpoint the engine emits survives JSON serialisation."""
    graph = _random_graph(seed)
    checkpoint = _interrupt(graph, max_states=2)
    if checkpoint is None:
        return  # graph finished inside the budget; nothing to round-trip
    assert checkpoint["format"] == CHECKPOINT_FORMAT
    assert checkpoint["kind"] == "state-space"
    round_tripped = json.loads(json.dumps(checkpoint))
    assert round_tripped == json.loads(json.dumps(round_tripped))
    _assert_same_result(
        resume_from_checkpoint(round_tripped), throughput(graph)
    )


# -- hardened reads: truncation, binary corruption, missing fields ---------


def _real_checkpoint(tmp_path):
    """A genuine engine checkpoint, interrupted and written to disk."""
    for seed in range(1, 200):
        payload = _interrupt(_random_graph(seed), max_states=2)
        if payload is not None:
            path = tmp_path / "real.json"
            write_checkpoint(str(path), payload)
            return path
    raise AssertionError("random graphs stopped producing interruptions")


def test_read_truncated_real_checkpoint_raises_typed_error(tmp_path):
    """Truncating a real checkpoint mid-file yields CheckpointError
    (a SerializationError) carrying the file path — never a bare
    json.JSONDecodeError."""
    path = _real_checkpoint(tmp_path)
    text = path.read_text()
    for fraction in (0.25, 0.5, 0.9):
        path.write_text(text[: int(len(text) * fraction)])
        with pytest.raises(CheckpointError) as excinfo:
            read_checkpoint(str(path))
        assert str(path) in str(excinfo.value)
        assert isinstance(excinfo.value, SerializationError)


def test_read_binary_corrupted_checkpoint_raises_typed_error(tmp_path):
    """A checkpoint overwritten with non-UTF-8 bytes must surface as
    CheckpointError, not UnicodeDecodeError."""
    path = _real_checkpoint(tmp_path)
    path.write_bytes(b"\x00\xff\xfe garbage \x80\x81")
    with pytest.raises(CheckpointError) as excinfo:
        read_checkpoint(str(path))
    assert str(path) in str(excinfo.value)


def _drop(payload, field):
    """Delete ``field`` (dotted for a nested one) from ``payload``."""
    *path, key = field.split(".")
    for name in path:
        payload = payload[name]
    del payload[key]


@pytest.mark.parametrize(
    "missing",
    ["graph", "max_states", "execution_times", "auto_concurrency"]
    + ["component_index", "scc_rates", "states"]
    + [
        f"engine_state.{key}"
        for key in ("time", "tokens", "active", "completed", "firing_starts", "seen")
    ],
)
def test_resume_missing_field_raises_typed_error(tmp_path, missing):
    """A structurally valid checkpoint that lost a required field must
    fail resume with a CheckpointError naming the field, not KeyError."""
    path = _real_checkpoint(tmp_path)
    payload = read_checkpoint(str(path))
    _drop(payload, missing)
    with pytest.raises(CheckpointError) as excinfo:
        resume_from_checkpoint(payload)
    assert missing in str(excinfo.value)


def test_resume_phased_checkpoint_without_phase_raises_typed_error():
    for seed in range(50):
        graph = random_csdf(random.Random(seed), max_phases=3)
        checkpoint = _interrupt(graph, max_states=2)
        if checkpoint is not None and "phase" in checkpoint["engine_state"]:
            break
    else:
        raise AssertionError("no interrupted phased component")
    _drop(checkpoint, "engine_state.phase")
    with pytest.raises(CheckpointError, match="engine_state.phase"):
        resume_from_checkpoint(checkpoint)


def test_resume_component_index_out_of_range_raises_typed_error(tmp_path):
    payload = read_checkpoint(str(_real_checkpoint(tmp_path)))
    payload["component_index"] = 99
    with pytest.raises(CheckpointError, match="component index 99"):
        resume_from_checkpoint(payload)


def test_resume_constrained_missing_tile_field_raises_typed_error():
    graph = SDFGraph("pipe")
    graph.add_actor("a", 2)
    graph.add_channel("loop", "a", "a", tokens=1)
    checkpoint = {
        "format": CHECKPOINT_FORMAT,
        "version": 1,
        "kind": "constrained",
        "graph": {
            "name": "pipe",
            "actors": [{"name": "a", "execution_time": 2}],
            "channels": [
                {
                    "name": "loop",
                    "src": "a",
                    "dst": "a",
                    "production": 1,
                    "consumption": 1,
                    "tokens": 1,
                }
            ],
        },
        "max_states": 100,
        "tiles": [{"name": "t1", "wheel": 10}],  # no slice_size/periodic
    }
    with pytest.raises(CheckpointError) as excinfo:
        resume_from_checkpoint(checkpoint)
    assert "tiles[0]" in str(excinfo.value)


@pytest.mark.parametrize(
    "missing",
    ["engine_state"]
    + [
        f"engine_state.{key}"
        for key in (
            "time",
            "tokens",
            "unscheduled_active",
            "tile_active",
            "schedule_pos",
            "completed",
            "zero_firings",
            "seen",
        )
    ],
)
def test_resume_constrained_missing_engine_field_raises_typed_error(missing):
    checkpoint = _constrained_checkpoint(*_pipe())
    _drop(checkpoint, missing)
    with pytest.raises(CheckpointError) as excinfo:
        resume_from_checkpoint(checkpoint)
    assert missing in str(excinfo.value)
