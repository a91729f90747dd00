"""Golden corpus of the execution engines' observable results.

``tests/fixtures/engine_golden.json`` pins what the four engine front
ends report on a fixed set of inputs: states explored, rates, period,
transient and firings, compacted static-order schedules, constrained
firing traces, and the sha256 of each certificate's canonical JSON.
It stores the inputs too (graphs, tiles, schedules), so
``tests/test_engine_golden.py`` replays every case through the public
entry points without re-running the allocation flows that produced
them.

The constrained and list-scheduling cases are the calls made by the
paper's fig. 5 allocation, by ``allocate_until_failure`` on
``generate_benchmark_set("mixed", 4, seed=0)`` and by a few
``exact_search`` runs, captured by wrapping the two entry points.

A second set of cases pins the start order at one instant, which
traces and the list scheduler's logs depend on: traced constrained runs
that start zero-time auxiliary actors (full-wheel probes, and recorded
probes with their ``con:``/``syn:`` actors or one bound actor set to
time 0 through the case's ``times`` override), list-scheduling runs
with zero-duration connection actors, and a small graph built so that
its trace shows which round each zero-time start falls in.

``tests/fixtures/checkpoint_v1_*.json`` are budget-interrupted
explorations (format version 1): one per checkpoint kind interrupted
half-way, and one constrained run interrupted a state before its
recurrence, whose visited map already holds the recurrent state with a
TDMA-gated tile firing in progress.  The fixture records the result an
uninterrupted run reports for each.

Regenerate, only when an output change is intended::

    PYTHONPATH=src python -m tests.engine_golden
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.csdf.random_csdf import random_csdf
from repro.csdf.serialization import csdf_from_dict, csdf_to_dict
from repro.csdf.throughput import csdf_throughput
from repro.extensions.latency import output_latency
from repro.generate.random_sdf import RandomSDFParameters, random_sdfg
from repro.resilience.budget import Budget, BudgetExceededError
from repro.sdf.analysis import strongly_connected_components
from repro.sdf.graph import SDFGraph
from repro.sdf.serialization import graph_from_dict, graph_to_dict
from repro.core.scheduling import SchedulingError, build_static_order_schedules
from repro.throughput.constrained import (
    StaticOrderSchedule,
    TileConstraints,
    TraceEvent,
    constrained_throughput,
)
from repro.throughput.state_space import (
    SelfTimedExecution,
    StateSpaceExplosionError,
    rate_to_str,
    throughput,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / "engine_golden.json"
CHECKPOINTS = {
    "state-space": "checkpoint_v1_state_space.json",
    "constrained": "checkpoint_v1_constrained.json",
}
RECURRENT_CHECKPOINT = "checkpoint_v1_constrained_recurrent.json"
#: largest state count of a recorded zero-time constrained case (traces
#: grow with the states)
TRACED_STATES = 600


def digest(value: Any) -> str:
    """sha256 of ``value``'s canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _failure(error: Exception) -> Dict[str, str]:
    return {"error": type(error).__name__}


# -- outputs -------------------------------------------------------------
def _execution(result: Any) -> Dict[str, Any]:
    """The fields shared by ExecutionResult and ConstrainedThroughputResult."""
    return {
        "states": result.states_explored,
        "deadlocked": result.deadlocked,
        "period": result.period,
        "transient": result.transient_time,
        "firings": dict(sorted(result.period_firings.items())),
        "certificate": (
            digest(result.certificate) if result.certificate is not None else None
        ),
    }


def _throughput(result: Any) -> Dict[str, Any]:
    return {
        "rate": rate_to_str(result.iteration_rate),
        "states": result.states_explored,
        "scc_rates": [
            [list(scc), rate_to_str(rate)] for scc, rate in result.scc_rates.items()
        ],
        "certificates": [
            [list(scc), digest(cert)] for scc, cert in result.certificates.items()
        ],
    }


# -- replay of one case (shared by recording and the test) ----------------
def _tiles(entries: List[Dict[str, Any]]) -> List[TileConstraints]:
    return [
        TileConstraints(
            name=entry["name"],
            wheel=entry["wheel"],
            slice_size=entry["slice_size"],
            slice_start=entry["slice_start"],
            schedule=StaticOrderSchedule(
                periodic=tuple(entry["periodic"]),
                transient=tuple(entry["transient"]),
            ),
        )
        for entry in entries
    ]


def _tile_entries(tiles: List[TileConstraints]) -> List[Dict[str, Any]]:
    return [
        {
            "name": tile.name,
            "wheel": tile.wheel,
            "slice_size": tile.slice_size,
            "slice_start": tile.slice_start,
            "transient": list(tile.schedule.transient),
            "periodic": list(tile.schedule.periodic),
        }
        for tile in tiles
    ]


class _RecordedBag:
    """The parts of a binding-aware graph the list scheduler reads."""

    def __init__(
        self, graph: SDFGraph, tiles: List[List[Any]], assignment: Dict[str, str]
    ) -> None:
        wheels = {name: wheel for name, wheel, _ in tiles}
        order = [name for name, _, _ in tiles]
        self.graph = graph
        self.slices = {name: size for name, _, size in tiles}
        self.binding = SimpleNamespace(
            assignment=dict(assignment), used_tiles=lambda: list(order)
        )
        self.architecture = SimpleNamespace(
            tile=lambda name: SimpleNamespace(wheel=wheels[name])
        )

    def update_slices(self, slices: Dict[str, int]) -> None:
        # the recorded graph already carries these slices' alignment times
        self.slices.update(slices)


def _sdf(case: Dict[str, Any], graphs: Dict[str, Any]) -> SDFGraph:
    graph = graph_from_dict(graphs[case["graph"]])
    for actor, time in case.get("times", {}).items():
        graph.actor(actor).execution_time = time
    return graph


def run_self_timed(case: Dict[str, Any], graphs: Dict[str, Any]) -> Dict[str, Any]:
    graph = _sdf(case, graphs)
    concurrency = case["auto_concurrency"]
    out: Dict[str, Any] = {}
    try:
        out["throughput"] = _throughput(
            throughput(graph, auto_concurrency=concurrency)
        )
    except StateSpaceExplosionError as error:
        out["throughput"] = _failure(error)
    executions = []
    for component in strongly_connected_components(graph):
        subgraph = graph.subgraph(component)
        if len(component) == 1 and not any(
            c.is_self_loop for c in subgraph.channels
        ):
            continue
        try:
            executions.append(
                _execution(
                    SelfTimedExecution(
                        subgraph, auto_concurrency=concurrency
                    ).execute()
                )
            )
        except StateSpaceExplosionError as error:
            executions.append(_failure(error))
    out["executions"] = executions
    return out


def run_latency(case: Dict[str, Any], graphs: Dict[str, Any]) -> Dict[str, Any]:
    graph = _sdf(case, graphs)
    try:
        result = output_latency(
            graph, case["output"], auto_concurrency=case["auto_concurrency"]
        )
    except StateSpaceExplosionError as error:
        return _failure(error)
    return {
        "firings": result.firings,
        "latency": result.latency,
        "iteration_period": (
            None if result.iteration_period is None else str(result.iteration_period)
        ),
    }


def run_csdf(case: Dict[str, Any], graphs: Dict[str, Any]) -> Dict[str, Any]:
    graph = csdf_from_dict(graphs[case["graph"]])
    try:
        result = csdf_throughput(graph, auto_concurrency=case["auto_concurrency"])
    except StateSpaceExplosionError as error:
        return _failure(error)
    return {
        "rate": rate_to_str(result.iteration_rate),
        "states": result.states_explored,
        "gamma": dict(sorted(result.gamma.items())),
    }


def run_constrained(case: Dict[str, Any], graphs: Dict[str, Any]) -> Dict[str, Any]:
    graph = _sdf(case, graphs)
    trace: Optional[List[TraceEvent]] = [] if case.get("trace") else None
    try:
        result = constrained_throughput(
            graph, _tiles(case["tiles"]), max_states=case["max_states"], trace=trace
        )
    except StateSpaceExplosionError as error:
        return _failure(error)
    out = _execution(result)
    if trace is not None:
        out["trace"] = [[e.actor, e.tile, e.start, e.end] for e in trace]
    return out


def run_schedules(case: Dict[str, Any], graphs: Dict[str, Any]) -> Dict[str, Any]:
    bag = _RecordedBag(_sdf(case, graphs), case["tiles"], case["assignment"])
    try:
        schedules = build_static_order_schedules(
            bag, max_states=case["max_states"]  # type: ignore[arg-type]
        )
    except (SchedulingError, StateSpaceExplosionError) as error:
        return _failure(error)
    return {
        name: [list(schedule.transient), list(schedule.periodic)]
        for name, schedule in schedules.items()
    }


RUNNERS: Dict[str, Callable[[Dict[str, Any], Dict[str, Any]], Dict[str, Any]]] = {
    "self_timed": run_self_timed,
    "latency": run_latency,
    "csdf": run_csdf,
    "constrained": run_constrained,
    "schedules": run_schedules,
}


def resume_outcome(kind: str, result: Any) -> Dict[str, Any]:
    """What a resumed checkpoint must reproduce, per kind."""
    return _throughput(result) if kind == "state-space" else _execution(result)


# -- recording -------------------------------------------------------------
class _Corpus:
    def __init__(self) -> None:
        self.graphs: Dict[str, Any] = {}
        self.cases: Dict[str, List[Dict[str, Any]]] = {kind: [] for kind in RUNNERS}

    def graph(self, data: Dict[str, Any]) -> str:
        key = digest(data)[:16]
        self.graphs.setdefault(key, data)
        return key

    def sdf(self, graph: SDFGraph) -> Dict[str, Any]:
        """``graph`` as a shared base plus its own execution times.

        The §9.3 probes of one binding differ only in the alignment
        actors' times, so they share one stored graph.
        """
        data = graph_to_dict(graph)
        shape = dict(data, actors=[{"name": a["name"]} for a in data["actors"]])
        key = digest(shape)[:16]
        base = self.graphs.setdefault(key, data)
        times = {
            mine["name"]: mine["execution_time"]
            for mine, theirs in zip(data["actors"], base["actors"])
            if mine["execution_time"] != theirs["execution_time"]
        }
        return {"graph": key, "times": times}

    def add(self, kind: str, **case: Any) -> Dict[str, Any]:
        self.cases[kind].append(case)
        return case


@contextmanager
def _capture(corpus: _Corpus, source: str) -> Iterator[None]:
    """Record every constrained and list-scheduling call under ``source``."""
    scheduling_module = importlib.import_module("repro.core.scheduling")
    constrained_module = importlib.import_module("repro.throughput.constrained")

    def constrained_recorder(graph, tiles, max_states=2_000_000, **kwargs):
        corpus.add(
            "constrained",
            source=source,
            **corpus.sdf(graph),
            tiles=_tile_entries(list(tiles)),
            max_states=max_states,
        )
        return original_constrained(graph, tiles, max_states=max_states, **kwargs)

    def schedule_recorder(bag, slices=None, max_states=2_000_000, **kwargs):
        try:
            return original_schedules(
                bag, slices=slices, max_states=max_states, **kwargs
            )
        finally:
            used = bag.binding.used_tiles()
            corpus.add(
                "schedules",
                source=source,
                **corpus.sdf(bag.graph),
                tiles=[
                    [name, bag.architecture.tile(name).wheel, bag.slices[name]]
                    for name in used
                ],
                assignment=dict(bag.binding.assignment),
                max_states=max_states,
            )

    original_constrained = constrained_module.constrained_throughput
    original_schedules = scheduling_module.build_static_order_schedules
    patches = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original_constrained:
                patches.append((module, attr, value))
                setattr(module, attr, constrained_recorder)
            elif value is original_schedules:
                patches.append((module, attr, value))
                setattr(module, attr, schedule_recorder)
    try:
        yield
    finally:
        for module, attr, value in patches:
            setattr(module, attr, value)


def _timed_copy(base: SDFGraph, rng: random.Random) -> SDFGraph:
    graph = SDFGraph(base.name)
    for actor in base.actors:
        graph.add_actor(actor.name, rng.randint(0 if rng.random() < 0.1 else 1, 6))
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


def _record_flows(corpus: _Corpus) -> None:
    # imported here so every module that binds an engine by name is
    # loaded before _capture scans for import sites
    from repro.appmodel.example import (
        paper_example_application,
        paper_example_architecture,
    )
    from repro.arch.presets import benchmark_architectures, mesh_architecture
    from repro.arch.tile import ProcessorType
    from repro.core.flow import allocate_until_failure
    from repro.core.strategy import ResourceAllocator
    from repro.core.tile_cost import CostWeights
    from repro.exact.search import exact_search
    from repro.generate.benchmark import (
        BenchmarkSetProfile,
        generate_application,
        generate_benchmark_set,
    )

    with _capture(corpus, "fig5"):
        ResourceAllocator().allocate(
            paper_example_application(), paper_example_architecture()
        )
    fig5 = corpus.cases["constrained"][-1]
    corpus.add("constrained", **dict(fig5, source="fig5-trace", trace=True))

    architecture = benchmark_architectures()[0]
    applications = generate_benchmark_set(
        "mixed", 4, architecture.processor_types(), seed=0
    )
    with _capture(corpus, "flow-mixed-4"):
        allocate_until_failure(
            architecture, applications, weights=CostWeights.default()
        )

    types = [ProcessorType("p1"), ProcessorType("p2")]
    profile = BenchmarkSetProfile(
        name="small",
        structure=RandomSDFParameters(
            actors_min=2, actors_max=5, repetition_max=2, extra_channel_fraction=0.3
        ),
        execution_time=(1, 3),
        actor_memory=(5, 20),
        token_size=(1, 3),
        buffer_tokens=(1, 2),
        bandwidth=(8, 40),
        constraint_percent=(5, 25),
    )
    with _capture(corpus, "exact"):
        exact_search(paper_example_application(), paper_example_architecture())
        for seed in (3, 7):
            application = generate_application(
                profile, types, random.Random(seed), name=f"small-{seed}"
            )
            mesh = mesh_architecture(
                1,
                2,
                types,
                wheel=8,
                memory=4_000,
                max_connections=16,
                bandwidth_in=2_000,
                bandwidth_out=2_000,
            )
            exact_search(application, mesh, weights=CostWeights.default())


def _zero_times(case: Dict[str, Any], actors: List[str]) -> Dict[str, int]:
    """The ``times`` override of ``case`` with ``actors`` at time 0."""
    return dict(case["times"], **{actor: 0 for actor in actors})


def _auxiliary(
    case: Dict[str, Any], graphs: Dict[str, Any], prefixes: Tuple[str, ...]
) -> List[str]:
    """The actors of ``case``'s graph whose names start with ``prefixes``."""
    return [
        actor["name"]
        for actor in graphs[case["graph"]]["actors"]
        if actor["name"].startswith(prefixes)
    ]


def _record_zero_time(corpus: _Corpus) -> None:
    """Cases whose order of starts at one instant is observable.

    The constrained ones record a trace; :func:`record` keeps those up
    to :data:`TRACED_STATES` states.
    """
    graphs = corpus.graphs
    recorded = list(corpus.cases["constrained"])
    for case in recorded:
        if case.get("trace"):
            continue
        graph = _sdf(case, graphs)
        if any(actor.execution_time == 0 for actor in graph.actors):
            corpus.add(
                "constrained", **dict(case, source="zero-time-trace", trace=True)
            )
    firsts: Dict[str, Dict[str, Any]] = {}
    for case in recorded:
        firsts.setdefault(case["graph"], case)
    for case in firsts.values():
        auxiliary = _auxiliary(case, graphs, ("con", "syn:"))
        if auxiliary:
            corpus.add(
                "constrained",
                **dict(
                    case,
                    source="zero-aux-trace",
                    trace=True,
                    times=_zero_times(case, auxiliary),
                ),
            )
        # one bound actor at time 0: its tile starts it and the next
        # entry of the static order at the same instant
        first = case["tiles"][0]
        actor = (first["transient"] + first["periodic"])[0]
        corpus.add(
            "constrained",
            **dict(
                case,
                source="zero-bound-trace",
                trace=True,
                times=_zero_times(case, [actor]),
            ),
        )
    for case in list(corpus.cases["schedules"]):
        for source, prefixes in (("zero-con", ("con",)), ("zero-aux", ("con", "syn:"))):
            zero = _auxiliary(case, graphs, prefixes)
            corpus.add(
                "schedules", **dict(case, source=source, times=_zero_times(case, zero))
            )


def _record_rounds(corpus: _Corpus) -> None:
    """A graph whose trace shows the rounds of starts at one instant.

    When ``src`` completes, the zero-time ``f1`` enables the lower-index
    ``f0`` (next round) and ``b0`` on tile ``t0`` (this round); ``b0``
    enables ``c1`` on the higher tile ``t1`` (this round) and the
    unbound ``f2`` (next round).
    """
    graph = SDFGraph("zero-rounds")
    for actor in ("f0", "f1", "f2", "src", "b0", "c1"):
        graph.add_actor(actor, 5 if actor == "src" else 0)
    for src, dst, tokens in (
        ("src", "f1", 0),
        ("f1", "f0", 0),
        ("f1", "b0", 0),
        ("b0", "c1", 0),
        ("b0", "f2", 0),
        ("f0", "src", 1),
        ("f2", "src", 1),
        ("c1", "src", 1),
    ):
        graph.add_channel(f"{src}-{dst}", src, dst, 1, 1, tokens)
    stored = corpus.sdf(graph)
    for slice_size in (10, 4):
        tiles = [
            TileConstraints(name, 10, size, schedule=StaticOrderSchedule((actor,)))
            for name, actor, size in (
                ("t0", "b0", 10),
                ("t1", "c1", 10),
                ("t2", "src", slice_size),
            )
        ]
        corpus.add(
            "constrained",
            source="zero-rounds-trace",
            **stored,
            tiles=_tile_entries(tiles),
            max_states=1000,
            trace=True,
        )
    corpus.add(
        "schedules",
        source="zero-rounds",
        **stored,
        tiles=[["t0", 10, 5], ["t1", 10, 5], ["t2", 10, 4]],
        assignment={"b0": "t0", "c1": "t1", "src": "t2"},
        max_states=1000,
    )
    # under ready lists: when S completes, X joins t1's queue and t1
    # starts it in the same round; X's zero-time firing queues W on t2
    # one round before the chain f, g queues the lower-index V there, so
    # t2 runs W before V
    graph = SDFGraph("zero-rounds-ready")
    for actor, time in (("V", 1), ("W", 1), ("X", 0), ("g", 0), ("f", 0), ("S", 2)):
        graph.add_actor(actor, time)
    for src, dst, tokens in (
        ("S", "X", 0),
        ("S", "f", 0),
        ("f", "g", 0),
        ("g", "V", 0),
        ("X", "W", 0),
        ("V", "S", 1),
        ("W", "S", 1),
    ):
        graph.add_channel(f"{src}-{dst}", src, dst, 1, 1, tokens)
    corpus.add(
        "schedules",
        source="zero-rounds",
        **corpus.sdf(graph),
        tiles=[["t0", 10, 10], ["t1", 10, 10], ["t2", 10, 10]],
        assignment={"S": "t0", "X": "t1", "V": "t2", "W": "t2"},
        max_states=1000,
    )


def _recurrent_case(corpus: _Corpus) -> Dict[str, Any]:
    """The smallest constrained case whose recurrent state holds a gated
    tile firing whose remaining work differs from its time to completion."""
    from repro.throughput.kernel import gated_finish

    candidates = []
    for case in corpus.cases["constrained"]:
        out = case["out"]
        if (
            case["source"].startswith("zero-")
            or "error" in out
            or out["deadlocked"]
            or not 40 <= out["states"] <= 200
        ):
            continue
        result = constrained_throughput(
            _sdf(case, corpus.graphs),
            _tiles(case["tiles"]),
            max_states=case["max_states"],
        )
        at = result.transient_time
        for tile, firing in zip(case["tiles"], result.certificate["tile_active"]):
            if firing is None or tile["slice_size"] >= tile["wheel"]:
                continue
            end = gated_finish(
                at, firing[1], tile["wheel"], tile["slice_size"], tile["slice_start"]
            )
            if end - at != firing[1]:
                candidates.append(case)
                break
    return min(candidates, key=lambda case: case["out"]["states"])


def _record_checkpoints(corpus: _Corpus) -> List[Dict[str, Any]]:
    """Interrupt explorations and store their checkpoints: one per kind
    half-way, and one constrained run a state before its recurrence."""
    entries = []
    sdf = max(
        (
            case
            for case in corpus.cases["self_timed"]
            if case["auto_concurrency"] and "error" not in case["out"]["throughput"]
        ),
        key=lambda case: case["out"]["throughput"]["states"],
    )
    constrained = max(
        (
            case
            for case in corpus.cases["constrained"]
            if "error" not in case["out"] and case["out"]["states"] <= 120
        ),
        key=lambda case: case["out"]["states"],
    )
    recurrent = _recurrent_case(corpus)
    for kind, case, name in (
        ("state-space", sdf, CHECKPOINTS["state-space"]),
        ("constrained", constrained, CHECKPOINTS["constrained"]),
        ("constrained", recurrent, RECURRENT_CHECKPOINT),
    ):
        graph = _sdf(case, corpus.graphs)
        if kind == "state-space":
            states = case["out"]["throughput"]["states"]
            run = lambda budget: throughput(graph, budget=budget)  # noqa: E731
        else:
            states = case["out"]["states"]
            tiles = _tiles(case["tiles"])
            run = lambda budget: constrained_throughput(  # noqa: E731
                graph, tiles, max_states=case["max_states"], budget=budget
            )
        try:
            run(Budget(max_states=states - 1 if case is recurrent else states // 2))
        except BudgetExceededError as error:
            checkpoint = error.partial["checkpoint"]
        else:
            raise AssertionError(f"{kind}: budget did not interrupt the run")
        checkpoint["budget"]["elapsed"] = 0.0
        # a checkpoint file stays as the engine of its time wrote it:
        # later engines must still resume it
        if not (FIXTURES / name).exists():
            (FIXTURES / name).write_text(json.dumps(checkpoint) + "\n")
        entries.append(
            {"kind": kind, "file": name, "out": resume_outcome(kind, run(None))}
        )
    return entries


def record() -> Dict[str, Any]:
    corpus = _Corpus()
    parameters = RandomSDFParameters(actors_min=3, actors_max=9, repetition_max=3)
    for seed in range(24):
        rng = random.Random(seed)
        graph = _timed_copy(random_sdfg(parameters, rng, name=f"rand-{seed}"), rng)
        for concurrency in (True, False):
            corpus.add("self_timed", **corpus.sdf(graph), auto_concurrency=concurrency)

    from repro.generate.classic import modem, samplerate_converter, satellite_receiver
    from repro.generate.multimedia import h263_decoder

    for application in (
        samplerate_converter(),
        modem(),
        satellite_receiver(),
        h263_decoder(),
    ):
        graph = application.graph
        for concurrency in (True, False):
            corpus.add("self_timed", **corpus.sdf(graph), auto_concurrency=concurrency)
            if application.name != "h263":
                for output in (graph.actor_names[-1], graph.actor_names[0]):
                    corpus.add(
                        "latency",
                        **corpus.sdf(graph),
                        output=output,
                        auto_concurrency=concurrency,
                    )

    csdf_parameters = RandomSDFParameters(actors_min=3, actors_max=12, repetition_max=3)
    for seed in range(24):
        graph = random_csdf(
            random.Random(1000 + seed), csdf_parameters, max_phases=3, name=f"csdf-{seed}"
        )
        key = corpus.graph(csdf_to_dict(graph))
        for concurrency in (True, False):
            corpus.add("csdf", graph=key, auto_concurrency=concurrency)

    _record_flows(corpus)
    _record_zero_time(corpus)
    _record_rounds(corpus)
    for kind, cases in corpus.cases.items():
        for case in cases:
            case["out"] = RUNNERS[kind](case, corpus.graphs)
    corpus.cases["constrained"] = [
        case
        for case in corpus.cases["constrained"]
        if not case["source"].startswith("zero-")
        or case["out"].get("states", 0) <= TRACED_STATES
    ]
    checkpoints = _record_checkpoints(corpus)
    return {
        "format": "repro-engine-golden",
        "version": 1,
        "graphs": corpus.graphs,
        "cases": corpus.cases,
        "checkpoints": checkpoints,
    }


def main() -> int:
    golden = record()
    GOLDEN.write_text(json.dumps(golden, indent=None, sort_keys=True) + "\n")
    counts = {kind: len(cases) for kind, cases in golden["cases"].items()}
    print(f"wrote {GOLDEN.name}: {counts}, {len(golden['graphs'])} graphs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
