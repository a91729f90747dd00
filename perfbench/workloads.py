"""The four benchmark workloads.

Each workload has a ``setup(seed, size)`` that builds its inputs from
the seed alone, and a ``run_pass(inputs, check)`` that feeds them to
the program once and returns a :class:`PassResult`.  ``check=True``
runs the correctness gate on that pass's outputs (the harness does so
once per run, outside the timed passes); every other pass must
reproduce the checked pass's outcome ``fingerprint`` exactly.

Inputs where the cost of one item varies by orders of magnitude from
seed to seed (whole 12-application flows, exact searches) are drawn
from the pools in ``pools.json``: candidates the generators produce,
grouped by cost when the pools were built (see ``curate.py``), so each
seed picks different inputs of comparable total cost.
"""

from __future__ import annotations

import copy
import http.client
import json
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from math import gcd
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.appmodel.serialization import application_to_dict, bundle_to_dict
from repro.arch.presets import benchmark_architectures, mesh_architecture
from repro.arch.serialization import architecture_to_dict
from repro.arch.tile import ProcessorType
from repro.core.flow import allocate_until_failure
from repro.core.strategy import AllocationError, ResourceAllocator
from repro.core.tile_cost import CostWeights
from repro.csdf.random_csdf import random_csdf
from repro.csdf.throughput import csdf_throughput
from repro.exact import allocation_cost, exact_search
from repro.generate.benchmark import (
    BenchmarkSetProfile,
    generate_application,
    generate_benchmark_set,
)
from repro.generate.multimedia import h263_decoder
from repro.generate.random_sdf import RandomSDFParameters, random_sdfg
from repro.obs import get_metrics
from repro.sdf.repetition import repetition_vector
from repro.service.httpd import ServiceHTTPServer
from repro.service.service import AllocationService
from repro.throughput.reference import reference_throughput
from repro.throughput.state_space import throughput
from repro.verify import VERDICT_CERTIFIED, certify_allocation, certify_flow

HERE = os.path.dirname(os.path.abspath(__file__))

WEIGHTS = CostWeights.default()
TYPES = [ProcessorType("p1"), ProcessorType("p2")]

#: the small and heavy generator profiles of the greedy-vs-exact corpus
SMALL_PROFILE = BenchmarkSetProfile(
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
HEAVY_PROFILE = BenchmarkSetProfile(
    name="heavy",
    structure=RandomSDFParameters(
        actors_min=4, actors_max=5, repetition_max=3, extra_channel_fraction=0.5
    ),
    execution_time=(1, 4),
    actor_memory=(5, 20),
    token_size=(1, 3),
    buffer_tokens=(1, 2),
    bandwidth=(8, 40),
    constraint_percent=(5, 25),
)
PROFILES = {p.name: p for p in (SMALL_PROFILE, HEAVY_PROFILE)}

#: service jobs: small graphs with loose constraints, so every job is
#: feasible and ends certified
SERVICE_PROFILE = BenchmarkSetProfile(
    name="svc",
    structure=SMALL_PROFILE.structure,
    execution_time=(1, 3),
    actor_memory=(5, 20),
    token_size=(1, 3),
    buffer_tokens=(1, 2),
    bandwidth=(8, 40),
    constraint_percent=(2, 6),
)

SDF_PARAMETERS = RandomSDFParameters(
    actors_min=6, actors_max=12, repetition_max=4, extra_channel_fraction=0.8
)
CSDF_PARAMETERS = RandomSDFParameters(
    actors_min=15, actors_max=30, repetition_max=3
)
#: SDF graphs checked against the HSDF oracle: those whose unfolding
#: has at most this many actors (exact cycle enumeration stays cheap)
ORACLE_MAX_FIRINGS = 14

#: workload sizes; "tiny" is the self-test's
SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "flow_apps": 12,
        "exact_per_stratum": 2,
        "sdf_graphs": 300,
        "csdf_graphs": 300,
        "h263": 1,
        "cold_jobs": 12,
        "proc_jobs": 2,
        "burst_jobs": 36,
    },
    "tiny": {
        "flow_apps": 3,
        "exact_per_stratum": 1,
        "sdf_graphs": 6,
        "csdf_graphs": 6,
        "h263": 0,
        "cold_jobs": 2,
        "proc_jobs": 1,
        "burst_jobs": 3,
    },
}


@dataclass
class PassResult:
    """One pass over a workload's inputs."""

    #: items completed (applications, graphs, burst jobs)
    items: int
    #: the wall time the items took (s)
    window_s: float
    #: latency samples (s) per group; "item" is every workload's
    latencies: Dict[str, List[float]]
    #: outcome summary that every pass must reproduce exactly
    fingerprint: Any
    #: deterministic work counts taken from returned values
    counters: Dict[str, int]
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: histogram deltas per service phase (collected while metrics are on)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)


def _load_pools() -> Dict[str, Any]:
    with open(os.path.join(HERE, "pools.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _picker(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _mesh(cols: int):
    """A 1x2 or 1x3 mesh with a wheel of 8."""
    return mesh_architecture(
        1,
        cols,
        TYPES,
        wheel=8,
        memory=4_000,
        max_connections=16,
        bandwidth_in=2_000,
        bandwidth_out=2_000,
    )


# -- flow-mixed ----------------------------------------------------------
@dataclass
class FlowInputs:
    architecture: Any
    applications: List[Any]


def flow_setup(seed: int, size: Dict[str, int]) -> FlowInputs:
    flow_seed = _picker("flow-mixed", seed).choice(_load_pools()["flow-mixed"])
    architecture = benchmark_architectures()[0]
    applications = generate_benchmark_set(
        "mixed", size["flow_apps"], architecture.processor_types(), seed=flow_seed
    )
    return FlowInputs(architecture, applications)


def flow_pass(inputs: FlowInputs, check: bool) -> PassResult:
    architecture = inputs.architecture.copy()
    started = perf_counter()
    result = allocate_until_failure(
        architecture,
        inputs.applications,
        weights=WEIGHTS,
        continue_after_failure=True,
    )
    window = perf_counter() - started
    stats = result.application_stats
    failures = [
        f"{record['application']}: {record['outcome']}: {record['reason']}"
        for record in stats
        if record["outcome"] in ("error", "budget-exhausted")
    ]
    if check:
        # certify against the architecture as it was before the flow
        report = certify_flow(inputs.architecture, result)
        if not report.certified:
            failures.append(f"certify_flow refuted: {report.summary()}")
    return PassResult(
        items=len(stats),
        window_s=window,
        latencies={"item": [record["seconds"] for record in stats]},
        fingerprint=[
            (
                record["application"],
                record["outcome"],
                record["achieved_throughput"],
                record["tiles_used"],
                record["throughput_checks"],
            )
            for record in stats
        ],
        counters={
            "apps_bound": result.applications_bound,
            "slice_checks": result.total_throughput_checks,
        },
        attempted=len(stats),
        failures=failures,
    )


# -- exact-corpus --------------------------------------------------------
@dataclass
class ExactItem:
    application: Any
    cols: int


def exact_setup(seed: int, size: Dict[str, int]) -> List[ExactItem]:
    picker = _picker("exact-corpus", seed)
    items = []
    for stratum in _load_pools()["exact-corpus"]:
        for profile, app_seed in picker.sample(stratum, size["exact_per_stratum"]):
            application = generate_application(
                PROFILES[profile],
                TYPES,
                random.Random(app_seed),
                name=f"{profile}-{app_seed}",
            )
            items.append(ExactItem(application, 2 + app_seed % 2))
    picker.shuffle(items)
    return items


def exact_item(item: ExactItem) -> Tuple[Optional[Any], Any, float]:
    """Greedy then exact on fresh meshes; (greedy, exact, seconds)."""
    greedy_architecture = _mesh(item.cols)
    exact_architecture = _mesh(item.cols)
    started = perf_counter()
    try:
        greedy = ResourceAllocator(weights=WEIGHTS).allocate(
            item.application, greedy_architecture
        )
    except AllocationError:
        greedy = None
    exact = exact_search(item.application, exact_architecture, weights=WEIGHTS)
    return greedy, exact, perf_counter() - started


def exact_failures(item: ExactItem, greedy: Optional[Any], exact: Any) -> List[str]:
    """The greedy-vs-exact gate for one application."""
    name = item.application.name
    if not exact.feasible:
        return [f"{name}: greedy allocated, exact claims infeasible"] if greedy else []
    failures = []
    bundle = bundle_to_dict(_mesh(item.cols), [exact.allocation])
    report = certify_allocation(json.loads(json.dumps(bundle)))
    if not report.certified or report.verdicts[0].verdict != VERDICT_CERTIFIED:
        failures.append(f"{name}: exact allocation not certified")
    if greedy is not None:
        greedy_cost = allocation_cost(
            item.application,
            _mesh(item.cols),
            greedy.binding,
            greedy.scheduling.slices,
            WEIGHTS,
        )
        if exact.cost > greedy_cost:
            failures.append(
                f"{name}: exact cost {exact.cost} > greedy cost {greedy_cost}"
            )
    return failures


def exact_pass(items: List[ExactItem], check: bool) -> PassResult:
    latencies: List[float] = []
    fingerprint = []
    failures: List[str] = []
    nodes = checks = 0
    started = perf_counter()
    for item in items:
        greedy, exact, seconds = exact_item(item)
        latencies.append(seconds)
        nodes += exact.nodes_explored
        checks += greedy.throughput_checks if greedy else 0
        fingerprint.append(
            (
                item.application.name,
                greedy is not None and str(greedy.achieved_throughput),
                str(exact.cost),
                exact.nodes_explored,
            )
        )
        if check:
            failures.extend(exact_failures(item, greedy, exact))
    return PassResult(
        items=len(items),
        window_s=perf_counter() - started,
        latencies={"item": latencies},
        fingerprint=fingerprint,
        counters={"exact_nodes": nodes, "slice_checks": checks},
        attempted=len(items),
        failures=failures,
    )


# -- analysis-corpus -----------------------------------------------------
@dataclass
class AnalysisInputs:
    sdf: List[Any]
    csdf: List[Any]
    h263: List[Any]


def strongly_connected_sdfg(rng: random.Random, name: str):
    """A random consistent, live SDFG closed into one strong component.

    :func:`random_sdfg` builds a spanning tree rooted at ``a0`` plus
    random extra channels; every actor that cannot reach ``a0`` gets a
    back channel to its tree parent carrying one iteration's tokens,
    which keeps the graph live.
    """
    graph = random_sdfg(SDF_PARAMETERS, rng, name=name)
    for actor in graph.actors:
        actor.execution_time = rng.randint(1, 8)
    gamma = repetition_vector(graph)
    channels = list(graph.channels)
    reaches = {"a0"}
    changed = True
    while changed:
        changed = False
        for channel in channels:
            if channel.dst in reaches and channel.src not in reaches:
                reaches.add(channel.src)
                changed = True
    for index, tree_edge in enumerate(channels[: len(graph.actors) - 1]):
        child, parent = tree_edge.dst, tree_edge.src
        if child in reaches:
            continue
        g = gcd(gamma[child], gamma[parent])
        consumption = gamma[child] // g
        graph.add_channel(
            f"back{index}",
            child,
            parent,
            gamma[parent] // g,
            consumption,
            consumption * gamma[parent],
        )
        reaches.add(child)
    return graph


def analysis_setup(seed: int, size: Dict[str, int]) -> AnalysisInputs:
    rng = _picker("analysis-corpus", seed)
    sdf = [
        strongly_connected_sdfg(random.Random(rng.randrange(2**32)), f"sdf{i}")
        for i in range(size["sdf_graphs"])
    ]
    csdf = [
        random_csdf(
            random.Random(rng.randrange(2**32)),
            CSDF_PARAMETERS,
            max_phases=3,
            name=f"csdf{i}",
        )
        for i in range(size["csdf_graphs"])
    ]
    h263 = [h263_decoder().graph for _ in range(size["h263"])]
    return AnalysisInputs(sdf, csdf, h263)


def analysis_pass(inputs: AnalysisInputs, check: bool) -> PassResult:
    latencies: List[float] = []
    rates: List[str] = []
    counters = {"sdf_states": 0, "csdf_states": 0}
    results = []
    started = perf_counter()
    for engine, graphs, key in (
        (throughput, inputs.sdf, "sdf_states"),
        (csdf_throughput, inputs.csdf, "csdf_states"),
        (throughput, inputs.h263, "sdf_states"),
    ):
        for graph in graphs:
            item_started = perf_counter()
            result = engine(graph)
            latencies.append(perf_counter() - item_started)
            counters[key] += result.states_explored
            rates.append(str(result.iteration_rate))
            results.append(result)
    window = perf_counter() - started
    failures: List[str] = []
    if check:
        for graph, result in zip(inputs.sdf, results):
            if sum(repetition_vector(graph).values()) > ORACLE_MAX_FIRINGS:
                continue
            expected = reference_throughput(graph, limit=None)
            if result.iteration_rate != expected:
                failures.append(
                    f"{graph.name}: state space {result.iteration_rate} != "
                    f"HSDF oracle {expected}"
                )
    return PassResult(
        items=len(latencies),
        window_s=window,
        latencies={"item": latencies},
        fingerprint=rates,
        counters=counters,
        attempted=len(latencies),
        failures=failures,
    )


# -- service-mix ---------------------------------------------------------
@dataclass
class ServiceInputs:
    architecture: Dict[str, Any]
    cold: List[Dict[str, Any]]
    hits: List[Dict[str, Any]]
    proc: List[Dict[str, Any]]
    burst: List[Dict[str, Any]]
    workdir: str


def rename_isomorphic(application: Dict[str, Any], rng: random.Random, prefix: str):
    """A consistently renamed application dict (same canonical form)."""
    actors = [a["name"] for a in application["graph"]["actors"]]
    channels = [c["name"] for c in application["graph"]["channels"]]
    rng.shuffle(actors)
    rng.shuffle(channels)
    actor_map = {name: f"{prefix}_a{i}" for i, name in enumerate(actors)}
    channel_map = {name: f"{prefix}_c{i}" for i, name in enumerate(channels)}
    renamed = copy.deepcopy(application)
    renamed["name"] = f"{prefix}-{application['name']}"
    renamed["graph"]["actors"] = [
        {**a, "name": actor_map[a["name"]]} for a in application["graph"]["actors"]
    ]
    renamed["graph"]["channels"] = [
        {
            **c,
            "name": channel_map[c["name"]],
            "src": actor_map[c["src"]],
            "dst": actor_map[c["dst"]],
        }
        for c in application["graph"]["channels"]
    ]
    renamed["actors"] = {actor_map[k]: v for k, v in application["actors"].items()}
    renamed["channels"] = {
        channel_map[k]: v for k, v in application.get("channels", {}).items()
    }
    renamed["output_actor"] = actor_map[application["output_actor"]]
    return renamed


def service_setup(seed: int, size: Dict[str, int], workdir: str) -> ServiceInputs:
    rng = _picker("service-mix", seed)

    def fresh(count: int, tag: str) -> List[Dict[str, Any]]:
        return [
            application_to_dict(
                generate_application(
                    SERVICE_PROFILE,
                    TYPES,
                    random.Random(rng.randrange(2**32)),
                    name=f"{tag}{i}",
                )
            )
            for i in range(count)
        ]

    cold = fresh(size["cold_jobs"], "cold")
    proc = fresh(size["proc_jobs"], "proc")
    hits = [rename_isomorphic(app, rng, f"hit{i}") for i, app in enumerate(cold)]
    burst = [
        rename_isomorphic(cold[i % len(cold)], rng, f"burst{i}")
        for i in range(size["burst_jobs"])
    ]
    return ServiceInputs(
        architecture_to_dict(_mesh(2)), cold, hits, proc, burst, workdir
    )


class _Daemon:
    """An in-process service behind its HTTP front end on 127.0.0.1."""

    def __init__(self, spool: str, isolation: str) -> None:
        self.service = AllocationService(spool, workers=2, isolation=isolation)
        self.service.start()
        self.server = ServiceHTTPServer(("127.0.0.1", 0), self.service)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self.thread.start()
        self.port = self.server.server_address[1]

    def request(self, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
        """One request on a fresh connection, as ``repro-alloc submit`` does."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            connection.close()

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.service.drain()


#: seconds between polls of the job list
POLL_INTERVAL = 0.002
TERMINAL = ("certified", "degraded", "failed", "quarantined")


class _Client:
    """Submits and polls over HTTP; records latencies and failures.

    Polling reads the job summary list (``GET /jobs``), which stays
    small; a terminal job's full record is fetched once afterwards, for
    the correctness gate, outside its latency.
    """

    def __init__(self, architecture: Dict[str, Any]) -> None:
        self.architecture = architecture
        self.failures: List[str] = []
        self.records: List[Tuple[str, Dict[str, Any]]] = []

    def submit(self, daemon: _Daemon, application: Dict[str, Any]) -> Optional[str]:
        status, body = daemon.request(
            "POST",
            "/jobs",
            {"application": application, "architecture": self.architecture},
        )
        if status != 202:
            self.failures.append(f"submit {application['name']}: HTTP {status}")
            return None
        return body["id"]

    def wait(self, daemon: _Daemon, job_ids: List[str], phase: str) -> Dict[str, float]:
        """Poll until every job is terminal; perf-clock instant each was seen."""
        seen: Dict[str, float] = {}
        deadline = perf_counter() + 120
        while len(seen) < len(job_ids) and perf_counter() < deadline:
            status, body = daemon.request("GET", "/jobs")
            now = perf_counter()
            if status != 200:
                self.failures.append(f"{phase}: GET /jobs returned HTTP {status}")
                break
            for job in body["jobs"]:
                if job["id"] in job_ids and job["state"] in TERMINAL:
                    seen.setdefault(job["id"], now)
            if len(seen) < len(job_ids):
                time.sleep(POLL_INTERVAL)
        for job_id in job_ids:
            if job_id not in seen:
                self.failures.append(f"{phase} {job_id}: not terminal after 120 s")
                continue
            status, record = daemon.request("GET", f"/jobs/{job_id}")
            if status != 200:
                self.failures.append(f"{phase} {job_id}: HTTP {status}")
            else:
                self.records.append((phase, record))
        return seen

    def closed_loop(
        self, daemon: _Daemon, applications: List[Dict[str, Any]], phase: str
    ) -> List[float]:
        latencies = []
        for application in applications:
            started = perf_counter()
            job_id = self.submit(daemon, application)
            if job_id is not None:
                seen = self.wait(daemon, [job_id], phase)
                if job_id in seen:
                    latencies.append(seen[job_id] - started)
        return latencies


def _job_failures(phase: str, record: Dict[str, Any]) -> List[str]:
    problems = []
    if record["state"] != "certified" or record.get("verdict") != VERDICT_CERTIFIED:
        problems.append(
            f"state {record['state']}, verdict {record.get('verdict')}: "
            f"{record.get('reason')}"
        )
    if phase in ("hit", "burst") and record.get("source") != "cache":
        problems.append(f"source {record.get('source')}, expected cache")
    if phase == "proc":
        verdict = record.get("sandbox_verdict") or {}
        if verdict.get("kind") != "completed":
            problems.append(f"sandbox verdict {verdict.get('kind')}")
    return [f"{phase} {record['id']}: {problem}" for problem in problems]


def _histograms() -> Dict[str, Dict[str, Any]]:
    metrics = get_metrics()
    return metrics.snapshot()["histograms"] if metrics.enabled else {}


def _delta(
    before: Dict[str, Dict[str, Any]], after: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Per-histogram bucket counts recorded between two snapshots."""
    delta = {}
    for name, data in after.items():
        old = before.get(name, {}).get("counts") or [0] * len(data["counts"])
        delta[name] = {
            "buckets": data["buckets"],
            "counts": [new - was for new, was in zip(data["counts"], old)],
        }
    return delta


def service_pass(inputs: ServiceInputs, check: bool) -> PassResult:
    run_dir = os.path.join(inputs.workdir, "spool")
    shutil.rmtree(run_dir, ignore_errors=True)
    client = _Client(inputs.architecture)
    latencies: Dict[str, List[float]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    threaded = _Daemon(os.path.join(run_dir, "thread"), "thread")
    try:
        mark = _histograms()
        latencies["cold"] = client.closed_loop(threaded, inputs.cold, "cold")
        histograms["cold"] = _delta(mark, _histograms())
        latencies["hit"] = client.closed_loop(threaded, inputs.hits, "hit")
        mark = _histograms()
        sandboxed = _Daemon(os.path.join(run_dir, "process"), "process")
        try:
            latencies["proc"] = client.closed_loop(sandboxed, inputs.proc, "proc")
        finally:
            sandboxed.close()
        histograms["proc"] = _delta(mark, _histograms())
        # burst: back-to-back submissions build a queue, then drain it
        mark = _histograms()
        started = perf_counter()
        submitted = [
            (perf_counter(), client.submit(threaded, application))
            for application in inputs.burst
        ]
        seen = client.wait(
            threaded, [job_id for _, job_id in submitted if job_id], "burst"
        )
        latencies["item"] = [
            seen[job_id] - submitted_at
            for submitted_at, job_id in submitted
            if job_id in seen
        ]
        window = max(seen.values(), default=perf_counter()) - started
        histograms["burst"] = _delta(mark, _histograms())
    finally:
        threaded.close()
    shutil.rmtree(run_dir, ignore_errors=True)
    failures = list(client.failures)
    for phase, record in client.records:
        failures.extend(_job_failures(phase, record))
    jobs = len(inputs.cold) + len(inputs.hits) + len(inputs.proc) + len(inputs.burst)
    return PassResult(
        items=len(latencies["item"]),
        window_s=window,
        latencies=latencies,
        fingerprint=[
            (phase, record["state"], record.get("source"), record.get("rung"))
            for phase, record in client.records
        ],
        counters={
            "cache_hits": sum(
                1 for _, record in client.records if record.get("source") == "cache"
            ),
        },
        attempted=jobs,
        failures=failures,
        histograms=histograms,
    )


@dataclass(frozen=True)
class Workload:
    """``setup(seed, size, workdir)`` and ``run_pass(inputs, check)``."""

    setup: Callable[[int, Dict[str, int], str], Any]
    run_pass: Callable[[Any, bool], PassResult]


#: why each workload exists is recorded in BENCHMARK.json
WORKLOADS: Dict[str, Workload] = {
    "flow-mixed": Workload(lambda seed, size, workdir: flow_setup(seed, size), flow_pass),
    "exact-corpus": Workload(
        lambda seed, size, workdir: exact_setup(seed, size), exact_pass
    ),
    "analysis-corpus": Workload(
        lambda seed, size, workdir: analysis_setup(seed, size), analysis_pass
    ),
    "service-mix": Workload(service_setup, service_pass),
}
