"""Command-line interface: ``repro-alloc``.

Sub-commands::

    repro-alloc analyse GRAPH.json            # throughput of an SDFG
    repro-alloc generate --set mixed -n 5     # emit benchmark graphs
    repro-alloc allocate --set processing ... # run the full flow
    repro-alloc example                       # the paper's running example
    repro-alloc profile GRAPH.json            # instrumented run + JSON report
    repro-alloc verify BUNDLE.json            # certify a saved allocation
    repro-alloc bench --out BENCH.json        # curated perf workloads
    repro-alloc bench --compare OLD.json      # regression check
    repro-alloc lint MODEL.json ...           # static diagnostics (SARIF)
    repro-alloc serve --spool DIR             # allocation-as-a-service daemon
    repro-alloc submit APP.json ARCH.json     # job submission client
    repro-alloc status --spool DIR            # live one-screen service view

Every sub-command but ``profile`` and ``bench`` accepts ``--metrics
PATH`` to dump the observability snapshot (see
``docs/OBSERVABILITY.md``) collected during the run, and ``--trace
PATH`` to record event-level tracing as a Chrome/Perfetto trace file
(``profile`` takes ``--trace`` too).  Both are written even when the
run fails, so a budget-exhausted run still leaves its evidence behind.
The commands that run a budgeted search (``analyse``, ``allocate``,
``allocate-file``, ``example``, ``profile``, ``serve``, ``submit``)
take ``--deadline`` / ``--max-states``; ``analyse`` and ``allocate``
also take ``--checkpoint PATH`` / ``--resume PATH`` to persist and
continue interrupted runs (see ``docs/VERIFICATION.md``).
Graphs are exchanged in the JSON dialect of
:mod:`repro.sdf.serialization`.

Exit codes (see ``docs/ROBUSTNESS.md``): 0 success, 2 user error
(missing file, malformed input, infeasible allocation — one-line
diagnostic on stderr), 3 resource budget exhausted (``--deadline`` /
``--max-states`` hit, or the state space exploded), 4 verification
refuted an allocation (``verify``), 5 benchmark regression detected
(``bench --compare``), 6 lint found error-severity diagnostics
(``lint``; see ``docs/ANALYSIS.md``), 7 the allocation service
rejected a submission because its bounded queue is full (``submit``;
see ``docs/SERVICE.md``).  ``--debug`` re-raises the underlying
exception with its full traceback instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from typing import TYPE_CHECKING, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.analysis import AnalysisReport
    from repro.arch.architecture import ArchitectureGraph

from repro.arch.presets import benchmark_architectures
from repro.core.flow import allocate_until_failure
from repro.core.strategy import BACKENDS, AllocationError, ResourceAllocator
from repro.core.tile_cost import CostWeights
from repro.csdf.graph import CSDFGraph
from repro.csdf.serialization import csdf_from_dict, is_csdf_document
from repro.durable import write_atomic
from repro.exitcodes import HTTP_EXIT_MAP
from repro.generate.benchmark import generate_benchmark_set
from repro.obs import (
    collecting,
    format_summary,
    to_json,
    tracing,
    write_chrome_trace,
)
from repro.resilience.budget import Budget, BudgetExceededError
from repro.sdf.graph import SDFGraph
from repro.sdf.serialization import (
    SerializationError,
    graph_from_dict,
    graph_to_dict,
)
from repro.throughput.state_space import (
    StateSpaceExplosionError,
    throughput,
)


def _read_graph(path: str) -> Union[SDFGraph, CSDFGraph]:
    """The SDF or CSDF graph document at ``path``, told apart as
    ``lint`` does."""
    with open(path) as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(
            f"invalid JSON: {error}", source=path
        ) from error
    if isinstance(document, dict) and is_csdf_document(document):
        return csdf_from_dict(document, source=path)
    return graph_from_dict(document, source=path)


def _cmd_analyse(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph)
    if args.resume:
        from repro.resilience.checkpoint import (
            read_checkpoint,
            resume_from_checkpoint,
        )

        data = read_checkpoint(args.resume)
        if data.get("kind") != "state-space":
            raise ValueError(
                f"cannot resume a {data.get('kind')!r} checkpoint with "
                "'analyse' (expected a state-space checkpoint)"
            )
        result = resume_from_checkpoint(data, budget=args.budget)
    else:
        result = throughput(
            graph,
            auto_concurrency=not args.no_auto_concurrency,
            budget=args.budget,
        )
    print(f"graph: {graph.name}")
    print(f"actors: {len(graph)}  channels: {len(graph.channels)}")
    print(f"iteration rate: {result.iteration_rate}")
    for actor in graph.actor_names:
        print(f"  throughput({actor}) = {result.of(actor)}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    architecture = benchmark_architectures()[0]
    applications = generate_benchmark_set(
        args.set, args.count, architecture.processor_types(), seed=args.seed
    )
    payload = [graph_to_dict(app.graph) for app in applications]
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    architecture = benchmark_architectures()[args.architecture]
    applications = generate_benchmark_set(
        args.set, args.count, architecture.processor_types(), seed=args.seed
    )
    weights = CostWeights(*args.weights)
    allocator = ResourceAllocator(weights=weights, backend=args.backend)
    pre_flow = None
    if args.save_allocation:
        from repro.arch.serialization import (
            architecture_from_dict,
            architecture_to_dict,
        )

        pre_flow = architecture_from_dict(architecture_to_dict(architecture))
    result = allocate_until_failure(
        architecture,
        applications,
        allocator=allocator,
        budget=args.budget,
        degrade=args.degrade,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    if args.save_allocation:
        from repro.appmodel.serialization import bundle_to_json

        write_atomic(
            args.save_allocation,
            bundle_to_json(pre_flow, result.allocations, rungs=result.rungs),
        )
        print(f"allocation bundle written to {args.save_allocation}")
    print(f"architecture: {architecture.name}")
    print(f"cost weights: {weights}")
    print(f"applications bound: {result.applications_bound}")
    if result.degraded_applications:
        print(f"degraded allocations: {result.degraded_applications}")
    print(f"throughput checks: {result.total_throughput_checks}")
    for key, value in result.utilisation().items():
        print(f"  {key}: {value:.2f}")
    if result.failed_application:
        print(f"stopped at: {result.failed_application}")
    exhausted = [
        record
        for record in result.application_stats
        if record["outcome"] == "budget-exhausted"
    ]
    if exhausted:
        print(
            f"budget exhausted at: {exhausted[0]['application']} "
            "(re-run with --degrade for a conservative fallback)",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_allocate_file(args: argparse.Namespace) -> int:
    from repro.appmodel.serialization import application_from_json
    from repro.arch.serialization import (
        architecture_from_json,
        architecture_to_json,
    )

    with open(args.application) as handle:
        application = application_from_json(
            handle.read(), source=args.application
        )
    with open(args.architecture) as handle:
        architecture = architecture_from_json(
            handle.read(), source=args.architecture
        )
    allocator = ResourceAllocator(
        weights=CostWeights(*args.weights), backend=args.backend
    )
    allocation = allocator.allocate(
        application, architecture, budget=args.budget
    )
    print(f"application: {application.name}")
    print("binding:")
    for actor, tile in allocation.binding.assignment.items():
        print(f"  {actor} -> {tile}")
    print("slices:", allocation.scheduling.slices)
    print(
        f"guaranteed throughput: {allocation.achieved_throughput} "
        f"(constraint {application.throughput_constraint})"
    )
    if args.commit:
        allocation.reservation.commit(architecture)
        # serialise before touching the file, and replace it whole: an
        # interrupt never leaves the user's architecture truncated
        write_atomic(args.architecture, architecture_to_json(architecture))
        print(f"occupancy committed back to {args.architecture}")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.extensions.dot import sdfg_to_dot

    graph = _read_graph(args.graph)
    if isinstance(graph, CSDFGraph):
        raise SerializationError(
            "dot draws SDF graphs only, and this is a CSDF document",
            source=args.graph,
        )
    print(sdfg_to_dot(graph))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.appmodel.example import paper_example
    from repro.extensions.tracing import render_gantt, trace_allocation

    application, architecture, _ = paper_example()
    allocator = ResourceAllocator(weights=CostWeights(*args.weights))
    allocation = allocator.allocate(application, architecture)
    events = trace_allocation(allocation, architecture)
    print(render_gantt(events, width=args.width))
    if args.vcd:
        from repro.extensions.vcd import write_vcd

        write_vcd(events, args.vcd)
        print(f"VCD waveform written to {args.vcd}")
    return 0


def _cmd_dimension(args: argparse.Namespace) -> int:
    from repro.extensions.dimensioning import dimension_platform

    template = benchmark_architectures()[0]
    applications = generate_benchmark_set(
        args.set, args.count, template.processor_types(), seed=args.seed
    )
    result = dimension_platform(
        applications, template.processor_types(), max_tiles=args.max_tiles
    )
    for rows, cols, bound in result.attempts:
        print(f"  {rows}x{cols}: {bound}/{len(applications)} bound")
    if result.found:
        print(f"smallest sufficient platform: {result.architecture.name}")
    else:
        print(f"no mesh up to {args.max_tiles} tiles suffices")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one workload with instrumentation on; emit a JSON report."""
    with collecting() as metrics:
        if args.graph:
            graph = _read_graph(args.graph)
            result = throughput(graph, budget=args.budget)
            summary = {
                "mode": "analyse",
                "graph": graph.name,
                "actors": len(graph),
                "channels": len(graph.channels),
                "iteration_rate": str(result.iteration_rate),
                "states_explored": result.states_explored,
            }
        elif args.flow:
            architecture = benchmark_architectures()[args.architecture]
            applications = generate_benchmark_set(
                args.set,
                args.count,
                architecture.processor_types(),
                seed=args.seed,
            )
            flow = allocate_until_failure(
                architecture,
                applications,
                weights=CostWeights(*args.weights),
                budget=args.budget,
            )
            summary = {
                "mode": "flow",
                "architecture": architecture.name,
                "applications_bound": flow.applications_bound,
                "throughput_checks": flow.total_throughput_checks,
                "failed_application": flow.failed_application,
                "applications": flow.application_stats,
            }
        else:
            from repro.appmodel.example import paper_example

            application, architecture, _ = paper_example()
            allocator = ResourceAllocator(weights=CostWeights(*args.weights))
            allocation = allocator.allocate(
                application, architecture, budget=args.budget
            )
            summary = {
                "mode": "example",
                "application": application.name,
                "achieved_throughput": str(allocation.achieved_throughput),
                "throughput_checks": allocation.throughput_checks,
            }
        snapshot = metrics.snapshot()
    report = {"result": summary, "metrics": snapshot}
    if args.out:
        write_atomic(args.out, to_json(report) + "\n")
        print(f"metrics report written to {args.out}")
    if args.summary:
        print(format_summary(snapshot))
    elif not args.out:
        print(to_json(report))
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    from repro.appmodel.example import paper_example

    application, architecture, _ = paper_example()
    allocator = ResourceAllocator(
        weights=CostWeights(*args.weights), backend=args.backend
    )
    allocation = allocator.allocate(
        application, architecture, budget=args.budget
    )
    if args.save_allocation:
        from repro.appmodel.serialization import bundle_to_json

        write_atomic(
            args.save_allocation, bundle_to_json(architecture, [allocation])
        )
        print(f"allocation bundle written to {args.save_allocation}")
    print("binding:")
    for actor, tile in sorted(allocation.binding.assignment.items()):
        print(f"  {actor} -> {tile}")
    print("schedules:")
    for tile, schedule in allocation.scheduling.schedules.items():
        transient = " ".join(schedule.transient)
        periodic = " ".join(schedule.periodic)
        print(f"  {tile}: {transient} ({periodic})*")
    print("slices:", allocation.scheduling.slices)
    print(
        f"throughput: {allocation.achieved_throughput} "
        f"(constraint {application.throughput_constraint})"
    )
    print(f"throughput checks: {allocation.throughput_checks}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the curated benchmark workloads; optionally compare reports."""
    from repro.bench import compare_reports, run_bench
    from repro.obs.report import read_report, write_report

    report = run_bench(args.label, fast=not args.full, seed=args.seed)
    out = args.out or f"BENCH_{args.label}.json"
    write_report(out, report)
    print(f"bench report written to {out}")
    for workload in report["workloads"]:
        print(
            f"  {workload['name']}: {workload['wall_seconds']:.3f}s, "
            f"{workload['states_explored']} states, "
            f"{workload['throughput_checks']} throughput checks"
        )
    if not args.compare:
        return 0
    baseline = read_report(args.compare)
    outcome = compare_reports(
        baseline,
        report,
        max_time_ratio=args.max_time_ratio,
        strict_time=args.strict_time,
    )
    for warning in outcome.warnings:
        print(f"bench warning: {warning}", file=sys.stderr)
    if not outcome.ok:
        for regression in outcome.regressions:
            print(f"bench regression: {regression}", file=sys.stderr)
        print(
            f"repro-alloc: {len(outcome.regressions)} benchmark "
            f"regression(s) against {args.compare}",
            file=sys.stderr,
        )
        return 5
    print(f"no regressions against {args.compare}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.appmodel.serialization import bundle_from_json
    from repro.verify import certify_allocation

    with open(args.bundle) as handle:
        bundle = bundle_from_json(handle.read(), source=args.bundle)
    report = certify_allocation(bundle)
    summary = report.summary()
    if summary:
        print(summary)
    else:
        print("bundle contains no allocations")
    if not report.certified:
        print(
            f"repro-alloc: refuted {len(report.refuted)} allocation(s)",
            file=sys.stderr,
        )
        return 4
    return 0


def _lint_document(
    text: str, path: str, architecture: "Optional[ArchitectureGraph]"
) -> "AnalysisReport":
    """Sniff one JSON document's kind and run the matching rules.

    Recognises, in order: a list (linted element-wise, the shape
    ``generate`` emits), an allocation bundle (``format`` envelope), an
    application (``graph`` key), an architecture (``tiles`` key), a
    CSDF graph (phase-sequence rates), and plain SDF graphs otherwise.
    """
    from repro.analysis import (
        AnalysisReport,
        analyse_application,
        analyse_bundle,
        analyse_csdf,
        analyse_graph,
    )
    from repro.appmodel.serialization import (
        BUNDLE_FORMAT,
        application_from_dict,
        bundle_from_dict,
    )
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}", source=path)

    def lint_one(document: object) -> AnalysisReport:
        if isinstance(document, list):
            report = AnalysisReport()
            for entry in document:
                report.extend(lint_one(entry))
            return report
        if not isinstance(document, dict):
            raise SerializationError(
                f"expected a JSON object, got {type(document).__name__}",
                source=path,
            )
        if document.get("format") == BUNDLE_FORMAT:
            return analyse_bundle(bundle_from_dict(document, source=path),
                                  source=path)
        if "graph" in document:
            graph = graph_from_dict(document["graph"], source=path)
            graph_report = analyse_graph(graph)
            try:
                application = application_from_dict(document, source=path)
            except SerializationError:
                raise
            except (KeyError, ValueError):
                # the application cannot even be constructed; the graph
                # findings explain why (inconsistent, invalid, ...)
                if graph_report.has_errors:
                    return graph_report
                raise
            return analyse_application(application, architecture)
        if "tiles" in document:
            from repro.analysis import analyse_architecture
            from repro.arch.serialization import architecture_from_dict

            return analyse_architecture(
                architecture_from_dict(document, source=path)
            )
        if is_csdf_document(document):
            return analyse_csdf(csdf_from_dict(document, source=path))
        return analyse_graph(graph_from_dict(document, source=path))

    return lint_one(data)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import AnalysisReport, analyse_architecture, to_sarif
    from repro.obs import get_metrics

    architecture = None
    if args.architecture:
        from repro.arch.serialization import architecture_from_json

        with open(args.architecture) as handle:
            architecture = architecture_from_json(
                handle.read(), source=args.architecture
            )
    if not args.inputs and not args.source:
        raise ValueError(
            "nothing to lint: pass model files and/or --source"
        )
    report = AnalysisReport()
    source_files = 0
    if args.source:
        from repro.analysis.source import analyse_source, default_source_paths

        source_paths = default_source_paths()
        source_files = len(source_paths)
        report.extend(analyse_source(source_paths))
    if architecture is not None:
        report.extend(analyse_architecture(architecture))
    for path in args.inputs:
        with open(path) as handle:
            report.extend(_lint_document(handle.read(), path, architecture))
    if args.select:
        report = report.select(args.select)
    if args.ignore:
        report = report.ignore(args.ignore)
    if args.update_baseline:
        if not args.baseline:
            raise ValueError("--update-baseline requires --baseline PATH")
        document = {
            "format": "repro-lint-baseline",
            "version": 1,
            "fingerprints": sorted({d.fingerprint for d in report}),
        }
        write_atomic(args.baseline, json.dumps(document, indent=2) + "\n")
        print(
            f"baseline with {len(report)} finding(s) written to "
            f"{args.baseline}"
        )
        return 0
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        if baseline.get("format") != "repro-lint-baseline":
            raise ValueError(
                f"{args.baseline} is not a repro lint baseline file"
            )
        report = report.without(baseline.get("fingerprints", []))
    obs = get_metrics()
    if obs.enabled:
        obs.counter("lint.files", len(args.inputs))
        obs.counter("lint.findings", len(report))
        if args.source:
            obs.counter("lint.source.files", source_files)
            obs.counter(
                "lint.source.findings",
                sum(1 for d in report if d.rule_id.startswith("CON")),
            )
    if args.format == "sarif":
        rendered = json.dumps(to_sarif(report), indent=2)
    elif args.format == "json":
        rendered = json.dumps(report.to_dict(), indent=2)
    else:
        rendered = report.render_text()
    if args.out:
        write_atomic(args.out, rendered + "\n")
        print(f"lint report written to {args.out}")
    else:
        print(rendered)
    if report.has_errors:
        print(
            f"repro-alloc: lint found {len(report.errors)} error(s)",
            file=sys.stderr,
        )
        return 6
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal

    from repro.obs.log import configure_logging
    from repro.obs.metrics import Metrics, enable, get_metrics
    from repro.obs.trace import TraceBuffer, enable_trace, get_trace
    from repro.service import AllocationService, RetryPolicy
    from repro.service.httpd import ServiceHTTPServer

    # The daemon's telemetry plane is always on: /metrics scrapes the
    # process-wide registry and /jobs/<id>/trace needs the trace ring.
    # --metrics/--trace (handled in main()) may already have enabled
    # them; don't clobber those registries.
    if not get_metrics().enabled:
        enable(Metrics())
    if not get_trace().enabled:
        enable_trace(TraceBuffer())
    if not args.no_log:
        configure_logging(
            args.log if args.log else sys.stderr, level=args.log_level
        )

    # a stale endpoint.json (a previous daemon was SIGKILLed before it
    # could clean up) must never advertise a dead address: remove it
    # before binding, re-announce once we actually listen
    endpoint_path = os.path.join(args.spool, "endpoint.json")
    try:
        os.unlink(endpoint_path)
    except OSError:
        pass
    service = AllocationService(
        args.spool,
        workers=args.workers,
        max_queue_depth=args.max_queue,
        retry=RetryPolicy(max_attempts=args.max_attempts),
        backend=args.backend,
        deadline=args.deadline,
        max_states=args.max_states,
        isolation=args.isolation,
        memory_mb=args.memory_mb,
        cpu_seconds=args.cpu_seconds,
        stall_timeout=args.stall_timeout,
    ).start()
    server = ServiceHTTPServer((args.host, args.port), service)
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    # announce the bound endpoint (port 0 binds ephemerally) where
    # clients and tests can discover it: atomic, like everything else
    write_atomic(
        endpoint_path, json.dumps({"host": host, "port": port, "url": url})
    )

    def _graceful(signum: int, frame: object) -> None:
        server.request_drain()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    print(
        f"repro-alloc: serving on {url} (spool {args.spool}, "
        f"{args.isolation} isolation); SIGTERM drains gracefully",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
        # a clean shutdown retracts the announcement, so a later
        # `submit --spool` fails fast instead of dialling a dead port
        try:
            os.unlink(endpoint_path)
        except OSError:
            pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import time
    import urllib.error
    import urllib.request

    from repro.service.journal import TERMINAL_STATES

    with open(args.application) as handle:
        application = json.load(handle)
    with open(args.architecture) as handle:
        architecture = json.load(handle)
    url = _service_url(args)
    if url is None:
        return 2
    body = {"application": application, "architecture": architecture}
    if args.deadline is not None:
        body["deadline"] = args.deadline
    if args.max_states is not None:
        body["max_states"] = args.max_states
    if args.memory_mb is not None:
        body["memory_mb"] = args.memory_mb
    if args.cpu_seconds is not None:
        body["cpu_seconds"] = args.cpu_seconds
    payload = json.dumps(body).encode("utf-8")
    waited = 0.0
    while True:
        request = urllib.request.Request(
            f"{url}/jobs",
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                accepted = json.loads(response.read())
            break
        except urllib.error.HTTPError as error:
            detail = ""
            try:
                detail = json.loads(error.read()).get("error", "")
            except (json.JSONDecodeError, UnicodeDecodeError, OSError):
                pass
            if error.code == 429:
                # the service advertises how long to back off; with
                # --wait we honour it (bounded by --timeout) instead
                # of giving up on the first rejection
                try:
                    retry_after = float(
                        error.headers.get("Retry-After", "1")
                    )
                except (TypeError, ValueError):
                    retry_after = 1.0
                retry_after = max(0.1, retry_after)
                if args.wait and waited + retry_after <= args.timeout:
                    print(
                        "repro-alloc: service overloaded; retrying in "
                        f"{retry_after:g}s (Retry-After)",
                        file=sys.stderr,
                    )
                    time.sleep(retry_after)
                    waited += retry_after
                    continue
                print(
                    f"repro-alloc: service overloaded: {detail or error}",
                    file=sys.stderr,
                )
                return HTTP_EXIT_MAP[429]
            print(
                f"repro-alloc: submission rejected ({error.code}): "
                f"{detail or error}",
                file=sys.stderr,
            )
            return HTTP_EXIT_MAP.get(error.code, HTTP_EXIT_MAP[400])
    job_id = accepted["id"]
    if not args.wait:
        print(job_id)
        return 0
    waited = 0.0
    while waited < args.timeout:
        with urllib.request.urlopen(
            f"{url}/jobs/{job_id}", timeout=30
        ) as response:
            record = json.loads(response.read())
        if record["state"] in TERMINAL_STATES:
            json.dump(record, sys.stdout, indent=2)
            print()
            return 0 if record["state"] in ("certified", "degraded") else 2
        time.sleep(args.poll_interval)
        waited += args.poll_interval
    print(
        f"repro-alloc: job {job_id} not finished after {args.timeout:g}s "
        "(it keeps running; query the service for its state)",
        file=sys.stderr,
    )
    return 2


def _service_url(args: argparse.Namespace) -> Optional[str]:
    """Resolve the daemon's base URL from --server or --spool."""
    import os

    if args.server:
        return args.server.rstrip("/")
    if not args.spool:
        raise ValueError("need --server URL or --spool DIR")
    endpoint_path = os.path.join(args.spool, "endpoint.json")
    try:
        with open(endpoint_path) as handle:
            return json.load(handle)["url"].rstrip("/")
    except (OSError, json.JSONDecodeError, KeyError):
        print(
            f"repro-alloc: no endpoint.json in {args.spool} — the "
            "daemon is not running (it retracts the announcement on "
            "shutdown); start it with `repro-alloc serve --spool "
            f"{args.spool}`",
            file=sys.stderr,
        )
        return None


def _counter(samples: dict, name: str) -> int:
    """A summed counter across the parent and harvested-child families."""
    return int(
        samples.get(f"repro_{name}_total", 0)
        + samples.get(f"repro_child_{name}_total", 0)
    )


def _render_status(url: str, health: dict, samples: dict) -> str:
    lines = [
        f"repro-alloc service @ {url} — health {health.get('health', '?')}"
        + ("" if health.get("accepting") else " (not accepting)")
    ]
    jobs = health.get("jobs", {})
    lines.append(
        f"queue: {health.get('queue_depth', 0)} queued · "
        f"{health.get('backing_off', 0)} backing off · "
        f"{health.get('active', 0)} running "
        f"(max {health.get('max_queue_depth', '?')}) · "
        f"{health.get('workers', '?')} workers, "
        f"{health.get('isolation', '?')} isolation"
    )
    hits = _counter(samples, "service_cache_hit")
    misses = _counter(samples, "service_cache_miss")
    lookups = hits + misses
    rate = f"{100.0 * hits / lookups:.1f}%" if lookups else "n/a"
    lines.append(
        f"cache: {hits} hits / {misses} misses (hit rate {rate})"
    )
    lines.append(
        "verdicts: "
        + " · ".join(
            f"{state} {jobs.get(state, 0)}"
            for state in (
                "certified",
                "degraded",
                "failed",
                "quarantined",
                "queued",
                "running",
            )
        )
    )
    spawned = _counter(samples, "sandbox_spawned")
    if spawned:
        lines.append(
            f"sandbox: {spawned} spawned · "
            f"{_counter(samples, 'sandbox_completed')} completed · "
            f"{_counter(samples, 'sandbox_oom')} oom · "
            f"{_counter(samples, 'sandbox_stalled')} stalled · "
            f"{_counter(samples, 'sandbox_cpu_exceeded')} cpu · "
            f"{_counter(samples, 'sandbox_crashed')} crashed"
        )
    crash_loop = health.get("crash_loop", {})
    lines.append(
        f"crash loop: {crash_loop.get('recent_quarantines', 0)}/"
        f"{crash_loop.get('window', '?')} recent quarantines "
        f"(threshold {crash_loop.get('threshold', '?')})"
    )
    running = health.get("running") or []
    if running:
        lines.append("running jobs:")
        for child in running:
            age = child.get("heartbeat_age_seconds")
            states = child.get("states")
            rss = child.get("rss_kb")
            lines.append(
                f"  {child.get('job')} a{child.get('attempt')} "
                f"pid {child.get('pid')}: "
                f"beat age {f'{age:g}s' if age is not None else 'n/a'}"
                + (f", {states} states" if states is not None else "")
                + (f", rss {rss} KB" if rss is not None else "")
            )
    return "\n".join(lines)


def _cmd_status(args: argparse.Namespace) -> int:
    import time
    import urllib.error
    import urllib.request

    from repro.obs.prom import parse_exposition

    url = _service_url(args)
    if url is None:
        return 2

    def fetch() -> tuple:
        with urllib.request.urlopen(f"{url}/health", timeout=10) as resp:
            health = json.loads(resp.read())
        with urllib.request.urlopen(f"{url}/metrics", timeout=10) as resp:
            samples = parse_exposition(resp.read().decode("utf-8"))
        return health, samples

    while True:
        try:
            health, samples = fetch()
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as err:
            print(
                f"repro-alloc: cannot reach service at {url}: {err}",
                file=sys.stderr,
            )
            return 2
        view = _render_status(url, health, samples)
        if args.watch and sys.stdout.isatty():
            sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
        print(view)
        if not args.watch:
            return 0
        sys.stdout.flush()
        try:
            time.sleep(max(0.1, args.watch))
        except KeyboardInterrupt:
            return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-alloc",
        description="SDFG resource allocation (DAC 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # shared by every sub-command: one-line diagnostics unless --debug
    debug = argparse.ArgumentParser(add_help=False)
    debug.add_argument(
        "--debug",
        action="store_true",
        help="show full tracebacks instead of one-line diagnostics",
    )
    # shared by all but profile and bench: dump the metrics snapshot
    # and the trace of the run
    common = argparse.ArgumentParser(add_help=False, parents=[debug])
    common.add_argument(
        "--metrics",
        metavar="PATH",
        help="collect instrumentation during the run and write the "
        "JSON snapshot to PATH",
    )
    common.add_argument(
        "--trace",
        metavar="PATH",
        help="record event-level tracing during the run and write a "
        "Chrome/Perfetto trace file to PATH",
    )
    # the commands that run a budgeted search
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget for the run; exhausting it exits with "
        "status 3",
    )
    budget.add_argument(
        "--max-states",
        type=int,
        metavar="N",
        help="state budget for the exploration engines (summed across "
        "all engine calls); exhausting it exits with status 3",
    )
    # the commands that can continue an interrupted run
    checkpoint = argparse.ArgumentParser(add_help=False)
    checkpoint.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="persist the run's progress to PATH (analyse: the "
        "interrupted exploration frontier; allocate: the committed "
        "allocations) so it can be continued with --resume",
    )
    checkpoint.add_argument(
        "--resume",
        metavar="PATH",
        help="continue a run from a checkpoint written via --checkpoint",
    )

    analyse = sub.add_parser(
        "analyse",
        help="compute SDFG throughput",
        parents=[common, budget, checkpoint],
    )
    analyse.add_argument("graph", help="path to a graph JSON file")
    analyse.add_argument(
        "--no-auto-concurrency",
        action="store_true",
        help="limit every actor to one concurrent firing",
    )
    analyse.set_defaults(func=_cmd_analyse)

    generate = sub.add_parser(
        "generate", help="emit benchmark graphs as JSON", parents=[common]
    )
    generate.add_argument(
        "--set",
        default="mixed",
        choices=["processing", "memory", "communication", "mixed"],
    )
    generate.add_argument("-n", "--count", type=int, default=5)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    allocate = sub.add_parser(
        "allocate",
        help="allocate a generated set until failure",
        parents=[common, budget, checkpoint],
    )
    allocate.add_argument(
        "--set",
        default="mixed",
        choices=["processing", "memory", "communication", "mixed"],
    )
    allocate.add_argument("-n", "--count", type=int, default=20)
    allocate.add_argument("--seed", type=int, default=0)
    allocate.add_argument(
        "--architecture",
        type=int,
        default=0,
        choices=[0, 1, 2],
        help="benchmark architecture variant",
    )
    allocate.add_argument(
        "--weights",
        type=float,
        nargs=3,
        default=list(CostWeights.default().as_tuple()),
        metavar=("C1", "C2", "C3"),
        help="tile cost weights (processing, memory, communication)",
    )
    _add_backend_flag(allocate)
    allocate.add_argument(
        "--degrade",
        action="store_true",
        help="on budget exhaustion or state-space explosion, retry with "
        "cheaper strategy knobs and fall back to the conservative TDMA "
        "baseline instead of failing",
    )
    allocate.add_argument(
        "--save-allocation",
        metavar="PATH",
        help="write the committed allocations as a verifiable bundle "
        "(see 'repro-alloc verify')",
    )
    allocate.set_defaults(func=_cmd_allocate)

    example = sub.add_parser(
        "example",
        help="run the paper's running example",
        parents=[common, budget],
    )
    example.add_argument(
        "--weights",
        type=float,
        nargs=3,
        default=[1.0, 1.0, 1.0],
        metavar=("C1", "C2", "C3"),
    )
    _add_backend_flag(example)
    example.add_argument(
        "--save-allocation",
        metavar="PATH",
        help="write the allocation as a verifiable bundle "
        "(see 'repro-alloc verify')",
    )
    example.set_defaults(func=_cmd_example)

    allocate_file = sub.add_parser(
        "allocate-file",
        help="allocate one application JSON onto an architecture JSON",
        parents=[common, budget],
    )
    allocate_file.add_argument("application", help="application JSON file")
    allocate_file.add_argument("architecture", help="architecture JSON file")
    allocate_file.add_argument(
        "--weights",
        type=float,
        nargs=3,
        default=list(CostWeights.default().as_tuple()),
        metavar=("C1", "C2", "C3"),
    )
    _add_backend_flag(allocate_file)
    allocate_file.add_argument(
        "--commit",
        action="store_true",
        help="write the occupied architecture back to the file",
    )
    allocate_file.set_defaults(func=_cmd_allocate_file)

    dot = sub.add_parser(
        "dot", help="emit a Graphviz rendering of a graph", parents=[common]
    )
    dot.add_argument("graph", help="path to a graph JSON file")
    dot.set_defaults(func=_cmd_dot)

    trace = sub.add_parser(
        "trace",
        help="Gantt trace of the paper example's allocation",
        parents=[common],
    )
    trace.add_argument(
        "--weights",
        type=float,
        nargs=3,
        default=[1.0, 1.0, 1.0],
        metavar=("C1", "C2", "C3"),
    )
    trace.add_argument("--width", type=int, default=72)
    trace.add_argument(
        "--vcd", metavar="PATH", help="also write an IEEE-1364 VCD waveform"
    )
    trace.set_defaults(func=_cmd_trace)

    dimension = sub.add_parser(
        "dimension",
        help="smallest mesh hosting a generated set",
        parents=[common],
    )
    dimension.add_argument(
        "--set",
        default="mixed",
        choices=["processing", "memory", "communication", "mixed"],
    )
    dimension.add_argument("-n", "--count", type=int, default=3)
    dimension.add_argument("--seed", type=int, default=0)
    dimension.add_argument("--max-tiles", type=int, default=12)
    dimension.set_defaults(func=_cmd_dimension)

    verify = sub.add_parser(
        "verify",
        help="independently certify a saved allocation bundle",
        description="Replay the periodic-phase certificates and re-sum "
        "the resource claims of a bundle written with --save-allocation. "
        "Exits 0 when every allocation is certified (or is a declared "
        "sound lower bound), 4 when any allocation is refuted.",
        parents=[common],
    )
    verify.add_argument("bundle", help="allocation bundle JSON file")
    verify.set_defaults(func=_cmd_verify)

    profile = sub.add_parser(
        "profile",
        help="instrumented run emitting a JSON metrics report",
        description="Run one workload with the repro.obs instrumentation "
        "enabled and emit a JSON report (result summary + metrics "
        "snapshot).  Profiles a graph JSON when given, the generated "
        "benchmark flow with --flow, or the paper's running example "
        "otherwise.",
        parents=[debug, budget],
    )
    profile.add_argument(
        "graph",
        nargs="?",
        help="graph JSON file to analyse (omit for --flow or the example)",
    )
    profile.add_argument(
        "--flow",
        action="store_true",
        help="profile an allocate-until-failure run over a generated set",
    )
    profile.add_argument(
        "--set",
        default="mixed",
        choices=["processing", "memory", "communication", "mixed"],
    )
    profile.add_argument("-n", "--count", type=int, default=5)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--architecture", type=int, default=0, choices=[0, 1, 2]
    )
    profile.add_argument(
        "--weights",
        type=float,
        nargs=3,
        default=list(CostWeights.default().as_tuple()),
        metavar=("C1", "C2", "C3"),
    )
    profile.add_argument(
        "--out", metavar="PATH", help="write the JSON report to PATH"
    )
    profile.add_argument(
        "--summary",
        action="store_true",
        help="print a human-readable summary instead of the JSON report",
    )
    profile.add_argument(
        "--trace",
        metavar="PATH",
        help="also record event-level tracing and write a "
        "Chrome/Perfetto trace file to PATH",
    )
    profile.set_defaults(func=_cmd_profile)

    lint = sub.add_parser(
        "lint",
        help="static diagnostics over graphs, applications and bundles",
        description="Run the rule-based static analyser (docs/ANALYSIS.md) "
        "over JSON models: SDF/CSDF graphs, applications, architectures "
        "and allocation bundles (kind is sniffed per document).  Exits 0 "
        "when no error-severity finding survives filtering, 6 otherwise.",
        parents=[common],
    )
    lint.add_argument(
        "inputs",
        nargs="*",
        metavar="MODEL",
        help="model JSON files (graph, application, architecture, bundle, "
        "or a list of graphs)",
    )
    lint.add_argument(
        "--source",
        action="store_true",
        help="also run the concurrency rules (CON001-CON004, see "
        "docs/ANALYSIS.md) over the repro package's own source",
    )
    lint.add_argument(
        "--architecture",
        metavar="PATH",
        help="architecture JSON to lint and to enable platform-aware "
        "application rules (APP003/APP004)",
    )
    lint.add_argument(
        "--format",
        default="text",
        choices=["text", "json", "sarif"],
        help="output format (SARIF 2.1.0 for code-review tooling)",
    )
    lint.add_argument(
        "--out", metavar="PATH", help="write the report to PATH instead of stdout"
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="PREFIX",
        help="keep only findings whose rule ID starts with PREFIX "
        "(repeatable, e.g. --select SDF --select APP0)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        metavar="PREFIX",
        help="drop findings whose rule ID starts with PREFIX (repeatable)",
    )
    lint.add_argument(
        "--baseline",
        metavar="PATH",
        help="suppress findings whose fingerprints appear in this "
        "baseline file (see --update-baseline)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current findings' fingerprints to --baseline "
        "and exit 0 (accepting today's findings as the baseline)",
    )
    lint.set_defaults(func=_cmd_lint)

    bench = sub.add_parser(
        "bench",
        help="run curated perf workloads; compare against a baseline",
        description="Run the curated benchmark workloads (paper example, "
        "classic DSP models, H.263 decoder, seeded random flow) with "
        "instrumentation on and write a schema-versioned BENCH_<label>"
        ".json report.  With --compare, check the fresh run against a "
        "previous report: deterministic regressions (more states, more "
        "throughput checks, changed results) exit with status 5; wall-"
        "time drift only warns unless --strict-time.",
        parents=[debug],
    )
    bench.add_argument(
        "--label",
        default="run",
        help="report label; the default output file is BENCH_<label>.json",
    )
    bench.add_argument(
        "--full",
        action="store_true",
        help="run the fuller (slower) workload variants",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--out",
        metavar="PATH",
        help="write the report here instead of BENCH_<label>.json",
    )
    bench.add_argument(
        "--compare",
        metavar="PATH",
        help="check this run against a previous bench report; exit 5 on "
        "regression",
    )
    bench.add_argument(
        "--max-time-ratio",
        type=float,
        default=2.0,
        metavar="RATIO",
        help="wall-time slack factor for --compare (default 2.0)",
    )
    bench.add_argument(
        "--strict-time",
        action="store_true",
        help="treat wall-time drift over the threshold as a hard "
        "regression instead of a warning",
    )
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant allocation service daemon",
        description="Long-running allocation-as-a-service daemon: a "
        "durable job queue with supervised workers, retry/backoff, "
        "admission control, graceful drain (SIGTERM) and a verified "
        "result cache.  See docs/SERVICE.md.",
        parents=[common, budget],
    )
    serve.add_argument(
        "--spool",
        required=True,
        metavar="DIR",
        help="spool directory holding the job journal and result "
        "cache (created if missing)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8571,
        help="TCP port (0 binds an ephemeral port; the bound endpoint "
        "is announced in <spool>/endpoint.json)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker threads"
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="bounded queue depth; submissions beyond it are rejected "
        "with HTTP 429 (client exit code 7)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts before a repeatedly crashing job is quarantined",
    )
    serve.add_argument(
        "--isolation",
        choices=("thread", "process"),
        default="process",
        help="run each allocation attempt in a worker thread or in a "
        "dedicated sandboxed subprocess with rlimit caps and a "
        "liveness watchdog (default: process; see docs/SERVICE.md)",
    )
    serve.add_argument(
        "--memory-mb",
        type=int,
        metavar="MB",
        help="default per-job address-space cap for sandboxed attempts "
        "(process isolation; per-job 'memory_mb' overrides it)",
    )
    serve.add_argument(
        "--cpu-seconds",
        type=float,
        metavar="SECONDS",
        help="default per-job CPU-time cap for sandboxed attempts "
        "(process isolation; per-job 'cpu_seconds' overrides it)",
    )
    serve.add_argument(
        "--stall-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="watchdog kills a sandboxed child whose heartbeat goes "
        "silent for this long",
    )
    serve.add_argument(
        "--log",
        metavar="PATH",
        help="write structured JSON-lines logs to PATH (default: "
        "stderr); one record per line with job/attempt correlation "
        "fields",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum severity of emitted log records (default: info; "
        "debug includes HTTP access lines and journal writes)",
    )
    serve.add_argument(
        "--no-log",
        action="store_true",
        help="disable structured logging entirely",
    )
    _add_backend_flag(serve)
    serve.set_defaults(func=_cmd_serve)

    status = sub.add_parser(
        "status",
        help="one-screen live view of a running allocation service",
        description="Poll /health, /jobs and /metrics of a repro-alloc "
        "serve daemon and render queue pressure, running jobs "
        "(heartbeat age, states charged), cache efficacy, verdict mix "
        "and crash-loop state on one screen.  With --watch the view "
        "refreshes until interrupted.",
        parents=[common],
    )
    status.add_argument(
        "--server",
        metavar="URL",
        help="service base URL (e.g. http://127.0.0.1:8571)",
    )
    status.add_argument(
        "--spool",
        metavar="DIR",
        help="discover the endpoint from DIR/endpoint.json instead of "
        "--server",
    )
    status.add_argument(
        "--watch",
        type=float,
        metavar="SECONDS",
        help="refresh every SECONDS until interrupted (default: render "
        "once and exit)",
    )
    status.set_defaults(func=_cmd_status)

    submit = sub.add_parser(
        "submit",
        help="submit one job to a running allocation service",
        description="POST an (application, architecture) pair to a "
        "repro-alloc serve daemon.  Prints the job id (or, with "
        "--wait, the finished job record).  Exit codes: 0 accepted/"
        "finished soundly, 7 service overloaded, 2 anything else.",
        parents=[common, budget],
    )
    submit.add_argument("application", help="application JSON file")
    submit.add_argument("architecture", help="architecture JSON file")
    submit.add_argument(
        "--server",
        metavar="URL",
        help="service base URL (e.g. http://127.0.0.1:8571)",
    )
    submit.add_argument(
        "--spool",
        metavar="DIR",
        help="discover the endpoint from DIR/endpoint.json instead of "
        "--server",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job is terminal and print its record",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="give up waiting after this long (the job keeps running)",
    )
    submit.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="polling period for --wait",
    )
    submit.add_argument(
        "--memory-mb",
        type=int,
        metavar="MB",
        help="address-space cap for this job's sandboxed attempts",
    )
    submit.add_argument(
        "--cpu-seconds",
        type=float,
        metavar="SECONDS",
        help="CPU-time cap for this job's sandboxed attempts",
    )
    submit.set_defaults(func=_cmd_submit)
    return parser


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="greedy",
        help="allocation strategy: the paper's greedy heuristic "
        "(default) or the branch-and-bound exact search "
        "(provably cheapest, combinatorial cost; see docs/EXACT.md)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    debug = args.debug
    deadline = getattr(args, "deadline", None)
    max_states = getattr(args, "max_states", None)
    args.budget = (
        Budget(deadline=deadline, max_states=max_states)
        if deadline is not None or max_states is not None
        else None
    )
    metrics_path = getattr(args, "metrics", None)
    trace_path = getattr(args, "trace", None)
    try:
        with ExitStack() as stack:
            metrics = (
                stack.enter_context(collecting()) if metrics_path else None
            )
            trace = stack.enter_context(tracing()) if trace_path else None
            try:
                return args.func(args)
            finally:
                # evidence survives failed runs: the snapshot and trace
                # are written before any exception reaches the handlers
                if metrics is not None:
                    write_atomic(
                        metrics_path, to_json(metrics.snapshot()) + "\n"
                    )
                if trace is not None:
                    write_chrome_trace(trace_path, trace)
    except BudgetExceededError as error:
        if debug:
            raise
        checkpoint_path = getattr(args, "checkpoint", None)
        payload = (error.partial or {}).get("checkpoint")
        if checkpoint_path and payload:
            from repro.resilience.checkpoint import write_checkpoint

            write_checkpoint(checkpoint_path, payload)
            print(
                f"repro-alloc: checkpoint written to {checkpoint_path} "
                f"(continue with --resume {checkpoint_path})",
                file=sys.stderr,
            )
        print(f"repro-alloc: budget exhausted: {error}", file=sys.stderr)
        return 3
    except StateSpaceExplosionError as error:
        if debug:
            raise
        print(f"repro-alloc: budget exhausted: {error}", file=sys.stderr)
        return 3
    except AllocationError as error:
        if debug:
            raise
        if isinstance(error.__cause__, StateSpaceExplosionError):
            print(f"repro-alloc: budget exhausted: {error}", file=sys.stderr)
            return 3
        print(f"repro-alloc: error: {error}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as error:
        if debug:
            raise
        print(f"repro-alloc: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
