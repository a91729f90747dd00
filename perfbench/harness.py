"""Timing loop, statistics and the result record of one benchmark run.

A run of one workload:

1. sets the workload up :data:`SETUP_REPEATS` times from the seed and
   reports the median as ``setup_s``;
2. runs one counting pass with the program's metrics registry on: its
   outputs go through the correctness gate, and its deterministic
   counters are the run's;
3. repeats timed passes until ``seconds`` have elapsed.  Each must
   reproduce the counting pass's outcomes exactly.

With ``trace`` the timed passes alternate between untraced and traced
(layers wrapped, registry on); the per-layer metrics come from the
traced ones and ``trace.overhead_pct`` compares the two kinds.

The CPU speed of a shared virtual machine drifts by half or more over
tens of seconds, for the same work.  So a fixed pure-Python calibration
loop is timed before set-up, around every timed pass and after the
last, and every end-to-end time (set-up, pass and item times) is
rescaled by :data:`CALIBRATION_NOMINAL_S` over the calibration time
next to it: the figures read as on a machine running the loop at its
nominal speed.  ``machine_slowdown`` in the record is the median
calibration time over the nominal one; ``pass_windows_s`` keeps the
raw pass times.  Per-layer metrics are not rescaled.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import Metrics, collecting

import layers
import workloads
from workloads import PassResult

SETUP_REPEATS = 5

#: the calibration loop's time on an unloaded core (s), see calibration_s
CALIBRATION_NOMINAL_S = 0.006
CALIBRATION_REPEATS = 5


def _calibration_loop() -> int:
    table: Dict[Tuple[int, int], int] = {}
    for i in range(20_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
    return len(table)


def calibration_s() -> float:
    """Median time of the calibration loop, now."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        started = perf_counter()
        _calibration_loop()
        times.append(perf_counter() - started)
    return statistics.median(times)


@dataclass
class TimedPass:
    """One timed pass and what was measured around it."""

    result: PassResult
    #: factor turning this pass's wall times into nominal-speed times
    scale: float
    #: traced passes only: per-layer stats, outermost wrapped calls' time
    stats: Optional[Dict[str, layers.LayerStats]] = None
    outermost_s: float = 0.0
    wall_s: float = 0.0

    @property
    def rate(self) -> float:
        return self.result.items / (self.result.window_s * self.scale)

#: name -> unit of every end-to-end metric a workload can report
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "apps_bound": "count",
    "cold_ms_p50": "ms",
    "cold_ms_tail": "ms",
    "hit_ms_p50": "ms",
    "hit_ms_tail": "ms",
    "proc_ms_p50": "ms",
    "proc_ms_tail": "ms",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metric name -> unit
PER_LAYER_UNITS: Dict[str, str] = {}
for _layer in ("throughput.constrained", "throughput.state_space", "csdf.throughput"):
    PER_LAYER_UNITS.update(
        {
            f"{_layer}.self_s": "s",
            f"{_layer}.calls": "count",
            f"{_layer}.states": "count",
            f"{_layer}.us_per_state": "us",
        }
    )
PER_LAYER_UNITS["throughput.constrained.us_per_call"] = "us"
for _layer in ("core.scheduling", "core.binding", "appmodel.binding_aware", "verify"):
    PER_LAYER_UNITS.update({f"{_layer}.self_s": "s", f"{_layer}.calls": "count"})
PER_LAYER_UNITS.update(
    {
        "core.slices.self_s": "s",
        "core.slices.checks": "count",
        "core.slices.checks_per_app": "count",
        "exact.search.self_s": "s",
        "exact.search.nodes": "count",
        "exact.search.leaves": "count",
        "exact.search.prune_ratio": "ratio",
        "analysis.preflight.self_s": "s",
        "analysis.preflight.rejects": "count",
        "resilience.ladder.degraded": "count",
        "service.canonical.self_s": "s",
        "service.cache.lookup_ms_p50": "ms",
        "service.cache.hit_ratio": "ratio",
        "service.journal.writes": "count",
        "service.journal.write_ms_p50": "ms",
        "service.sandbox.run_ms_p50": "ms",
        "service.sandbox.overhead_ms_p50": "ms",
        "service.service.queue_wait_ms_p50": "ms",
        "service.service.attempt_ms_p50": "ms",
        "trace.overhead_pct": "%",
        "trace.wall_s": "s",
        "trace.unwrapped_s": "s",
    }
)


# -- statistics ----------------------------------------------------------
def tail(samples: List[float]) -> Tuple[float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer there is no
    such percentile and the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100
    index = len(ordered) - 11
    return ordered[index], int(100 * (index + 1) / len(ordered))


def histogram_quantile(data: Optional[Dict[str, Any]], q: float) -> float:
    """Linearly interpolated quantile of bucketed counts (0 when empty)."""
    if not data or not sum(data["counts"]):
        return 0.0
    bounds, counts = data["buckets"], data["counts"]
    rank = q * sum(counts)
    seen = 0
    for index, count in enumerate(counts):
        if count and seen + count >= rank:
            if index == len(bounds):
                return bounds[-1]
            lower = bounds[index - 1] if index else 0.0
            return lower + (bounds[index] - lower) * (rank - seen) / count
        seen += count
    return bounds[-1]


def _merge_histograms(passes: List[PassResult], phase: str, name: str):
    merged: Optional[Dict[str, Any]] = None
    for result in passes:
        data = result.histograms.get(phase, {}).get(name)
        if data is None:
            continue
        if merged is None:
            merged = {"buckets": data["buckets"], "counts": list(data["counts"])}
        else:
            merged["counts"] = [a + b for a, b in zip(merged["counts"], data["counts"])]
    return merged


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metrics -------------------------------------------------------------
def end_to_end(
    setup_times: List[float],
    passes: List[TimedPass],
    counters: Dict[str, int],
    attempted: int,
    failed: int,
) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric this workload reports, with unit and n."""
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(metric: str, value: float, n: int, note: str = "") -> None:
        metrics[metric] = {
            "value": value,
            "unit": END_TO_END_UNITS[metric],
            "n": n,
            "note": note,
        }

    put("setup_s", statistics.median(setup_times), len(setup_times), "median")
    rates = [p.rate for p in passes]
    put("items_per_s", statistics.median(rates), len(rates), "median of passes")
    groups = ["item"] + sorted(set(passes[0].result.latencies) - {"item"})
    for group in groups:
        samples = [
            s * p.scale for p in passes for s in p.result.latencies.get(group, [])
        ]
        if not samples:
            continue
        value, percentile = tail(samples)
        put(f"{group}_ms_p50", statistics.median(samples) * 1e3, len(samples))
        put(f"{group}_ms_tail", value * 1e3, len(samples), f"p{percentile}")
    if "apps_bound" in counters:
        put("apps_bound", counters["apps_bound"], 1, "deterministic")
    put("error_rate", failed / attempted, attempted, f"{failed} failed")
    put("peak_rss_mb", peak_rss_mb(), 1)
    return metrics


def per_layer(
    traced: List[TimedPass],
    untraced_rate: float,
    registry: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric, per traced pass."""
    count = len(traced)
    stats: Dict[str, layers.LayerStats] = {}
    for timed in traced:
        for layer, layer_stats in timed.stats.items():
            stats.setdefault(layer, layers.LayerStats()).merge(layer_stats)

    def get(layer: str) -> layers.LayerStats:
        return stats.get(layer, layers.LayerStats())

    def per_pass(value: float) -> float:
        return value / count

    def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    def p50_ms(layer: str) -> float:
        durations = get(layer).durations
        return statistics.median(durations) * 1e3 if durations else 0.0

    out: Dict[str, float] = {}
    for layer in (
        "throughput.constrained",
        "core.slices",
        "core.scheduling",
        "core.binding",
        "appmodel.binding_aware",
        "exact.search",
        "throughput.state_space",
        "csdf.throughput",
        "analysis.preflight",
        "verify",
        "service.canonical",
    ):
        out[f"{layer}.self_s"] = per_pass(get(layer).self_s)
    for layer in (
        "throughput.constrained",
        "core.scheduling",
        "core.binding",
        "appmodel.binding_aware",
        "throughput.state_space",
        "csdf.throughput",
        "verify",
    ):
        out[f"{layer}.calls"] = per_pass(get(layer).calls)
    for layer in ("throughput.constrained", "throughput.state_space", "csdf.throughput"):
        states = get(layer).work.get("states", 0)
        out[f"{layer}.states"] = per_pass(states)
        out[f"{layer}.us_per_state"] = ratio(get(layer).self_s, states, 1e6)
    constrained = get("throughput.constrained")
    out["throughput.constrained.us_per_call"] = ratio(
        constrained.self_s, constrained.calls, 1e6
    )
    slices = get("core.slices")
    out["core.slices.checks"] = per_pass(slices.work.get("checks", 0))
    out["core.slices.checks_per_app"] = ratio(slices.work.get("checks", 0), slices.calls)
    search = get("exact.search").work
    out["exact.search.nodes"] = per_pass(search.get("nodes", 0))
    out["exact.search.leaves"] = per_pass(search.get("leaves", 0))
    out["exact.search.prune_ratio"] = ratio(search.get("pruned", 0), search.get("nodes", 0))
    out["analysis.preflight.rejects"] = per_pass(
        get("analysis.preflight").work.get("rejects", 0)
    )
    out["resilience.ladder.degraded"] = per_pass(
        get("resilience.ladder").work.get("degraded", 0)
    )
    out["service.cache.lookup_ms_p50"] = p50_ms("service.cache")
    hits, misses = registry.get("service.cache.hit", 0), registry.get("service.cache.miss", 0)
    out["service.cache.hit_ratio"] = ratio(hits, hits + misses)
    out["service.journal.writes"] = per_pass(get("service.journal").calls)
    out["service.journal.write_ms_p50"] = p50_ms("service.journal")
    out["service.sandbox.run_ms_p50"] = p50_ms("service.sandbox")
    passes = [timed.result for timed in traced]

    def attempt_p50_ms(phase: str, name: str = "service.attempt_seconds") -> float:
        return histogram_quantile(_merge_histograms(passes, phase, name), 0.5) * 1e3

    proc, cold = attempt_p50_ms("proc"), attempt_p50_ms("cold")
    out["service.sandbox.overhead_ms_p50"] = proc - cold if proc else 0.0
    out["service.service.queue_wait_ms_p50"] = attempt_p50_ms(
        "burst", "service.queue_wait_seconds"
    )
    out["service.service.attempt_ms_p50"] = attempt_p50_ms("burst")
    traced_rate = statistics.median(timed.rate for timed in traced)
    out["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    wall = per_pass(sum(timed.wall_s for timed in traced))
    out["trace.wall_s"] = wall
    out["trace.unwrapped_s"] = wall - per_pass(sum(s.self_s for s in stats.values()))
    return out


def accounting(traced: List[TimedPass]) -> Dict[str, float]:
    """Self times of all wrapped layers vs. their outermost calls' time.

    The two agree up to rounding: self times partition the time of the
    outermost wrapped calls, so with the unwrapped remainder they add
    up to the wall time.
    """
    return {
        "wall_s": sum(timed.wall_s for timed in traced),
        "layers_self_s": sum(
            s.self_s for timed in traced for s in timed.stats.values()
        ),
        "outermost_calls_s": sum(timed.outermost_s for timed in traced),
    }


# -- the run -------------------------------------------------------------
def _work_signature(stats: Dict[str, layers.LayerStats]) -> Dict[str, Any]:
    """Deterministic per-layer counts of one traced pass."""
    return {
        layer: (layer_stats.calls, sorted(layer_stats.work.items()))
        for layer, layer_stats in stats.items()
    }


REGISTRY_COUNTERS = (
    "constrained.states",
    "slices.throughput_checks",
    "exact.nodes_explored",
    "state_space.states",
    "service.cache.hit",
)


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    workdir: str = ".",
) -> Dict[str, Any]:
    """One benchmark run; the full result record."""
    workload = workloads.WORKLOADS[name]
    dimensions = workloads.SIZES[size]
    calibrations = [calibration_s()]
    raw_setup_times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        inputs = workload.setup(seed, dimensions, workdir)
        raw_setup_times.append(perf_counter() - started)
    calibrations.append(calibration_s())
    setup_scale = 2 * CALIBRATION_NOMINAL_S / (calibrations[0] + calibrations[1])
    setup_times = [t * setup_scale for t in raw_setup_times]

    with collecting(Metrics()) as registry:
        first = workload.run_pass(inputs, True)
    snapshot = registry.snapshot()["counters"]
    counters = dict(first.counters)
    counters.update({key: int(snapshot.get(key, 0)) for key in REGISTRY_COUNTERS})
    failures = list(first.failures)
    attempted = first.attempted

    tracer = layers.install_layers(workloads) if trace else None
    untraced: List[TimedPass] = []
    traced: List[TimedPass] = []
    registry_totals: Dict[str, float] = {}
    signature = None
    deadline = perf_counter() + seconds
    index = 0
    before = calibration_s()
    while index < (2 if trace else 1) or perf_counter() < deadline:
        index += 1
        stats = None
        if tracer is not None and index % 2 == 0:
            with collecting(Metrics()) as registry:
                tracer.start()
                started = perf_counter()
                result = workload.run_pass(inputs, False)
                wall = perf_counter() - started
                stats, top_s = tracer.stop()
            for key, value in registry.snapshot()["counters"].items():
                registry_totals[key] = registry_totals.get(key, 0) + value
            if signature is None:
                signature = _work_signature(stats)
            elif _work_signature(stats) != signature:
                failures.append(f"pass {index}: per-layer counts changed")
        else:
            result = workload.run_pass(inputs, False)
        after = calibration_s()
        calibrations.append(after)
        scale = 2 * CALIBRATION_NOMINAL_S / (before + after)
        before = after
        if stats is None:
            untraced.append(TimedPass(result, scale))
        else:
            traced.append(TimedPass(result, scale, stats, top_s, wall))
        attempted += result.attempted
        failures.extend(f"pass {index}: {f}" for f in result.failures)
        if result.fingerprint != first.fingerprint:
            failures.append(f"pass {index}: outcomes differ from the checked pass")
        if result.counters != first.counters:
            failures.append(
                f"pass {index}: counters {result.counters} != {first.counters}"
            )
    if tracer is not None:
        tracer.uninstall()

    failed = len(failures)
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "counters": counters,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_windows_s": [timed.result.window_s for timed in untraced],
        "machine_slowdown": statistics.median(calibrations) / CALIBRATION_NOMINAL_S,
        "end_to_end": end_to_end(setup_times, untraced, counters, attempted, failed),
    }
    if trace:
        rate = record["end_to_end"]["items_per_s"]["value"]
        record["per_layer"] = per_layer(traced, rate, registry_totals)
        record["accounting"] = accounting(traced)
    return record
