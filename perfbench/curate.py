"""Rebuild ``pools.json``: the candidate inputs seeds are drawn from.

    python3 perfbench/curate.py [--flows 0-240] [--apps 0-80]
        [--flow-candidates 3,17,...]

The cost of one 12-application flow ranges over an order of magnitude
between generator seeds (2 s to over 30 s on one core), and so does one
exact search.  Drawing them straight from the seed would make the
spread between seeds, not the program, decide the figures.  This tool
keeps:

* ``flow-mixed``: generator seeds whose flow explores at most
  :data:`FLOW_MAX_STATES` constrained states (a deterministic screen),
  then, among those, the flows whose wall time lies within
  :data:`FLOW_BAND` and whose median per-application time lies within
  :data:`FLOW_P50_BAND` of the candidates' medians.  Times are rescaled
  by the harness's calibration loop and taken as the median of
  :data:`FLOW_ROUNDS` interleaved rounds, so drift of the machine's
  speed hits every candidate alike.  ``--flow-candidates`` skips the
  screen and times the listed seeds only;
* ``exact-corpus``: ``[profile, seed]`` applications, without the
  costliest :data:`EXACT_DROP` share by constrained states explored
  (on these inputs states track wall time closely), split into
  :data:`STRATA` groups by states; a seed picks the same number from
  each group.

The committed pool came from ``--flow-candidates
3,17,42,55,119,125,133,134,143,149,157,161,170,175,197,205`` (the
screen over seeds 0-239 kept 39 flows).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.arch.presets import benchmark_architectures  # noqa: E402
from repro.core.flow import allocate_until_failure  # noqa: E402
from repro.generate.benchmark import generate_benchmark_set  # noqa: E402
from repro.obs import Metrics, collecting  # noqa: E402
from repro.resilience.budget import Budget  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

FLOW_MAX_STATES = 60_000
FLOW_ROUNDS = 3
FLOW_BAND = 0.08
FLOW_P50_BAND = 0.22
EXACT_DROP = 0.10
STRATA = 20


def _span(text: str) -> range:
    low, high = text.split("-")
    return range(int(low), int(high))


def _states(registry: Metrics) -> int:
    return int(registry.snapshot()["counters"].get("constrained.states", 0))


def _flow(seed: int):
    architecture = benchmark_architectures()[0]
    applications = generate_benchmark_set(
        "mixed", 12, architecture.processor_types(), seed=seed
    )
    return architecture, applications


def within_state_cap(seed: int) -> bool:
    """Whether the flow finishes within :data:`FLOW_MAX_STATES` states."""
    architecture, applications = _flow(seed)
    result = allocate_until_failure(
        architecture,
        applications,
        weights=workloads.WEIGHTS,
        continue_after_failure=True,
        budget=Budget(max_states=FLOW_MAX_STATES),
    )
    return all(s["outcome"] != "budget-exhausted" for s in result.application_stats)


def timed_flow(seed: int):
    """(seconds, median per-application seconds), rescaled by calibration."""
    architecture, applications = _flow(seed)
    before = harness.calibration_s()
    started = perf_counter()
    result = allocate_until_failure(
        architecture, applications, weights=workloads.WEIGHTS,
        continue_after_failure=True,
    )
    seconds = perf_counter() - started
    scale = 2 * harness.CALIBRATION_NOMINAL_S / (before + harness.calibration_s())
    median = statistics.median(s["seconds"] for s in result.application_stats)
    return seconds * scale, median * scale


def curate_flows(candidates):
    rounds = {seed: [] for seed in candidates}
    for _ in range(FLOW_ROUNDS):
        for seed in candidates:
            rounds[seed].append(timed_flow(seed))
    costs = {
        seed: (
            statistics.median(t for t, _ in runs),
            statistics.median(p for _, p in runs),
        )
        for seed, runs in rounds.items()
    }
    for seed, (t, p) in costs.items():
        print(f"flow {seed}: {t:.3f} s, median {p:.4f} s per application",
              file=sys.stderr)
    total = statistics.median(t for t, _ in costs.values())
    typical = statistics.median(p for _, p in costs.values())
    return sorted(
        seed
        for seed, (t, p) in costs.items()
        if abs(t / total - 1) <= FLOW_BAND and abs(p / typical - 1) <= FLOW_P50_BAND
    )


def curate_exact(seeds: range):
    costs = []
    for profile in ("small", "heavy"):
        for seed in seeds:
            application = workloads.generate_application(
                workloads.PROFILES[profile],
                workloads.TYPES,
                workloads.random.Random(seed),
                name=f"{profile}-{seed}",
            )
            with collecting(Metrics()) as registry:
                _, exact, _ = workloads.exact_item(
                    workloads.ExactItem(application, 2 + seed % 2)
                )
            costs.append((_states(registry), exact.nodes_explored, profile, seed))
    costs.sort()
    kept = costs[: int(len(costs) * (1 - EXACT_DROP))]
    size = len(kept) // STRATA
    return [
        [[profile, seed] for _, _, profile, seed in kept[i * size:(i + 1) * size]]
        for i in range(STRATA)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--flows", default="0-240", help="generator seeds, lo-hi")
    parser.add_argument("--flow-candidates", help="comma-separated seeds to time")
    parser.add_argument("--apps", default="0-80", help="application seeds, lo-hi")
    args = parser.parse_args()
    if args.flow_candidates:
        candidates = [int(seed) for seed in args.flow_candidates.split(",")]
    else:
        candidates = [s for s in _span(args.flows) if within_state_cap(s)]
    pools = {
        "flow-mixed": curate_flows(candidates),
        "exact-corpus": curate_exact(_span(args.apps)),
    }
    with open(os.path.join(HERE, "pools.json"), "w", encoding="utf-8") as handle:
        json.dump(pools, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
