"""Run a set of benchmark runs and summarise their spread.

    python3 perfbench/sweep.py --out DIR [--workloads flow-mixed,...]
        [--seeds 0-9] [--trace 0|1|both] [--summary-only]

Each run is ``run.py`` in its own process, one after the other; its
full record lands in ``DIR/<workload>-<seed>-t<trace>.json``.  The
summary gives, per workload and end-to-end metric, the median and the
spread between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound
in ``BENCHMARK.json``.  ``compare.py`` sets two such directories side
by side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def load(directory):
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                records.append(json.load(handle))
    return records


def summarise(records, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = sorted({r["workload"] for r in records})
    for workload in workloads:
        runs = [r for r in records if r["workload"] == workload and not r["trace"]]
        if len(runs) < 2:
            continue
        bad = [r["seed"] for r in runs if not r["correct"]]
        print(f"{workload}: {len(runs)} runs, incorrect seeds {bad or 'none'}")
        for metric, bound in bounds.items():
            values = [r["end_to_end"][metric]["value"] for r in runs]
            median, relative = spread(values)
            flag = "" if relative < bound / 3 else ("  WIDE" if relative < bound else "  OVER")
            print(f"  {metric:<14} median {median:>12.6g}  spread {relative:6.3f}  "
                  f"bound {bound}{flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", default="0", choices=("0", "1", "both"))
    parser.add_argument("--summary-only", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if not args.summary_only:
        os.makedirs(args.out, exist_ok=True)
        names = args.workloads.split(",") if args.workloads else [
            w["name"] for w in spec["workloads"]
        ]
        low, high = (int(x) for x in args.seeds.split("-"))
        modes = ("0", "1") if args.trace == "both" else (args.trace,)
        for name in names:
            for seed in range(low, high + 1):
                for trace in modes:
                    out = os.path.join(args.out, f"{name}-{seed}-t{trace}.json")
                    command = [sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", name, "--seed", str(seed),
                               "--trace", trace, "--out", out]
                    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                          text=True)
                    print(f"{name} seed {seed} trace {trace}: exit {done.returncode}",
                          flush=True)
    summarise(load(args.out), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
