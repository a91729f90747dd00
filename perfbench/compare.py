"""Set two sets of benchmark runs side by side.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Both directories hold ``--out`` records (``sweep.py`` writes them).
Per workload the report shows:

* each end-to-end metric's median and quartiles in both sets, the
  change of the medians, and whether it exceeds the metric's bound in
  ``BENCHMARK.json`` in the worse direction;
* from the traced runs, each layer's median ``self_s`` and the median
  of every per-layer count, with their deltas;
* deterministic counters that changed between the sets, per seed, and
  any that differ between runs of one seed within a set (the same
  program must reproduce them exactly).

Exit status 1 when an end-to-end median worsened by more than its
bound or a set disagrees with itself on a counter; 0 otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from sweep import load  # noqa: E402


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _change(before: float, after: float) -> str:
    if not before:
        return "      n/a" if after else "       0%"
    return f"{(after / before - 1) * 100:+8.1f}%"


def compare(before, after, spec) -> int:
    status = 0
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted({r["workload"] for r in before} & {r["workload"] for r in after})
    for workload in workloads:
        print(f"== {workload}")
        sides = []
        for records in (before, after):
            sides.append(
                (
                    [r for r in records if r["workload"] == workload and not r["trace"]],
                    [r for r in records if r["workload"] == workload and r["trace"]],
                )
            )
        (old_plain, old_traced), (new_plain, new_traced) = sides
        if old_plain and new_plain:
            print(f"  end to end ({len(old_plain)} vs {len(new_plain)} runs): "
                  "q1 / median / q3")
            names = sorted(set(old_plain[0]["end_to_end"]) & set(new_plain[0]["end_to_end"]))
            for name in names:
                old = _quartiles([r["end_to_end"][name]["value"] for r in old_plain])
                new = _quartiles([r["end_to_end"][name]["value"] for r in new_plain])
                unit = old_plain[0]["end_to_end"][name]["unit"]
                verdict = ""
                if name in end_to_end and old[1]:
                    worse = (new[1] / old[1] - 1) * (
                        1 if end_to_end[name]["better"] == "lower" else -1
                    )
                    if worse > end_to_end[name]["bound"]:
                        verdict = "  REGRESSION"
                        status = 1
                print(f"  {name:<14} {old[0]:>10.4g} {old[1]:>10.4g} {old[2]:>10.4g} | "
                      f"{new[0]:>10.4g} {new[1]:>10.4g} {new[2]:>10.4g} {unit:<6}"
                      f"{_change(old[1], new[1])}{verdict}")
        if old_traced and new_traced:
            print(f"  per layer ({len(old_traced)} vs {len(new_traced)} traced runs): "
                  "median before | after")
            for name in sorted(old_traced[0]["per_layer"]):
                old = statistics.median(r["per_layer"][name] for r in old_traced)
                new = statistics.median(r["per_layer"][name] for r in new_traced)
                if old or new:
                    print(f"  {name:<40} {old:>12.5g} | {new:>12.5g} {_change(old, new)}")
        for label, records in (("before", old_plain + old_traced),
                               ("after", new_plain + new_traced)):
            seeds = {}
            for record in records:
                seeds.setdefault(record["seed"], []).append(record["counters"])
            for seed, counters in sorted(seeds.items()):
                if any(c != counters[0] for c in counters):
                    print(f"  {label}: counters differ between runs of seed {seed}")
                    status = 1
        for old_record in old_plain:
            for new_record in new_plain:
                if new_record["seed"] != old_record["seed"]:
                    continue
                for key, value in sorted(old_record["counters"].items()):
                    if new_record["counters"].get(key) != value:
                        print(f"  seed {old_record['seed']} counter {key}: "
                              f"{value} -> {new_record['counters'].get(key)}")
    return status


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return compare(load(sys.argv[1]), load(sys.argv[2]), spec)


if __name__ == "__main__":
    sys.exit(main())
