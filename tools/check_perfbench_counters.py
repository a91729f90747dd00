#!/usr/bin/env python3
"""Compare one perfbench run's work counters with their expected values.

    python3 perfbench/run.py --workload W --seed S --seconds 0 \\
        | python3 tools/check_perfbench_counters.py W S

Reads the run's report on standard input and echoes it.  The
``counters {...}`` line holds the run's deterministic work counters
(states explored, throughput checks, search nodes, cache hits); they
must equal the entry for ``W`` and ``S`` in
``tools/perfbench_counters.json``.  A change that makes the program
faster must not make it do different work, so any difference fails.

Exit status: 0 when the counters match; 1 when they differ (both values
are printed), the report has no counters line, or the expectations have
no entry for the workload and seed; 2 on wrong arguments.
"""

from __future__ import annotations

import json
import os
import sys

EXPECTED = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "perfbench_counters.json"
)
PREFIX = "counters "


def main(argv: list) -> int:
    if len(argv) != 2:
        usage = "usage: check_perfbench_counters.py WORKLOAD SEED < REPORT"
        print(usage, file=sys.stderr)
        return 2
    workload, seed = argv
    report = sys.stdin.read()
    sys.stdout.write(report)
    lines = [line.strip() for line in report.splitlines()]
    found = [line[len(PREFIX):] for line in lines if line.startswith(PREFIX)]
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle).get(workload, {}).get(seed)
    where = f"perfbench-gate: {workload} seed {seed}"
    if expected is None:
        print(f"{where}: no expected counters in {EXPECTED}")
        return 1
    if len(found) != 1:
        print(f"{where}: {len(found)} counters lines in the report, expected 1")
        return 1
    actual = json.loads(found[0])
    if actual != expected:
        print(f"{where}: counters differ from {os.path.basename(EXPECTED)}")
        for key in sorted(set(actual) | set(expected)):
            if actual.get(key) != expected.get(key):
                print(f"  {key}: expected {expected.get(key)}, got {actual.get(key)}")
        print(f"  expected {json.dumps(expected, sort_keys=True)}")
        print(f"  actual   {json.dumps(actual, sort_keys=True)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
