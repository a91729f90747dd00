"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload flow-mixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory (there is nothing to build).  Lines before the last
one are a human-readable report: every end-to-end metric of the
workload with unit and sample count, the deterministic counters, and
with ``--trace 1`` every per-layer metric.  The last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics named in ``BENCHMARK.json`` (``--trace 0``) or
its ``per_layer`` metrics (``--trace 1``).  ``--out FILE`` also writes
the full record, which ``compare.py`` reads.

Exit status: 0 when every correctness check passed; 1 when one failed
(the JSON line is still printed, with ``"correct": false``) or when the
program cannot be imported from this checkout (then nothing is printed
on standard output).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
#: scratch space for service spools, inside the checkout, removed on exit
WORKDIR = os.path.join(ROOT, ".perfbench_work")


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def import_program() -> None:
    """Make this checkout's ``src/repro`` importable, and only it."""
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)
    try:
        import repro
    except ImportError as error:
        sys.exit(f"perfbench: cannot import the program from {SOURCE}: {error}")
    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        sys.exit(f"perfbench: repro resolved outside {SOURCE}: {repro.__file__}")


def main(argv=None) -> int:
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seeds = load_json(os.path.join(HERE, "config.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=seeds["default_seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this file")
    args = parser.parse_args(argv)

    import_program()
    import harness

    os.makedirs(WORKDIR, exist_ok=True)
    try:
        record = harness.run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir=WORKDIR,
        )
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {record['passes']}")
    for name, metric in record["end_to_end"].items():
        print(f"  {name:<16} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"n={metric['n']} {metric['note']}")
    print(f"  counters {json.dumps(record['counters'], sort_keys=True)}")
    print(f"  machine_slowdown {record['machine_slowdown']:.3f} "
          "(end-to-end times are rescaled by it; see harness.py)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if args.trace:
        for name, value in record["per_layer"].items():
            print(f"  {name:<40} {value:>14.6g} {harness.PER_LAYER_UNITS[name]}")
        print(f"  accounting {json.dumps(record['accounting'])}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)

    if args.trace:
        metrics = {
            m["name"]: {"value": record["per_layer"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {
                "value": record["end_to_end"][m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in spec["end_to_end"]
        }
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
