"""Self-test of the benchmark at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Checks that:

* every workload, untraced and traced, reports every metric named in
  ``BENCHMARK.json`` with its unit, and passes its correctness gate;
* traced, the wrapped layers' self times partition the time of their
  outermost calls, so with the unwrapped remainder they add up to the
  traced wall time;
* a tampered allocation (every TDMA slice cut to 1) is caught by the
  flow's certification gate, and the run reports ``correct: false``;
* ``run.py`` exits non-zero without printing a result where the
  program's sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import harness  # noqa: E402
import workloads  # noqa: E402

SECONDS = 0.5


def check_metrics(spec) -> None:
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = harness.run(name, 3, SECONDS, trace, size="tiny", workdir=run.WORKDIR)
            assert record["correct"], (name, trace, record["failures"])
            for metric in spec["end_to_end"]:
                reported = record["end_to_end"][metric["name"]]
                assert reported["unit"] == metric["unit"], (name, metric)
            if trace:
                for metric in spec["per_layer"]:
                    assert metric["name"] in record["per_layer"], (name, metric)
                    assert harness.PER_LAYER_UNITS[metric["name"]] == metric["unit"]
                books = record["accounting"]
                assert abs(books["layers_self_s"] - books["outermost_calls_s"]) < 1e-6
                if name != "service-mix":  # layers run on worker threads there
                    assert books["layers_self_s"] <= books["wall_s"]
            print(f"ok  {name} trace={int(trace)}")


def check_tampering() -> None:
    original = workloads.allocate_until_failure

    def tampered(*args, **kwargs):
        result = original(*args, **kwargs)
        scheduling = result.allocations[0].scheduling
        for tile in list(scheduling.slices):
            scheduling.set_slice(tile, 1)
        return result

    workloads.allocate_until_failure = tampered
    try:
        record = harness.run("flow-mixed", 3, SECONDS, False, size="tiny")
    finally:
        workloads.allocate_until_failure = original
    assert not record["correct"], "a tampered allocation passed the gate"
    assert any("certify_flow refuted" in f for f in record["failures"]), record
    assert record["end_to_end"]["error_rate"]["value"] > 0
    print("ok  tampered allocation caught")


def check_missing_program() -> None:
    bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "flow-mixed",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0, done
    assert '"correct"' not in done.stdout, done.stdout
    print("ok  exits non-zero without the program")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(run.WORKDIR, exist_ok=True)
    try:
        check_metrics(spec)
        check_tampering()
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    check_missing_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
