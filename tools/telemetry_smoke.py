#!/usr/bin/env python3
"""End-to-end telemetry smoke: a real daemon, a real sandboxed child.

Run by ``make test-telemetry`` and the CI service job.  The script

1. starts ``repro-alloc serve`` as a subprocess on an ephemeral port
   with **process isolation** (so a sandbox child really spools a
   telemetry sidecar and the parent really harvests it),
2. submits the paper's running example through the HTTP API,
3. waits for the job to reach a terminal state,
4. scrapes ``/metrics`` and validates the Prometheus exposition —
   format-level with :func:`repro.obs.prom.validate_exposition`, and
   content-level: harvested ``repro_child_*`` counters, the child's
   harvested constrained-exploration duration histogram and the
   queue-wait / attempt-latency histogram families must be present,
5. fetches the merged ``/jobs/<id>/trace`` and checks the parent and
   the sandboxed child sit on distinct pid lanes of one Chrome trace,
6. writes scrape / trace / timeline / health artifacts into ``--out``
   so CI uploads them for eyeballing in Perfetto,
7. drains the daemon.

Exit status: 0 on success, 1 with one diagnostic per failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.obs.prom import parse_exposition, validate_exposition  # noqa: E402

TERMINAL = {"certified", "degraded", "failed", "quarantined"}


def _get(url: str, timeout: float = 10.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


def _post(url: str, payload: Dict[str, Any], timeout: float = 10.0) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def _wait_endpoint(spool: str, timeout: float = 30.0) -> str:
    path = os.path.join(spool, "endpoint.json")
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)["url"].rstrip("/")
        except (OSError, json.JSONDecodeError, KeyError):
            time.sleep(0.1)
    raise RuntimeError(f"daemon never announced an endpoint in {spool}")


def _wait_terminal(url: str, job_id: str, timeout: float = 180.0) -> Dict:
    deadline = time.perf_counter() + timeout
    record: Dict[str, Any] = {}
    while time.perf_counter() < deadline:
        record = json.loads(_get(f"{url}/jobs/{job_id}"))
        if record.get("state") in TERMINAL:
            return record
        time.sleep(0.25)
    raise RuntimeError(
        f"job {job_id} never reached a terminal state "
        f"(last: {record.get('state')!r})"
    )


def _paper_request() -> Dict[str, Any]:
    from repro.appmodel.example import (
        paper_example_application,
        paper_example_architecture,
    )
    from repro.appmodel.serialization import application_to_dict
    from repro.arch.serialization import architecture_to_dict

    return {
        "application": application_to_dict(paper_example_application()),
        "architecture": architecture_to_dict(paper_example_architecture()),
    }


def run(out_dir: str, keep_daemon_log: bool = True) -> List[str]:
    problems: List[str] = []
    os.makedirs(out_dir, exist_ok=True)
    spool = os.path.join(out_dir, "spool")
    log_path = os.path.join(out_dir, "daemon.log.jsonl")

    environment = dict(os.environ)
    environment["PYTHONPATH"] = SRC + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--spool",
            spool,
            "--port",
            "0",
            "--workers",
            "1",
            "--isolation",
            "process",
            "--log",
            log_path,
            "--log-level",
            "debug",
        ],
        env=environment,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        url = _wait_endpoint(spool)
        print(f"telemetry-smoke: daemon up at {url}")

        accepted = json.loads(_post(f"{url}/jobs", _paper_request()))
        job_id = accepted["id"]
        record = _wait_terminal(url, job_id)
        print(f"telemetry-smoke: {job_id} -> {record['state']}")
        if record["state"] != "certified":
            problems.append(
                f"expected the paper example to certify, got "
                f"{record['state']!r} ({record.get('reason')!r})"
            )

        # -- scrape ---------------------------------------------------
        scrape = _get(f"{url}/metrics").decode("utf-8")
        with open(
            os.path.join(out_dir, "metrics.prom"), "w", encoding="utf-8"
        ) as handle:
            handle.write(scrape)
        for problem in validate_exposition(scrape):
            problems.append(f"/metrics exposition: {problem}")
        samples = parse_exposition(scrape)
        if not any(name.startswith("repro_child_") for name in samples):
            problems.append(
                "no repro_child_* counters in the scrape — the sandbox "
                "telemetry sidecar was not harvested"
            )
        for family in (
            "repro_service_queue_wait_seconds",
            "repro_service_attempt_seconds",
            # merged bucket by bucket from the sandbox child's registry
            "repro_child_constrained_execute_seconds",
        ):
            if f"{family}_count" not in samples:
                problems.append(f"histogram family {family} missing")
            if not any(
                name.startswith(f"{family}_bucket") for name in samples
            ):
                problems.append(f"{family} has no _bucket samples")

        # -- merged per-job trace ------------------------------------
        trace = json.loads(_get(f"{url}/jobs/{job_id}/trace"))
        with open(
            os.path.join(out_dir, f"{job_id}.trace.json"),
            "w",
            encoding="utf-8",
        ) as handle:
            json.dump(trace, handle, indent=2)
        events = trace.get("traceEvents", [])
        pids = {event.get("pid") for event in events if "pid" in event}
        if len(pids) < 2:
            problems.append(
                f"merged trace has pid lanes {sorted(pids)} — expected "
                "parent and sandbox child on distinct lanes"
            )

        timeline = json.loads(_get(f"{url}/jobs/{job_id}/timeline"))
        with open(
            os.path.join(out_dir, f"{job_id}.timeline.json"),
            "w",
            encoding="utf-8",
        ) as handle:
            json.dump(timeline, handle, indent=2)
        sources = {entry.get("source") for entry in timeline["timeline"]}
        if not any(str(s).startswith("sandbox") for s in sources):
            problems.append(
                f"timeline sources {sorted(map(str, sources))} carry no "
                "sandbox-child segment"
            )

        health = json.loads(_get(f"{url}/health"))
        with open(
            os.path.join(out_dir, "health.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(health, handle, indent=2)

        try:
            _post(f"{url}/drain", {})
        except (urllib.error.URLError, OSError):
            pass
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
        try:
            _, stderr = daemon.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            _, stderr = daemon.communicate()
            problems.append("daemon did not drain within 30s of SIGTERM")
        if keep_daemon_log and stderr:
            with open(
                os.path.join(out_dir, "daemon.stderr.txt"),
                "w",
                encoding="utf-8",
            ) as handle:
                handle.write(stderr)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="telemetry-artifacts",
        help="directory for the scrape/trace/timeline artifacts",
    )
    arguments = parser.parse_args()
    problems = run(arguments.out)
    for problem in problems:
        print(f"telemetry-smoke: FAIL: {problem}", file=sys.stderr)
    if problems:
        print(f"{len(problems)} telemetry check(s) failed", file=sys.stderr)
        return 1
    print(
        f"telemetry-smoke: all checks passed (artifacts in "
        f"{arguments.out}/)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
