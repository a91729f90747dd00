"""Acceptance e2e for the telemetry plane (docs/OBSERVABILITY.md).

One process-isolated daemon run must yield, for the same job:

1. a **valid Prometheus scrape** over HTTP carrying the harvested
   ``child.*`` counters, the child's harvested
   ``constrained.execute_seconds`` histogram and the queue-wait /
   attempt-latency histogram families, and
2. **one merged Chrome trace** with the service and the sandbox child
   on distinct pid lanes,

with every service log record correlated by job id.  This is the
in-process twin of ``tools/telemetry_smoke.py`` (which drives the real
``repro-alloc serve`` subprocess in CI).
"""

import io
import json
import threading
import urllib.request

import pytest

from repro.obs import collecting, tracing
from repro.obs.log import logging_to
from repro.obs.prom import (
    CONTENT_TYPE,
    parse_exposition,
    validate_exposition,
)
from repro.obs.telemetry import PARENT_PID
from repro.service import AllocationService, RetryPolicy
from repro.service.httpd import ServiceHTTPServer

from tests.service_helpers import fast_request

pytestmark = [pytest.mark.telemetry, pytest.mark.service]


def test_process_isolated_daemon_exposes_child_telemetry(tmp_path):
    log_stream = io.StringIO()
    with collecting(), tracing(), logging_to(log_stream, level="debug"):
        service = AllocationService(
            str(tmp_path / "spool"),
            workers=1,
            isolation="process",
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0),
            heartbeat_interval=0.1,
        ).start()
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            application, architecture = fast_request()
            job_id = service.submit(application, architecture)
            record = service.wait(job_id, timeout=120)
            assert record["state"] == "certified"

            # -- 1. the scrape ---------------------------------------
            with urllib.request.urlopen(f"{url}/metrics", timeout=10) as r:
                assert r.headers["Content-Type"] == CONTENT_TYPE
                scrape = r.read().decode("utf-8")
            assert validate_exposition(scrape) == []
            samples = parse_exposition(scrape)
            # the child's engine counters were harvested and summed
            # into the parent registry under the child.* namespace
            child_families = [
                name
                for name in samples
                if name.startswith("repro_child_") and name.endswith("_total")
            ]
            assert child_families, "no harvested child.* counters in scrape"
            assert samples["repro_service_telemetry_harvested_total"] >= 1
            # both latency histogram families and the child's engine
            # durations (merged bucket by bucket), with observations
            for family in (
                "repro_service_queue_wait_seconds",
                "repro_service_attempt_seconds",
                "repro_child_constrained_execute_seconds",
            ):
                assert samples[f"{family}_count"] >= 1
                assert any(
                    name.startswith(f"{family}_bucket") for name in samples
                )
            # scrape-time gauges from stats()
            assert "repro_service_queue_depth" in samples
            assert samples["repro_service_healthy"] == 1

            # -- 2. the merged trace ---------------------------------
            with urllib.request.urlopen(
                f"{url}/jobs/{job_id}/trace", timeout=10
            ) as r:
                document = json.loads(r.read())
            events = document["traceEvents"]
            pids = {e["pid"] for e in events if e.get("ph") != "M"}
            assert PARENT_PID in pids
            assert len(pids) >= 2, (
                f"expected parent + sandbox child pid lanes, got {pids}"
            )
            child_pids = pids - {PARENT_PID}
            # the child lane carries real engine events, not just marks
            assert any(
                e["pid"] in child_pids and e.get("ph") == "X"
                for e in events
            )
            # both lanes describe the same job: the parent lane carries
            # the job's service events
            parent_names = {
                e["name"] for e in events if e["pid"] == PARENT_PID
            }
            assert "job" in parent_names or "queue.wait" in parent_names

            # -- the timeline view merges both sources ---------------
            with urllib.request.urlopen(
                f"{url}/jobs/{job_id}/timeline", timeout=10
            ) as r:
                timeline = json.loads(r.read())["timeline"]
            sources = {entry["source"] for entry in timeline}
            assert "service" in sources
            assert any(str(s).startswith("sandbox-a") for s in sources)
            timestamps = [entry["timestamp"] for entry in timeline]
            assert timestamps == sorted(timestamps)

            # -- structured logs correlate by job id -----------------
            records = [
                json.loads(line)
                for line in log_stream.getvalue().splitlines()
            ]
            attempt_events = [
                r["event"] for r in records if r.get("job") == job_id
            ]
            assert "attempt.start" in attempt_events
            assert "attempt.end" in attempt_events
            assert "job.finished" in attempt_events
        finally:
            server.shutdown()
            server.server_close()
            service.drain(cancel_running=True)


def test_thread_isolation_has_no_child_lanes(tmp_path):
    """The same endpoints degrade gracefully without a sandbox child."""
    with collecting(), tracing():
        service = AllocationService(
            str(tmp_path / "spool"), workers=1, isolation="thread"
        ).start()
        try:
            application, architecture = fast_request()
            job_id = service.submit(application, architecture)
            assert service.wait(job_id, timeout=60)["state"] == "certified"
            document = service.job_chrome_trace(job_id)
            pids = {
                e["pid"]
                for e in document["traceEvents"]
                if e.get("ph") != "M"
            }
            assert pids == {PARENT_PID}
            timeline = service.timeline(job_id)
            assert {e["source"] for e in timeline} == {"service"}
        finally:
            service.drain(cancel_running=True)
