"""Transport self-defence and client backoff plumbing.

The HTTP layer's own robustness obligations, separate from the service
behind it: bounded request bodies (413 before a byte of an oversized
body is read), honest ``Retry-After`` advice on 429, and an
``endpoint.json`` announcement that never outlives the daemon — stale
files are removed at startup, clean shutdowns retract the file, and a
``submit`` against a retracted spool fails fast with advice instead of
dialling a dead port.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.service import AllocationService, RetryPolicy
from repro.service.httpd import MAX_BODY_BYTES, ServiceHTTPServer

from tests.service_helpers import fast_request, slow_request
from tests.test_service_recovery import (
    _daemon_env,
    _get,
    _start_daemon,
)

pytestmark = pytest.mark.service


@pytest.fixture
def server(tmp_path):
    service = AllocationService(
        str(tmp_path / "spool"),
        workers=1,
        max_queue_depth=1,
        retry=RetryPolicy(max_attempts=1, base_delay=0.05, jitter=0.0),
    ).start()
    httpd = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.drain(cancel_running=True)
        thread.join(timeout=10)


def _raw_post(httpd, headers, body=b""):
    """POST /jobs with exact header control; returns (status, payload)."""
    host, port = httpd.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.putrequest("POST", "/jobs")
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders()
        if body:
            connection.send(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_missing_content_length_is_rejected_413(server):
    status, payload = _raw_post(server, {})
    assert status == 413
    assert "Content-Length is required" in payload["error"]


def test_oversized_content_length_is_rejected_413_unread(server):
    # the handler must reject on the header alone — no body is sent
    status, payload = _raw_post(
        server, {"Content-Length": str(MAX_BODY_BYTES + 1)}
    )
    assert status == 413
    assert str(MAX_BODY_BYTES) in payload["error"]


def test_malformed_content_length_is_rejected_400(server):
    status, payload = _raw_post(server, {"Content-Length": "a lot"})
    assert status == 400
    assert "Content-Length" in payload["error"]


def test_within_bounds_body_is_accepted(server):
    application, architecture = fast_request()
    body = json.dumps(
        {"application": application, "architecture": architecture}
    ).encode("utf-8")
    status, payload = _raw_post(
        server, {"Content-Length": str(len(body))}, body
    )
    assert status == 202
    assert payload["id"].startswith("job-")


def test_429_carries_retry_after_header_and_field(server):
    service = server.service
    application, architecture = slow_request(macroblocks=160)
    service.submit(application, architecture)  # fills the depth-1 queue
    body = json.dumps(
        {"application": application, "architecture": architecture}
    ).encode("utf-8")
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request(
            "POST",
            "/jobs",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    assert response.status == 429
    advertised = int(response.headers["Retry-After"])
    assert advertised >= 1
    assert payload["retry_after"] == advertised


def test_health_reports_isolation_and_crash_loop(server):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", "/health")
        payload = json.loads(connection.getresponse().read())
    finally:
        connection.close()
    assert payload["health"] == "ok"
    assert payload["isolation"] in ("thread", "process")
    assert payload["crash_loop"]["recent_quarantines"] == 0


# -- endpoint.json lifecycle (real daemon) --------------------------------


def test_stale_endpoint_is_replaced_and_shutdown_retracts(tmp_path):
    spool = str(tmp_path / "spool")
    os.makedirs(spool)
    endpoint_path = os.path.join(spool, "endpoint.json")
    with open(endpoint_path, "w") as handle:
        json.dump(
            {"host": "127.0.0.1", "port": 1, "url": "http://127.0.0.1:1"},
            handle,
        )
    process, url = _start_daemon(spool)
    try:
        # the stale announcement is gone; the new one answers /health
        with open(endpoint_path) as handle:
            announced = json.load(handle)
        assert announced["url"] == url
        assert announced["port"] != 1
        assert _get(f"{url}/health")["accepting"]
    finally:
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    # a clean shutdown retracts the announcement entirely
    assert not os.path.exists(endpoint_path)


def test_submit_fails_fast_without_endpoint(tmp_path):
    spool = str(tmp_path / "spool")
    os.makedirs(spool)
    application, architecture = fast_request()
    app_path = tmp_path / "app.json"
    arch_path = tmp_path / "arch.json"
    app_path.write_text(json.dumps(application))
    arch_path.write_text(json.dumps(architecture))
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "submit",
            str(app_path),
            str(arch_path),
            "--spool",
            spool,
        ],
        env=_daemon_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 2
    assert "no endpoint.json" in completed.stderr
    assert "repro-alloc serve" in completed.stderr


@pytest.mark.slow
def test_submit_wait_honours_retry_after_on_429(tmp_path):
    spool = str(tmp_path / "spool")
    application, architecture = slow_request()
    app_path = tmp_path / "app.json"
    arch_path = tmp_path / "arch.json"
    app_path.write_text(json.dumps(application))
    arch_path.write_text(json.dumps(architecture))
    process, url = _start_daemon(
        spool,
        extra=("--max-queue", "1", "--isolation", "thread"),
    )
    try:
        first = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "submit",
                str(app_path),
                str(arch_path),
                "--spool",
                spool,
            ],
            env=_daemon_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert first.returncode == 0, first.stderr
        # the queue is now full: a --wait submitter backs off per the
        # advertised Retry-After and eventually gets through
        second = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "submit",
                str(app_path),
                str(arch_path),
                "--spool",
                spool,
                "--wait",
                "--timeout",
                "120",
            ],
            env=_daemon_env(),
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert second.returncode == 0, second.stderr
        assert "retrying in" in second.stderr
        assert "Retry-After" in second.stderr
        record = json.loads(second.stdout)
        assert record["state"] == "certified"
        assert record["source"] == "cache"  # same request, already proved
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
