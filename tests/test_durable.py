"""The one writer and the one reader of persisted files (repro.durable).

``write_atomic`` replaces a file whole through a per-thread temp file
that it fsyncs, and cleans the temp file up on any failure;
``read_json`` turns every way a file can fail to load into the caller's
typed error.  The tests pin that contract, then what it mends in the
modules that persist: two threads storing one cache entry, writers
that never fsynced, a request spec whose failed rename left its temp
file, and readers that let a non-UTF-8 file escape as a bare
``UnicodeDecodeError``.
"""

import json
import os
import stat
import subprocess
import sys
import threading

import pytest

from repro.durable import read_json, write_atomic
from repro.extensions.vcd import write_vcd
from repro.obs.metrics import Metrics
from repro.obs.report import ReportError, read_report
from repro.obs.telemetry import (
    FlightRecorder,
    TelemetryError,
    read_telemetry,
    write_telemetry,
)
from repro.obs.trace import TraceBuffer, write_chrome_trace
from repro.service import sandbox
from repro.service.cache import ResultCache
from repro.service.canonical import CanonicalRequest
from repro.service.sandbox import (
    SandboxFailure,
    run_sandboxed,
    write_request_spec,
)

NOT_UTF8 = b'{"format": "\xff\xfe"}'


def _temp_files(directory):
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


# -- the writer -------------------------------------------------------------


def test_write_atomic_replaces_the_file_whole(tmp_path):
    path = str(tmp_path / "doc.json")
    assert write_atomic(path, "first, and longer\n") == path
    write_atomic(path, "second\n")
    assert open(path, encoding="utf-8").read() == "second\n"
    assert os.listdir(tmp_path) == ["doc.json"]


def test_write_atomic_runs_the_hook_on_a_durable_temp_file(tmp_path):
    path = str(tmp_path / "doc.json")
    write_atomic(path, "old")
    seen = []

    def hook():
        (temp,) = _temp_files(tmp_path)
        seen.append(open(tmp_path / temp, encoding="utf-8").read())
        seen.append(open(path, encoding="utf-8").read())
        seen.append(temp)

    write_atomic(path, "new", before_replace=hook)
    assert seen[:2] == ["new", "old"]
    pid, tid = seen[2].split(".")[2:4]
    assert (int(pid), int(tid)) == (os.getpid(), threading.get_native_id())


def test_write_atomic_failure_leaves_the_target_and_no_temp(tmp_path):
    path = str(tmp_path / "doc.json")
    write_atomic(path, "old")

    def fail():
        raise RuntimeError("injected")

    with pytest.raises(RuntimeError, match="injected"):
        write_atomic(path, "new", before_replace=fail)
    assert open(path, encoding="utf-8").read() == "old"
    assert _temp_files(tmp_path) == []


def test_write_atomic_writes_a_pipe_in_place(tmp_path):
    pipe = str(tmp_path / "pipe")
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(open(pipe, encoding="utf-8").read())
    )
    reader.start()
    write_atomic(pipe, "streamed\n")
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == ["streamed\n"]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


# -- the reader -------------------------------------------------------------


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read thing: no thing at"),
        (b'{"torn": ', "is unreadable: not valid JSON"),
        (NOT_UTF8, "is unreadable: not valid JSON"),
    ],
    ids=["missing", "torn", "not-utf8"],
)
def test_read_json_raises_the_callers_error(tmp_path, content, message):
    class ThingError(Exception):
        pass

    path = tmp_path / "thing.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ThingError, match=message) as error:
        read_json(str(path), ThingError, "thing")
    assert str(path) in str(error.value)


def test_read_json_reads_what_write_atomic_wrote(tmp_path):
    path = str(tmp_path / "doc.json")
    write_atomic(path, json.dumps({"a": [1, "ü"]}))
    assert read_json(path, ValueError, "doc") == {"a": [1, "ü"]}


# -- what it mends ----------------------------------------------------------

ROUNDS = 300


@pytest.mark.service
def test_concurrent_stores_of_one_digest_leave_a_whole_entry(tmp_path):
    """Two workers that computed isomorphic requests store one digest at
    once: neither store fails and every lookup parses."""
    cache = ResultCache(str(tmp_path))
    canonical = CanonicalRequest(
        payload={"graph": "g"},
        digest="0" * 64,
        actor_order=("a",),
        channel_order=(),
        tile_order=("t",),
    )
    allocations = [{"pad": "x" * 16}, {"pad": "x" * 4096}]
    start, done = threading.Barrier(3), threading.Barrier(3)
    failures = []

    def writer(allocation):
        for _ in range(ROUNDS):
            start.wait(timeout=60)
            try:
                cache.store(canonical, allocation, "exact", "greedy")
            except Exception as error:  # a shared temp file: FileNotFoundError
                failures.append(repr(error))
            done.wait(timeout=60)

    threads = [
        threading.Thread(target=writer, args=(allocation,), daemon=True)
        for allocation in allocations
    ]
    unreadable = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for _ in range(ROUNDS):
            start.wait(timeout=60)
            done.wait(timeout=60)
            try:
                entry = cache.lookup(canonical)
                assert entry is not None
                assert entry["allocation"] in allocations
            except Exception as error:  # a torn entry: CacheError
                unreadable.append(repr(error))
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert unreadable == []
    assert _temp_files(cache.cache_dir) == []


WRITERS = {
    "write_chrome_trace": lambda path, root: write_chrome_trace(
        path, TraceBuffer(capacity=4)
    ),
    "write_telemetry": lambda path, root: write_telemetry(
        path, Metrics(), TraceBuffer(capacity=4)
    ),
    "FlightRecorder.dump": lambda path, root: FlightRecorder(root).dump(
        "job-000001", "quarantine", {}, []
    ),
    "write_vcd": lambda path, root: write_vcd([], path),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_every_document_writer_fsyncs(tmp_path, monkeypatch, name):
    synced = []
    real_fsync = os.fsync

    def counting_fsync(descriptor):
        synced.append(descriptor)
        real_fsync(descriptor)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    WRITERS[name](str(tmp_path / "doc"), str(tmp_path / "flightrec"))
    assert len(synced) == 1


def test_failed_request_spec_rename_leaves_no_temp(tmp_path, monkeypatch):
    def failing_replace(source, target):
        raise OSError("injected rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected"):
        write_request_spec(
            str(tmp_path / "job-000001.a1.request.json"),
            job="job-000001",
            attempt=1,
            spec={},
            budget={},
            limits={},
            heartbeat_path=str(tmp_path / "beat"),
            result_path=str(tmp_path / "result"),
            heartbeat_interval=0.1,
        )
    assert os.listdir(tmp_path) == []


def test_non_utf8_report_is_a_report_error(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(ReportError, match="not valid JSON"):
        read_report(str(path))


def test_non_utf8_telemetry_is_a_telemetry_error(tmp_path):
    path = tmp_path / "sidecar.json"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(TelemetryError, match="unreadable"):
        read_telemetry(str(path))


@pytest.mark.service
def test_non_utf8_sandbox_result_is_a_crashed_verdict(tmp_path, monkeypatch):
    """A child that exits 0 over a result that is not UTF-8 crashed,
    exactly like one that left a torn result."""
    child = (
        "import json, sys\n"
        "spec = json.load(open(sys.argv[1]))\n"
        "open(spec['result_path'], 'wb').write(%r)\n" % NOT_UTF8
    )
    popen = subprocess.Popen
    monkeypatch.setattr(
        sandbox.subprocess,
        "Popen",
        lambda argv, **options: popen(
            [sys.executable, "-c", child, argv[-1]], **options
        ),
    )

    class Watchdog:
        def register(self, handle):
            pass

        def unregister(self, handle):
            pass

    with pytest.raises(SandboxFailure) as failure:
        run_sandboxed(
            str(tmp_path), "job-000001", 1, {}, {}, {}, Watchdog()
        )
    assert failure.value.verdict.kind == "crashed"
    assert "result is unreadable" in failure.value.verdict.reason


def test_non_utf8_request_spec_exits_with_the_spec_code(tmp_path):
    from repro.exitcodes import EXIT_SPEC
    from repro.service.sandbox_child import main

    path = tmp_path / "job-000001.a1.request.json"
    path.write_bytes(NOT_UTF8)
    assert main([str(path)]) == EXIT_SPEC
