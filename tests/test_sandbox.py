"""Process isolation: sandbox verdicts, the watchdog and crash loops.

The blast-radius contract of ``docs/SERVICE.md``: with
``isolation="process"`` every attempt runs in a dedicated rlimited
child, a dead child is a typed retryable event (never a dead daemon),
and a reproducible death quarantines the job with its
:class:`~repro.service.sandbox.SandboxVerdict` attached.  The cheap
classification plumbing is tested pure (fake processes); the verdict
taxonomy itself is earned against real children that really OOM,
really spin and really get SIGKILLed.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import (
    AllocationService,
    CrashLoopDetector,
    RetryPolicy,
    SandboxFailure,
    SandboxVerdict,
    VERDICT_KINDS,
)
from repro.service import sandbox
from repro.service.sandbox import (
    EXIT_CPU,
    EXIT_OOM,
    EXIT_SPEC,
    SandboxHandle,
    _child_env,
    classify_exit,
    run_sandboxed,
)
from repro.service.watchdog import HEALTH_DEGRADED, HEALTH_OK, Watchdog

from tests.service_helpers import fast_request, oom_request, slow_request

pytestmark = pytest.mark.service

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0)
ONE_SHOT = RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0)


def _service(tmp_path, **overrides):
    options = {
        "workers": 1,
        "isolation": "process",
        "retry": FAST_RETRY,
        "heartbeat_interval": 0.1,
        "stall_timeout": 3.0,
    }
    options.update(overrides)
    return AllocationService(str(tmp_path / "spool"), **options).start()


def _live_child(service, timeout=30.0):
    """The first live sandboxed child the watchdog is tracking."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        for handle in service.watchdog.handles():
            if handle.alive():
                return handle
        time.sleep(0.02)
    raise AssertionError("no sandboxed child appeared")


# -- verdict dataclass ----------------------------------------------------


def test_verdict_round_trips_through_dict():
    verdict = SandboxVerdict(
        "oom", exit_status=40, peak_rss_kb=1234, beats=7, reason="boom"
    )
    assert SandboxVerdict.from_dict(verdict.to_dict()) == verdict


def test_verdict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown sandbox verdict"):
        SandboxVerdict("exploded")
    assert "exploded" not in VERDICT_KINDS


class _FakeProcess:
    def __init__(self, returncode):
        self.returncode = returncode
        self.pid = 99999

    def poll(self):
        return self.returncode

    def kill(self):
        pass


def _handle(returncode, **overrides):
    handle = SandboxHandle(
        job="job-000001",
        attempt=1,
        process=_FakeProcess(returncode),
        heartbeat_path=os.devnull,
        **overrides,
    )
    return handle


def test_classify_exit_taxonomy():
    assert classify_exit(_handle(0)).kind == "completed"
    assert classify_exit(_handle(EXIT_OOM)).kind == "oom"
    assert classify_exit(_handle(EXIT_CPU)).kind == "cpu-exceeded"
    assert classify_exit(_handle(-int(signal.SIGXCPU))).kind == (
        "cpu-exceeded"
    )
    crashed = classify_exit(_handle(-9))
    assert crashed.kind == "crashed"
    assert "signal 9" in crashed.reason
    assert classify_exit(_handle(1)).kind == "crashed"


def test_child_module_runs_once_under_python_m():
    # spawned as run_sandboxed spawns it: were the module imported with
    # the repro.service package, runpy would execute it a second time
    # as __main__ and warn on stderr, which -W error makes fatal
    child = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::RuntimeWarning",
            "-m",
            "repro.service.sandbox_child",
        ],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == EXIT_SPEC, child.stderr


def test_classify_exit_prefers_watchdog_kill_reason():
    # a SIGKILLed child exits -9 whatever the cause; the recorded kill
    # reason, not the raw status, names the enforcement that fired
    stalled = _handle(-9)
    stalled.kill("stalled")
    assert classify_exit(stalled).kind == "stalled"
    oom = _handle(-9, memory_mb=128)
    oom.kill("oom")
    oom.kill("stalled")  # second reason must not overwrite the first
    verdict = classify_exit(oom)
    assert verdict.kind == "oom"
    assert "128" in verdict.reason


def test_handle_stall_detection_uses_spawn_grace():
    handle = _handle(None, stall_timeout=0.05, spawn_grace=30.0)
    # no beat yet: covered by the spawn grace, not the stall window
    assert not handle.stalled()
    handle.beats = 1
    handle._last_progress = time.perf_counter() - 1.0
    assert handle.stalled()


def test_watchdog_kill_reason_precedence():
    """A child both over-memory and past-deadline dies exactly once.

    ``Watchdog._inspect`` checks memory before deadline, and
    ``SandboxHandle.kill`` records only the first reason — so the
    eventual verdict must name the OOM, however many enforcement
    conditions were true at the same poll.
    """
    from repro.obs import Metrics

    handle = _handle(None, memory_mb=64, deadline=0.001)
    # over-memory: last beat reports an RSS far above the 64 MB cap
    handle.last_beat = {"rss_kb": 999_999}
    handle.beats = 1
    # past-deadline: pretend the child was spawned long ago, while the
    # recent heartbeat keeps it out of the stall window
    handle.spawned_at = time.perf_counter() - 1000.0
    handle._last_progress = time.perf_counter()
    assert handle.over_memory() and handle.over_deadline()
    assert not handle.stalled()

    kills = []
    handle.process.kill = lambda: kills.append(1)

    watchdog = Watchdog(poll_interval=0.01)
    obs = Metrics()
    watchdog._inspect(handle, obs)

    # one SIGKILL, one verdict source: the memory check fired first
    assert kills == [1]
    assert handle.kill_reason == "oom"
    counters = obs.snapshot()["counters"]
    assert counters.get("sandbox.watchdog.oom_kills") == 1
    assert "sandbox.watchdog.deadline_kills" not in counters

    # a later kill for any other reason must not rewrite history
    handle.kill("deadline")
    assert handle.kill_reason == "oom"

    handle.process.returncode = -int(signal.SIGKILL)
    verdict = classify_exit(handle)
    assert verdict.kind == "oom"
    assert "64" in verdict.reason


# -- crash-loop detector --------------------------------------------------


def test_crash_loop_detector_flips_and_recovers():
    detector = CrashLoopDetector(window=4, threshold=2)
    assert detector.health() == HEALTH_OK
    detector.record(quarantined=True)
    assert not detector.degraded
    detector.record(quarantined=True)
    assert detector.degraded
    assert detector.health() == HEALTH_DEGRADED
    assert detector.snapshot()["recent_quarantines"] == 2
    # enough healthy completions push the quarantines out of the window
    for _ in range(4):
        detector.record(quarantined=False)
    assert detector.health() == HEALTH_OK


def test_crash_loop_detector_validates_shape():
    with pytest.raises(ValueError):
        CrashLoopDetector(window=0)
    with pytest.raises(ValueError):
        CrashLoopDetector(window=4, threshold=0)
    with pytest.raises(ValueError):
        CrashLoopDetector(window=2, threshold=3)


def test_watchdog_register_unregister_idempotent():
    watchdog = Watchdog(poll_interval=0.01)
    handle = _handle(None)
    watchdog.register(handle)
    watchdog.register(handle)
    assert watchdog.handles() == [handle]
    watchdog.unregister(handle)
    watchdog.unregister(handle)
    assert watchdog.handles() == []
    watchdog.stop()


# -- real children --------------------------------------------------------


def test_sandboxed_attempt_completes_with_verdict(tmp_path):
    service = _service(tmp_path)
    try:
        application, architecture = fast_request()
        record = service.wait(
            service.submit(application, architecture), timeout=120
        )
        assert record["state"] == "certified"
        assert record["source"] == "computed"
        verdict = record["sandbox_verdict"]
        assert verdict["kind"] == "completed"
        assert verdict["exit_status"] == 0
        assert verdict["beats"] >= 1
        assert verdict["peak_rss_kb"] > 0
        assert service.stats()["isolation"] == "process"
    finally:
        service.drain(cancel_running=True)


def _generated_requests(profile, seeds):
    """Seeded applications of a greedy-vs-exact harness ``profile`` on
    its 1x2 and 1x3 meshes, as request dicts."""
    from repro.appmodel.serialization import application_to_dict
    from repro.arch.serialization import architecture_to_dict
    from tests.test_differential_allocation import _application, _architecture

    return [
        (
            application_to_dict(_application(profile, seed)),
            architecture_to_dict(_architecture(seed)),
        )
        for seed in seeds
    ]


@pytest.mark.parametrize("backend", ["greedy", "exact"])
def test_thread_and_process_isolation_agree(tmp_path, backend):
    """Both isolation modes run one pipeline, so they give one answer:
    on fig. 5 and on three small and three heavy generated
    applications."""
    from tests.test_differential_allocation import HEAVY_PROFILE, SMALL_PROFILE

    requests = [
        fast_request(),
        *_generated_requests(SMALL_PROFILE, [0, 1, 2]),
        *_generated_requests(HEAVY_PROFILE, [60, 61, 62]),
    ]
    records = {}
    for isolation in ("thread", "process"):
        service = _service(
            tmp_path / isolation, isolation=isolation, backend=backend
        )
        try:
            jobs = [service.submit(*request) for request in requests]
            records[isolation] = [
                service.wait(job, timeout=120) for job in jobs
            ]
        finally:
            service.drain(cancel_running=True)
    for thread, process in zip(records["thread"], records["process"]):
        for key in ("result", "rung", "verdict"):
            assert thread[key] == process[key], key
        assert thread["source"] == process["source"] == "computed"
        assert process["sandbox_verdict"]["kind"] == "completed"


def test_unknown_backend_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="backend"):
        AllocationService(str(tmp_path / "spool"), backend="nope")


def test_oom_child_quarantines_with_oom_verdict(tmp_path):
    service = _service(tmp_path)
    try:
        application, architecture = oom_request()
        record = service.wait(
            service.submit(application, architecture, memory_mb=64),
            timeout=120,
        )
        assert record["state"] == "quarantined"
        assert record["attempts"] == FAST_RETRY.max_attempts
        assert record["sandbox_verdict"]["kind"] == "oom"
        assert record["sandbox_verdict"]["exit_status"] == EXIT_OOM
        # the daemon survived: a clean job still completes afterwards
        application, architecture = fast_request()
        healthy = service.wait(
            service.submit(application, architecture), timeout=120
        )
        assert healthy["state"] == "certified"
    finally:
        service.drain(cancel_running=True)


def test_capped_child_reports_its_own_peak_rss(tmp_path):
    """A child exec'd by a large daemon inherits the daemon's
    ``ru_maxrss``; were that its report, the watchdog would kill every
    capped child of a large daemon as over its memory cap."""
    ballast = bytearray(b"\1") * (96 * 1024 * 1024)  # resident, not just mapped
    service = _service(tmp_path)
    try:
        application, architecture = fast_request()
        record = service.wait(
            service.submit(application, architecture, memory_mb=64),
            timeout=120,
        )
        assert record["state"] == "certified"
        verdict = record["sandbox_verdict"]
        assert verdict["kind"] == "completed"
        assert 0 < verdict["peak_rss_kb"] < 64 * 1024
    finally:
        service.drain(cancel_running=True)
        del ballast


@pytest.mark.slow
def test_cpu_limit_quarantines_with_cpu_verdict(tmp_path):
    # the exact backend's search takes seconds of CPU on this request,
    # well past the limit; the greedy one ends close to it
    service = _service(tmp_path, retry=ONE_SHOT, backend="exact")
    try:
        application, architecture = slow_request(macroblocks=200)
        record = service.wait(
            service.submit(application, architecture, cpu_seconds=1),
            timeout=180,
        )
        assert record["state"] == "quarantined"
        assert record["sandbox_verdict"]["kind"] == "cpu-exceeded"
    finally:
        service.drain(cancel_running=True)


def test_sigkilled_child_is_retried_and_job_completes(tmp_path):
    service = _service(tmp_path)
    try:
        application, architecture = slow_request(macroblocks=160)
        job_id = service.submit(application, architecture)
        os.kill(_live_child(service).pid, signal.SIGKILL)
        record = service.wait(job_id, timeout=180)
        assert record["state"] == "certified"
        assert record["attempts"] == 2  # the killed attempt stays charged
        assert record["sandbox_verdict"]["kind"] == "completed"
    finally:
        service.drain(cancel_running=True)


@pytest.mark.slow
def test_stalled_child_is_killed_by_watchdog(tmp_path):
    service = _service(tmp_path, retry=ONE_SHOT, stall_timeout=2.0)
    try:
        application, architecture = slow_request()
        job_id = service.submit(application, architecture)
        child = _live_child(service)
        # the child beats once just before it starts the attempt: stop
        # it after that beat, so the stop lands in the attempt and the
        # stall window, not the spawn grace, decides the kill
        deadline = time.perf_counter() + 30
        while child.watch_stats()["beats"] < 1:
            assert time.perf_counter() < deadline, "child never beat"
            time.sleep(0.01)
        # SIGSTOP freezes the child mid-search: heartbeats cease but the
        # process stays alive — exactly the failure rlimits cannot catch
        os.kill(child.pid, signal.SIGSTOP)
        record = service.wait(job_id, timeout=120)
        assert record["state"] == "quarantined"
        assert record["sandbox_verdict"]["kind"] == "stalled"
        assert record["sandbox_verdict"]["beats"] >= 1
        assert record["sandbox_verdict"]["exit_status"] == -int(
            signal.SIGKILL
        )
    finally:
        service.drain(cancel_running=True)


def test_quarantine_storm_degrades_health(tmp_path):
    service = _service(
        tmp_path,
        retry=ONE_SHOT,
        crash_loop_window=4,
        crash_loop_threshold=2,
    )
    try:
        application, architecture = oom_request()
        assert service.stats()["health"] == HEALTH_OK
        for _ in range(2):
            record = service.wait(
                service.submit(application, architecture, memory_mb=64),
                timeout=120,
            )
            assert record["state"] == "quarantined"
        assert service.stats()["health"] == HEALTH_DEGRADED
    finally:
        service.drain(cancel_running=True)


def test_drain_parks_sandboxed_job_with_attempt_refunded(tmp_path):
    service = _service(tmp_path)
    application, architecture = slow_request(macroblocks=160)
    job_id = service.submit(application, architecture)
    _live_child(service)
    summary = service.drain(cancel_running=True)
    assert summary["cancelled"] == 1
    record = service.job(job_id)
    assert record["state"] == "queued"
    assert record["attempts"] == 0  # cancellation is the service's fault
    # and no orphaned child lingers past the drain
    assert service.watchdog.handles() == []


class _NullWatchdog:
    def register(self, handle):
        pass

    def unregister(self, handle):
        pass


def _spawn_instead(monkeypatch, source):
    """Make ``run_sandboxed`` spawn ``python -c source <request spec>``."""
    popen = subprocess.Popen
    monkeypatch.setattr(
        sandbox.subprocess,
        "Popen",
        lambda argv, **options: popen(
            [sys.executable, "-c", source, argv[-1]], **options
        ),
    )


def test_non_object_result_is_a_crashed_verdict(tmp_path, monkeypatch):
    """Valid JSON that is not an object is no outcome: the child
    crashed, exactly as if it had left a torn result."""
    _spawn_instead(
        monkeypatch,
        "import json, sys\n"
        "spec = json.load(open(sys.argv[1]))\n"
        "json.dump([1, 2], open(spec['result_path'], 'w'))\n",
    )
    with pytest.raises(SandboxFailure) as failure:
        run_sandboxed(
            str(tmp_path), "job-000001", 1, {}, {}, {}, _NullWatchdog()
        )
    assert failure.value.verdict.kind == "crashed"
    assert "not a JSON object" in failure.value.verdict.reason


def test_non_object_request_spec_exits_with_the_spec_code(tmp_path):
    from repro.service.sandbox_child import main

    path = tmp_path / "job-000001.a1.request.json"
    path.write_text("[1]")
    assert main([str(path)]) == EXIT_SPEC


def test_sandbox_spool_is_emptied_after_every_verdict(tmp_path, monkeypatch):
    service = _service(tmp_path, retry=ONE_SHOT)
    spool = tmp_path / "spool" / "sandbox"
    try:
        record = service.wait(service.submit(*fast_request()), timeout=120)
        assert record["sandbox_verdict"]["kind"] == "completed"
        assert os.listdir(spool) == []
        _spawn_instead(monkeypatch, "import sys; sys.exit(1)")
        record = service.wait(
            service.submit(*slow_request(macroblocks=4)), timeout=120
        )
        assert record["sandbox_verdict"]["kind"] == "crashed"
        assert os.listdir(spool) == []
    finally:
        service.drain(cancel_running=True)


def test_sandbox_failure_carries_verdict():
    verdict = SandboxVerdict("crashed", exit_status=-9, reason="killed")
    failure = SandboxFailure(verdict)
    assert failure.verdict is verdict
    assert "crashed" in str(failure)
