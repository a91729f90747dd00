"""The fault-tolerant allocation service (``make test-service``).

The robustness contract of ``docs/SERVICE.md``, piece by piece: durable
admission, supervised retry with quarantine, bounded-queue overload
rejection, journal-replay recovery, cancellation-checkpointing drain,
and a result cache whose hits are re-verified before being served.
"""

import json
import time
from pathlib import Path

import pytest

from repro.obs import collecting, to_json
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.resilience.policy import resilient_allocate
from repro.appmodel.serialization import (
    application_from_dict,
    bundle_to_dict,
)
from repro.arch.serialization import architecture_from_dict
from repro.sdf.serialization import SerializationError
from repro.service import (
    AllocationService,
    DrainingError,
    JobJournal,
    OverloadError,
    RetryPolicy,
    canonicalise_request,
)
from repro.service.journal import STATE_RUNNING, new_job_record

from tests.service_helpers import fast_request, rename_isomorphic, slow_request

pytestmark = pytest.mark.service

FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.1
)


@pytest.fixture()
def service(tmp_path):
    instance = AllocationService(
        str(tmp_path / "spool"), workers=2, retry=FAST_RETRY
    ).start()
    yield instance
    instance.drain(cancel_running=True)


def test_started_service_keeps_no_engine_checkpoints(service):
    assert not (Path(service.spool) / "checkpoints").exists()


def test_metrics_snapshot_stays_bounded_over_computed_jobs(tmp_path):
    """The registry holds aggregates only, durations in fixed-bucket
    histograms: more jobs leave the serialised snapshot the same size."""
    jobs_per_run = 128
    application, architecture = fast_request()
    service = AllocationService(str(tmp_path / "spool"), workers=1)
    jobs = 0

    def run(count):
        nonlocal jobs
        for _ in range(count):
            jobs += 1
            # a distinct constraint per job, so none is a cache hit
            application["throughput_constraint"] = f"1/{40 + jobs}"
            record = service.wait(
                service.submit(application, architecture), 60
            )
            assert record["source"] == "computed"

    with collecting() as metrics:
        service.start()
        try:
            run(jobs_per_run)
            after_n = len(to_json(metrics.snapshot()))
            run(jobs_per_run)
            after_2n = len(to_json(metrics.snapshot()))
        finally:
            service.drain(cancel_running=True)
    assert after_2n <= after_n + 1024


# -- happy path and the verified cache -------------------------------------


def test_job_completes_certified_and_journal_is_durable(service):
    application, architecture = fast_request()
    job_id = service.submit(application, architecture)
    record = service.wait(job_id, timeout=60)
    assert record["state"] == "certified"
    assert record["rung"] == "exact"
    assert record["verdict"] == "certified"
    assert record["source"] == "computed"
    assert record["result"]["allocations"][0]["binding"]
    # the journal holds the same terminal state, durably
    on_disk = service.journal.load(job_id)
    assert on_disk["state"] == "certified"


def test_isomorphic_resubmission_served_from_verified_cache(service):
    application, architecture = fast_request()
    first = service.wait(service.submit(application, architecture), 60)
    renamed = rename_isomorphic(application, seed=7)
    second = service.wait(service.submit(renamed, architecture), 60)
    assert second["source"] == "cache"
    assert second["state"] == "certified"
    assert second["verdict"] == "certified"  # re-verified, not trusted
    # the served answer speaks the requester's vocabulary
    renamed_actors = {a["name"] for a in renamed["graph"]["actors"]}
    binding = second["result"]["allocations"][0]["binding"]
    assert set(binding) == renamed_actors
    # and the allocation is materially the first one, renamed
    assert sorted(binding.values()) == sorted(
        first["result"]["allocations"][0]["binding"].values()
    )


def test_tampered_cache_entry_is_refuted_evicted_and_recomputed(service):
    application, architecture = fast_request()
    service.wait(service.submit(application, architecture), 60)
    canonical = canonicalise_request(application, architecture)
    path = service.cache.path(canonical.digest)
    with open(path) as handle:
        entry = json.load(handle)
    # corrupt the certified claim: a periodic phase one time unit longer
    entry["allocation"]["certificate"]["period"] += 1
    with open(path, "w") as handle:
        json.dump(entry, handle)
    record = service.wait(service.submit(application, architecture), 60)
    # the poisoned hit was refuted by re-verification and recomputed
    assert record["source"] == "computed"
    assert record["state"] == "certified"
    # the refuted entry was evicted and replaced by the fresh result
    with open(path) as handle:
        replaced = json.load(handle)
    assert replaced["allocation"]["certificate"]["period"] == (
        entry["allocation"]["certificate"]["period"] - 1
    )


def test_cache_entry_of_another_backend_is_a_miss(tmp_path):
    application, architecture = fast_request()

    def run(spool, backend):
        service = AllocationService(
            str(tmp_path / spool), workers=1, backend=backend
        ).start()
        try:
            return service.wait(service.submit(application, architecture), 60)
        finally:
            service.drain(cancel_running=True)

    assert run("shared", "greedy")["source"] == "computed"
    with collecting() as metrics:
        reused = run("shared", "exact")
    assert metrics.snapshot()["counters"]["service.cache.miss"] == 1
    assert reused["source"] == "computed"
    assert reused["result"] == run("fresh", "exact")["result"]
    # the recompute overwrote the greedy entry: exact now hits it
    assert run("shared", "exact")["source"] == "cache"


# -- admission control ----------------------------------------------------


def test_overload_rejects_submissions_beyond_queue_depth(tmp_path):
    service = AllocationService(
        str(tmp_path / "spool"),
        workers=1,
        max_queue_depth=1,
        retry=FAST_RETRY,
    ).start()
    try:
        application, architecture = slow_request()
        accepted = service.submit(application, architecture)
        deadline = time.perf_counter() + 30
        while service.stats()["active"] == 0:
            assert time.perf_counter() < deadline, "job never started"
            time.sleep(0.005)
        with pytest.raises(OverloadError):
            service.submit(application, architecture)
        # the accepted job is unaffected by the rejection
        assert service.wait(accepted, 120)["state"] == "certified"
    finally:
        service.drain(cancel_running=True)


def test_malformed_request_rejected_at_admission(service):
    application, architecture = fast_request()
    broken = dict(application)
    del broken["graph"]
    with pytest.raises(SerializationError):
        service.submit(broken, architecture)
    assert service.stats()["jobs"] == {}  # nothing was admitted


def test_draining_service_refuses_submissions(tmp_path):
    service = AllocationService(str(tmp_path / "spool"), workers=1).start()
    service.drain()
    application, architecture = fast_request()
    with pytest.raises(DrainingError):
        service.submit(application, architecture)


# -- retry, backoff, quarantine --------------------------------------------


def test_transient_worker_faults_are_retried_to_success(service):
    application, architecture = fast_request()
    with FaultInjector(
        specs=(
            FaultSpec(
                point="service.worker.run", error="runtime", times=2
            ),
        )
    ) as injector:
        job_id = service.submit(application, architecture)
        record = service.wait(job_id, timeout=60)
    assert record["state"] == "certified"
    assert record["attempts"] == 3  # two crashes + the success
    assert len(injector.injected) == 2


def test_poison_job_is_quarantined_not_retried_forever(service):
    application, architecture = fast_request()
    with FaultInjector(
        specs=(
            FaultSpec(
                point="service.worker.run", error="runtime", times=None
            ),
        )
    ) as injector:
        job_id = service.submit(application, architecture)
        record = service.wait(job_id, timeout=60)
    assert record["state"] == "quarantined"
    assert record["attempts"] == record["max_attempts"] == 3
    assert "InjectedFaultError" in record["reason"]
    assert len(injector.injected) == 3  # exactly max_attempts, then stop


def test_retry_delays_grow_and_carry_deterministic_jitter():
    policy = RetryPolicy(
        max_attempts=5, base_delay=0.1, factor=2.0, max_delay=1.0,
        jitter=0.25,
    )
    delays = [policy.delay(attempt, "job-000001") for attempt in (1, 2, 3)]
    assert delays[0] < delays[1] < delays[2]  # exponential growth
    for attempt, delay in zip((1, 2, 3), delays):
        raw = min(1.0, 0.1 * 2.0 ** (attempt - 1))
        assert raw <= delay <= raw * 1.25  # bounded jitter
        # deterministic: same job + attempt -> same delay
        assert delay == policy.delay(attempt, "job-000001")
    assert policy.delay(1, "job-000002") != delays[0]  # decorrelated
    assert policy.delay(9, "job-000001") <= 1.25  # capped


def test_infeasible_request_fails_terminally_without_retry(service):
    application, architecture = fast_request()
    application = dict(application)
    application["throughput_constraint"] = "1000000"  # absurd demand
    job_id = service.submit(application, architecture)
    record = service.wait(job_id, timeout=60)
    assert record["state"] == "failed"
    assert record["attempts"] == 1  # a genuine negative answer: no retry


# -- crash recovery via the journal ----------------------------------------


def test_queued_jobs_survive_daemon_restart(tmp_path):
    spool = str(tmp_path / "spool")
    application, architecture = fast_request()
    # simulate a daemon that accepted work and died before running it:
    # journal the job directly, then boot a service over the spool
    journal = JobJournal(spool)
    canonical = canonicalise_request(application, architecture)
    record = new_job_record(
        journal.next_id(),
        request={"application": application, "architecture": architecture},
        canonical=canonical.to_dict(),
        max_attempts=3,
    )
    journal.write(record)
    service = AllocationService(spool, workers=1, retry=FAST_RETRY).start()
    try:
        finished = service.wait(record["id"], timeout=60)
        assert finished["state"] == "certified"
    finally:
        service.drain(cancel_running=True)


def test_running_job_from_dead_daemon_is_requeued_and_finishes(tmp_path):
    spool = str(tmp_path / "spool")
    application, architecture = fast_request()
    journal = JobJournal(spool)
    canonical = canonicalise_request(application, architecture)
    record = new_job_record(
        journal.next_id(),
        request={"application": application, "architecture": architecture},
        canonical=canonical.to_dict(),
        max_attempts=3,
    )
    record["state"] = STATE_RUNNING  # the dead daemon was mid-attempt
    record["attempts"] = 1
    journal.write(record)
    service = AllocationService(spool, workers=1, retry=FAST_RETRY).start()
    try:
        finished = service.wait(record["id"], timeout=60)
        assert finished["state"] == "certified"
        assert finished["attempts"] == 2  # the lost attempt stays charged
    finally:
        service.drain(cancel_running=True)


def test_corrupted_journal_record_is_quarantined_not_fatal(tmp_path):
    spool = str(tmp_path / "spool")
    journal = JobJournal(spool)
    bad = tmp_path / "spool" / "jobs" / "job-000042.json"
    bad.write_text("{ truncated nonsense")
    service = AllocationService(spool, workers=1).start()
    try:
        assert service.stats()["jobs"] == {}  # booted cleanly regardless
        assert bad.with_suffix(".json.corrupt").exists()
        assert not bad.exists()
    finally:
        service.drain()


# -- graceful drain --------------------------------------------------------


def test_drain_cancels_running_job_and_restart_completes_identically(
    tmp_path,
):
    application, architecture = slow_request()
    # the uninterrupted reference, computed outside any service
    reference = resilient_allocate(
        application_from_dict(application),
        architecture_from_dict(architecture),
        budget=Budget(),
    )
    reference_bundle = json.loads(
        json.dumps(
            bundle_to_dict(
                architecture_from_dict(architecture),
                [reference.allocation],
                rungs=[reference.rung],
            )
        )
    )

    spool = str(tmp_path / "spool")
    service = AllocationService(spool, workers=1, retry=FAST_RETRY).start()
    job_id = service.submit(application, architecture)
    deadline = time.perf_counter() + 30
    while service.stats()["active"] == 0:
        assert time.perf_counter() < deadline, "job never started"
        time.sleep(0.005)
    time.sleep(0.2)  # let the engine get properly into its search
    outcome = service.drain(cancel_running=True)
    assert outcome["cancelled"] == 1
    parked = service.journal.load(job_id)
    assert parked["state"] == "queued"  # parked durably, not lost
    assert parked["attempts"] == 0  # cancellation refunds the attempt

    restarted = AllocationService(
        spool, workers=1, retry=FAST_RETRY
    ).start()
    try:
        record = restarted.wait(job_id, timeout=120)
        assert record["state"] == "certified"
        # deterministic engines: bit-identical to the uninterrupted run
        assert record["result"] == reference_bundle
    finally:
        restarted.drain(cancel_running=True)


def test_drain_is_idempotent_and_counts_parked_jobs(tmp_path):
    service = AllocationService(str(tmp_path / "spool"), workers=1).start()
    application, architecture = fast_request()
    job_id = service.submit(application, architecture)
    service.wait(job_id, timeout=60)
    first = service.drain()
    assert first == {"parked": 0, "cancelled": 0}
    assert service.drain() == {"parked": 0, "cancelled": 0}
