"""Chaos soak: the service's promises under a seeded storm.

Three seeds, each at least twenty chaos events — children SIGKILLed
mid-search, children SIGSTOPped so only the watchdog can notice,
jobs sized to blow their own memory cap, journal writes dropped and
watchdog heartbeat reads blinded by probabilistic fault injection.
The invariants that must hold regardless of the seed:

* **No accepted job is lost** — every id a submitter ever got back
  reaches exactly one terminal state.
* **Every terminal job carries its evidence** — a certified/degraded
  job has its (independently certified) result bundle; a quarantined
  job has the :class:`~repro.service.sandbox.SandboxVerdict` of its
  final attempt.
* **The daemon outlives every child** — after the storm, a fresh job
  still completes ``certified``.
* **The journal replays bit-identically** — a restart over the same
  spool parses every record and rewrites none of them.

On failure the spool is copied to ``$REPRO_CHAOS_ARTIFACTS/<id>`` (if
set) for post-mortem; run ``make test-chaos`` locally.
"""

import os
import random

import pytest

from repro.resilience.faults import FaultInjector, FaultSpec
from repro.service import (
    AllocationService,
    RetryPolicy,
    TERMINAL_STATES,
    VERDICT_KINDS,
)
from repro.service.journal import JobJournal

from tests.chaos_helpers import (
    ChaosStorm,
    export_artifacts,
    submit_with_retry,
)
from tests.service_helpers import fast_request, oom_request, slow_request

pytestmark = [pytest.mark.chaos, pytest.mark.service]

SEEDS = (101, 102, 103)

CHAOS_SPECS = (
    # drop ~5% of journal renames: transitions must tolerate the loss
    FaultSpec(
        point="service.journal.write",
        error="runtime",
        times=None,
        probability=0.05,
    ),
    # blind ~2% of watchdog heartbeat reads: monitoring must shrug
    FaultSpec(
        point="service.sandbox.heartbeat",
        error="runtime",
        times=None,
        probability=0.02,
    ),
)


def _journal_bytes(spool):
    jobs_dir = os.path.join(spool, "jobs")
    return {
        name: open(os.path.join(jobs_dir, name), "rb").read()
        for name in sorted(os.listdir(jobs_dir))
        if name.endswith(".json")
    }


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
def test_chaos_soak_service_promises_hold(tmp_path, seed):
    spool = str(tmp_path / "spool")
    rng = random.Random(seed)
    service = AllocationService(
        spool,
        workers=2,
        isolation="process",
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
        heartbeat_interval=0.1,
        stall_timeout=2.0,
    ).start()
    storm = ChaosStorm(
        service,
        seed=seed,
        oom_request=oom_request(),
        min_events=20,
    )
    accepted = []
    try:
        with FaultInjector(specs=CHAOS_SPECS, seed=seed):
            # the victim workload: jobs slow enough to be mid-search
            # when the storm reaches for them
            for _ in range(6):
                application, architecture = slow_request(
                    macroblocks=rng.choice((24, 48, 96))
                )
                job_id = submit_with_retry(
                    service, application, architecture
                )
                if job_id is not None:
                    accepted.append(job_id)
            assert accepted, "no victim job was ever accepted"
            storm.start()
            assert storm.wait_min_events(timeout=240), (
                f"storm landed only {storm.events} in time"
            )
            accepted.extend(storm.accepted)
            for job_id in accepted:
                service.wait(job_id, timeout=300)
            storm.stop()

        # -- invariants, examined in calm air --------------------------
        # dropped journal writes leave disk lagging memory by design
        # (at-least-once: a crash would simply replay the job); flush
        # the authoritative in-memory states so the replay check below
        # exercises a fully durable journal
        for job_id in accepted:
            service.journal.write(service.job(job_id))

        assert storm.total_events >= 20, storm.events
        for job_id in accepted:
            record = service.job(job_id)
            assert record is not None, f"accepted {job_id} vanished"
            assert record["state"] in TERMINAL_STATES
            if record["state"] in ("certified", "degraded"):
                assert record["result"]["allocations"], job_id
            if record["state"] == "quarantined":
                verdict = record["sandbox_verdict"]
                assert verdict is not None, (
                    f"{job_id} quarantined without a sandbox verdict: "
                    f"{record['reason']}"
                )
                assert verdict["kind"] in VERDICT_KINDS

        # the daemon survived every child death: fresh work still runs
        application, architecture = fast_request()
        fresh = service.wait(
            service.submit(application, architecture), timeout=120
        )
        assert fresh["state"] == "certified"
        accepted.append(fresh["id"])
        service.drain(cancel_running=True)
        assert service.watchdog.handles() == []

        # the journal replays bit-identically: a restart over the same
        # spool parses every record and rewrites none of them
        before = _journal_bytes(spool)
        records, corrupted = JobJournal(spool).recover()
        assert corrupted == []
        assert {record["id"] for record in records} >= set(accepted)
        assert all(
            record["state"] in TERMINAL_STATES for record in records
        )
        reborn = AllocationService(spool, workers=2).start()
        try:
            reborn.wait_idle(timeout=60)
        finally:
            reborn.drain(cancel_running=True)
        assert _journal_bytes(spool) == before
    except BaseException:
        target = export_artifacts(spool, f"seed{seed}")
        if target:
            print(f"chaos spool preserved at {target}")
        raise
    finally:
        service.drain(cancel_running=True)
