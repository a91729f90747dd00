"""Durable job journal for the allocation service.

Every job the service accepts is persisted as one JSON file under
``<spool>/jobs/`` before the submitter gets an id back, and re-written
on every state transition, through the same atomic writer as
checkpoints, :func:`repro.durable.write_atomic`.  A crash at any
instant therefore leaves each job either absent (never accepted) or in
its last durable state — a job is never half-written and never lost.

Recovery (:meth:`JobJournal.recover`) is deliberately forgiving: a
record that fails to parse is renamed to ``<file>.corrupt`` and skipped
rather than wedging the daemon, and a job found in state ``running``
(the daemon died mid-attempt) is demoted back to ``queued`` so the
worker pool re-runs it.  The engines are deterministic, so the re-run
reproduces the interrupted answer bit-identically.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.durable import read_json, write_atomic
from repro.obs import get_metrics
from repro.obs.lockcheck import make_lock
from repro.obs.log import get_logger
from repro.resilience.faults import fault_point
from repro.sdf.serialization import SerializationError

JOB_FORMAT = "repro-service-job"
#: version 2 adds per-job resource ``limits`` (``memory_mb`` /
#: ``cpu_seconds``) and the ``sandbox_verdict`` of the last
#: process-isolated attempt; version-1 records are still readable
#: (the new fields default to empty) and are upgraded in place on the
#: next write.
JOB_VERSION = 2
_READABLE_VERSIONS = (1, JOB_VERSION)

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_CERTIFIED = "certified"
STATE_DEGRADED = "degraded"
STATE_FAILED = "failed"
STATE_QUARANTINED = "quarantined"

#: states a job can never leave
TERMINAL_STATES = frozenset(
    (STATE_CERTIFIED, STATE_DEGRADED, STATE_FAILED, STATE_QUARANTINED)
)
#: every state a journal record may carry
JOB_STATES = frozenset((STATE_QUEUED, STATE_RUNNING)) | TERMINAL_STATES


class JournalError(SerializationError):
    """A job record is missing, malformed or of an unknown version."""


def new_job_record(
    job_id: str,
    request: Dict[str, Any],
    canonical: Dict[str, Any],
    max_attempts: int,
    budget: Optional[Dict[str, Any]] = None,
    limits: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A fresh ``queued`` job record carrying the full request."""
    return {
        "format": JOB_FORMAT,
        "version": JOB_VERSION,
        "id": job_id,
        "state": STATE_QUEUED,
        "attempts": 0,
        "max_attempts": max_attempts,
        "request": request,
        "canonical": canonical,
        "budget": budget or {},
        "limits": limits or {},
        "rung": None,
        "verdict": None,
        "source": None,
        "reason": None,
        "result": None,
        "sandbox_verdict": None,
    }


def validate_job_record(data: Any, source: str) -> Dict[str, Any]:
    """Envelope + shape check for one journal record."""
    if not isinstance(data, dict) or data.get("format") != JOB_FORMAT:
        raise JournalError(
            "not a repro service job record", source=source, field="format"
        )
    if data.get("version") not in _READABLE_VERSIONS:
        raise JournalError(
            f"unsupported job record version {data.get('version')!r} "
            f"(this build reads versions {_READABLE_VERSIONS})",
            source=source,
            field="version",
        )
    if data["version"] < JOB_VERSION:
        # forward-compatible read: older records gain the version-2
        # fields with their defaults and are re-stamped on next write
        data.setdefault("limits", {})
        data.setdefault("sandbox_verdict", None)
        data["version"] = JOB_VERSION
    for key in ("id", "state", "attempts", "max_attempts", "request"):
        if key not in data:
            raise JournalError(
                f"job record is missing required field {key!r}",
                source=source,
                field=key,
            )
    if data["state"] not in JOB_STATES:
        raise JournalError(
            f"unknown job state {data['state']!r}",
            source=source,
            field="state",
        )
    return data


class JobJournal:
    """Atomic per-job persistence under ``<root>/jobs/``.

    Job ids are sequential (``job-000001`` ...); the counter resumes
    past the highest id found on disk so ids stay unique across daemon
    restarts.  No wall-clock timestamps are recorded — the journal, like
    every other artefact in the stack, is bit-reproducible.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.jobs_dir = os.path.join(root, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self._lock = make_lock("repro.service.journal.JobJournal._lock")
        # the id counter is the journal's only cross-thread state
        self._next = 1 + max(  # guarded-by: _lock
            (
                int(name[4:10])
                for name in os.listdir(self.jobs_dir)
                if name.startswith("job-")
                and name.endswith(".json")
                and name[4:10].isdigit()
            ),
            default=0,
        )

    def next_id(self) -> str:
        with self._lock:
            job_id = f"job-{self._next:06d}"
            self._next += 1
        return job_id

    def path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def write(self, record: Dict[str, Any]) -> str:
        """Atomically persist one record; returns its path.

        ``service.journal.write`` fires after the temp file is durable
        but before the rename — exactly like ``checkpoint.write`` — so
        an injected fault can never leave a truncated record behind.
        """
        validate_job_record(record, source=self.path(record.get("id", "?")))
        path = self.path(record["id"])
        try:
            write_atomic(
                path,
                json.dumps(record, indent=2),
                lambda: fault_point(
                    "service.journal.write",
                    job=record["id"],
                    state=record["state"],
                ),
            )
        except BaseException as error:
            get_logger().error(
                "journal.write_failed",
                job=record.get("id"),
                state=record.get("state"),
                detail=str(error),
            )
            raise
        get_metrics().counter("service.journal.writes")
        get_logger().debug(
            "journal.written", job=record["id"], state=record["state"]
        )
        return path

    def load(self, job_id: str) -> Dict[str, Any]:
        path = self.path(job_id)
        data = read_json(path, JournalError, "job record")
        return validate_job_record(data, source=path)

    def recover(self) -> Tuple[List[Dict[str, Any]], List[str]]:
        """All readable records (id order) plus quarantined file names.

        Unreadable record files are renamed to ``<file>.corrupt`` so the
        daemon keeps starting; the rename preserves the bytes for
        post-mortem inspection.
        """
        records: List[Dict[str, Any]] = []
        corrupted: List[str] = []
        for name in sorted(os.listdir(self.jobs_dir)):
            if name.endswith(".tmp"):
                # a crash inside the atomic-rename window leaves a
                # writer's temp file (<record>.<pid>.<tid>.tmp) behind;
                # the real record (old state) is intact, so the partial
                # write is safe to discard
                try:
                    os.unlink(os.path.join(self.jobs_dir, name))
                except OSError:
                    pass
                get_metrics().counter("service.journal.stale_tmp")
                continue
            if not (name.startswith("job-") and name.endswith(".json")):
                continue
            job_id = name[: -len(".json")]
            try:
                records.append(self.load(job_id))
            except JournalError as error:
                path = os.path.join(self.jobs_dir, name)
                try:
                    os.replace(path, path + ".corrupt")
                except OSError:
                    pass
                corrupted.append(name)
                get_metrics().counter("service.journal.corrupt")
                get_logger().warning(
                    "journal.corrupt_record",
                    file=name,
                    detail=str(error),
                )
        return records, corrupted
