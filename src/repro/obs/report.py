"""Schema-versioned per-run reports.

A *run report* is the machine-readable record of one instrumented run:
what was executed (``label`` + free-form ``result``), the per-workload
measurements of a bench run, and an environment fingerprint (python,
platform, git sha, seed) that makes perf numbers comparable across
machines and commits.  ``repro-alloc bench`` emits its
``BENCH_<label>.json`` files in exactly this schema, and ``bench
--compare`` reads them back for regression detection (see
:mod:`repro.bench`).

The envelope mirrors the checkpoint format: ``format`` is
:data:`REPORT_FORMAT`, ``version`` is :data:`REPORT_VERSION`, files are
written atomically by :func:`repro.durable.write_atomic`, and
:func:`read_report` refuses anything it does not understand with a
typed :class:`ReportError`.  Everything inside a report is JSON-native
(:func:`build_report` normalises ``Fraction`` and friends through
:func:`repro.obs.metrics.to_json`), so reports round-trip bit-for-bit.

Full field reference: ``docs/FORMATS.md``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional

from repro.durable import read_json, write_atomic
from repro.obs.metrics import to_json

REPORT_FORMAT = "repro-run-report"
REPORT_VERSION = 1

__all__ = [
    "REPORT_FORMAT",
    "REPORT_VERSION",
    "ReportError",
    "build_report",
    "environment_fingerprint",
    "read_report",
    "write_report",
]


class ReportError(ValueError):
    """A run report is missing, malformed or of an unknown version."""


def _git_sha() -> Optional[str]:
    """The current commit's short sha, or None outside a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def environment_fingerprint(seed: Optional[int] = None) -> Dict[str, Any]:
    """Where and on what a run happened (JSON-ready).

    ``seed`` is the workload seed when the run used one; the git sha is
    best-effort (None when the code does not live in a git work tree).
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "seed": seed,
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else None,
    }


def build_report(
    label: str,
    result: Optional[Dict[str, Any]] = None,
    seed: Optional[int] = None,
    workloads: Optional[Any] = None,
) -> Dict[str, Any]:
    """Assemble a run report dict in the versioned schema.

    ``workloads`` is the per-workload measurement list of a bench run.
    Every value is normalised to JSON-native types, so the returned
    dict survives :func:`write_report` / :func:`read_report` unchanged.
    """
    report: Dict[str, Any] = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "label": label,
        "environment": environment_fingerprint(seed=seed),
    }
    if result is not None:
        report["result"] = result
    if workloads is not None:
        report["workloads"] = workloads
    # normalise non-JSON values (Fraction, inf) exactly the way a
    # metrics snapshot is written, so what read_report returns equals
    # what was built
    return json.loads(to_json(report, indent=None))


def write_report(path: str, report: Dict[str, Any]) -> str:
    """Atomically persist a report as JSON; returns ``path``.

    Refuses payloads without the :data:`REPORT_FORMAT` envelope so a
    stray dict can never masquerade as a run report.
    """
    if report.get("format") != REPORT_FORMAT:
        raise ReportError(
            f"refusing to write a payload without the {REPORT_FORMAT!r} "
            "envelope"
        )
    text = json.dumps(report, indent=2, default=str)
    return write_atomic(path, text + "\n")


def read_report(path: str) -> Dict[str, Any]:
    """Load and validate a report written by :func:`write_report`."""
    data = read_json(path, ReportError, "run report")
    if not isinstance(data, dict) or data.get("format") != REPORT_FORMAT:
        raise ReportError(f"{path!r} is not a repro run report")
    if data.get("version") != REPORT_VERSION:
        raise ReportError(
            f"unsupported run-report version {data.get('version')!r} "
            f"(this build reads version {REPORT_VERSION})"
        )
    return data
