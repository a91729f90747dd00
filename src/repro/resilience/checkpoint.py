"""Crash-safe checkpointing of interrupted explorations.

When a :class:`~repro.resilience.budget.Budget` fires inside the
state-space driver, the raised ``BudgetExceededError`` carries
``error.partial["checkpoint"]``: a JSON-ready payload holding the graph,
the rates of the components finished so far, and the interrupted
engine's full frontier (visited-state map plus current state).  This
module persists that payload and turns it back into a running analysis:

* :func:`write_checkpoint` / :func:`read_checkpoint` — versioned JSON
  files, written by :func:`repro.durable.write_atomic` (so a crash or
  injected fault mid-write never leaves a truncated checkpoint behind)
  and read by :func:`repro.durable.read_json`;
* :func:`resume_from_checkpoint` — rebuilds the graph and continues the
  exploration **bit-identically**: the resumed
  :class:`~repro.throughput.state_space.ThroughputResult` has the same
  iteration rate, per-SCC rates, certificates and ``states_explored``
  as an uninterrupted run.

Flow-level checkpoints (kind ``"flow"``, written by
:func:`repro.core.flow.allocate_until_failure`) record committed
allocations and are resumed by the flow itself, not by this module.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Sequence, Union

from repro.durable import read_json, write_atomic
from repro.obs import get_metrics
from repro.obs.trace import get_trace
from repro.resilience.budget import Budget
from repro.resilience.faults import fault_point
from repro.sdf.serialization import SerializationError

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(SerializationError):
    """A checkpoint file is missing, malformed or of an unknown version."""


def write_checkpoint(path: str, data: Dict[str, Any]) -> str:
    """Atomically persist a checkpoint payload as JSON; returns ``path``.

    :func:`~repro.durable.write_atomic` renames a durable temp file
    into place, so readers only ever observe a complete file.  The
    payload must carry the standard envelope (``format``/``version``);
    payloads taken from ``error.partial["checkpoint"]`` already do.
    """
    if data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"refusing to write payload without the {CHECKPOINT_FORMAT!r} "
            "envelope",
            source=path,
            field="format",
        )
    text = json.dumps(data, indent=2)
    # the fault fires after the bytes are durable but before the
    # rename, so it must leave `path` untouched (tests/test_faults.py)
    write_atomic(
        path, text, lambda: fault_point("checkpoint.write", path=path)
    )
    obs = get_metrics()
    obs.counter("checkpoint.writes")
    obs.counter("checkpoint.bytes", len(text))
    tr = get_trace()
    if tr.enabled:
        tr.instant(
            "checkpoint",
            "write",
            path=path,
            bytes=len(text),
            kind=data.get("kind"),
        )
    return path


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Load and validate a checkpoint file written by :func:`write_checkpoint`."""
    fault_point("checkpoint.read", path=path)
    # truncated mid-write or overwritten with binary garbage: a typed
    # error naming the file, never a bare decode exception
    # (tests/test_checkpoint.py corrupts real checkpoints to pin this)
    data = read_json(path, CheckpointError, "checkpoint")
    if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            "not a repro checkpoint file", source=path, field="format"
        )
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {data.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})",
            source=path,
            field="version",
        )
    get_metrics().counter("checkpoint.reads")
    tr = get_trace()
    if tr.enabled:
        tr.instant("checkpoint", "read", path=path, kind=data.get("kind"))
    return data


def require_fields(
    payload: Dict[str, Any], fields: Sequence[str], where: str = ""
) -> None:
    """Raise :class:`CheckpointError` naming the first of ``fields``
    missing from ``payload`` (``where.field`` inside a nested object)."""
    for key in fields:
        if key not in payload:
            name = f"{where}.{key}" if where else key
            raise CheckpointError(
                f"checkpoint is missing required field {name!r} "
                "(truncated or hand-edited?)",
                field=name,
            )


def resume_from_checkpoint(
    checkpoint: Union[str, Dict[str, Any]],
    budget: Optional[Budget] = None,
    max_states: Optional[int] = None,
):
    """Continue an interrupted state-space analysis bit-identically.

    ``checkpoint`` is a path to a checkpoint file or an already-loaded
    payload (e.g. ``error.partial["checkpoint"]``).  ``budget`` bounds
    the *remaining* exploration (pass a fresh :class:`Budget`; the spent
    one is exhausted by definition); ``max_states`` overrides the cap
    recorded in the checkpoint.  Returns the completed
    :class:`~repro.throughput.state_space.ThroughputResult` for
    ``"state-space"`` checkpoints and the completed
    :class:`~repro.throughput.constrained.ConstrainedThroughputResult`
    for ``"constrained"`` ones.
    """
    # deferred imports: this module is a resilience leaf, the throughput
    # engines import it and the budget/fault siblings at module load
    from repro.csdf.serialization import csdf_from_dict, is_csdf_document
    from repro.sdf.repetition import DataflowGraph
    from repro.sdf.serialization import graph_from_dict
    from repro.throughput.constrained import (
        StaticOrderSchedule,
        TileConstraints,
        constrained_throughput,
    )
    from repro.throughput.state_space import throughput

    if isinstance(checkpoint, str):
        checkpoint = read_checkpoint(checkpoint)
    kind = checkpoint.get("kind")
    if kind == "flow":
        raise CheckpointError(
            "flow checkpoints are resumed by "
            "repro.core.flow.allocate_until_failure(resume=...), not by "
            "resume_from_checkpoint",
            field="kind",
        )
    if kind not in ("state-space", "constrained"):
        raise CheckpointError(
            f"unknown checkpoint kind {kind!r}", field="kind"
        )
    # a checkpoint that passed the envelope check can still have been
    # truncated by a partial copy or hand-edited: surface a typed error
    # with the missing field, not a KeyError (engines check engine_state)
    require_fields(
        checkpoint,
        ("graph", "max_states", "tiles")
        if kind == "constrained"
        else ("graph", "max_states", "execution_times", "auto_concurrency")
        + ("component_index", "scc_rates", "states"),
    )
    cap = max_states if max_states is not None else checkpoint["max_states"]
    get_metrics().counter("checkpoint.resumes")
    if kind == "constrained":
        for index, entry in enumerate(checkpoint["tiles"]):
            require_fields(
                entry, ["name", "wheel", "slice_size", "periodic"], f"tiles[{index}]"
            )
        tiles = [
            TileConstraints(
                name=entry["name"],
                wheel=entry["wheel"],
                slice_size=entry["slice_size"],
                slice_start=entry.get("slice_start", 0),
                schedule=StaticOrderSchedule(
                    periodic=tuple(entry["periodic"]),
                    transient=tuple(entry.get("transient", ())),
                ),
            )
            for entry in checkpoint["tiles"]
        ]
        return constrained_throughput(
            graph_from_dict(checkpoint["graph"]),
            tiles,
            max_states=cap,
            budget=budget,
            resume=checkpoint,
        )
    document = checkpoint["graph"]
    graph: DataflowGraph = (
        csdf_from_dict(document)
        if is_csdf_document(document)
        else graph_from_dict(document)
    )
    return throughput(
        graph,
        execution_times=checkpoint["execution_times"],
        auto_concurrency=checkpoint["auto_concurrency"],
        max_states=cap,
        budget=budget,
        resume=checkpoint,
    )
