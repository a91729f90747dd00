"""JSON serialisation of CSDF graphs.

Mirrors :mod:`repro.sdf.serialization`: per-actor phase execution-time
sequences and per-channel rate sequences are stored as JSON arrays.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.csdf.graph import CSDFGraph
from repro.sdf.repetition import Executable
from repro.sdf.serialization import SerializationError


def is_csdf_document(document: Dict[str, Any]) -> bool:
    """True when a graph document's channels (else its actors) are CSDF."""
    entries = document.get("channels", []) or document.get("actors", [])
    return any(
        isinstance(entry, dict)
        and ("productions" in entry or "execution_times" in entry)
        for entry in entries
    )


def csdf_to_dict(graph: Executable) -> Dict[str, Any]:
    """A JSON-serialisable dictionary of a CSDF (or one-phase SDF) graph."""
    return {
        "name": graph.name,
        "actors": [
            {"name": a.name, "execution_times": list(a.execution_times)}
            for a in graph.actors
        ],
        "channels": [
            {
                "name": c.name,
                "src": c.src,
                "dst": c.dst,
                "productions": list(c.productions),
                "consumptions": list(c.consumptions),
                "tokens": c.tokens,
            }
            for c in graph.channels
        ],
    }


def csdf_from_dict(
    data: Dict[str, Any], source: Optional[str] = None
) -> CSDFGraph:
    """Inverse of :func:`csdf_to_dict`.

    ``source`` (the file being parsed, when known) is stamped onto the
    graph together with per-element field provenance so lint findings
    can point back into the document.  A malformed document raises
    :class:`SerializationError`.
    """
    graph = CSDFGraph(data.get("name", "csdf"))
    graph.source = source
    try:
        for index, actor in enumerate(data.get("actors", [])):
            graph.add_actor(
                actor["name"], [int(t) for t in actor["execution_times"]]
            )
            graph.provenance[("actor", actor["name"])] = f"actors[{index}]"
        for index, channel in enumerate(data.get("channels", [])):
            graph.add_channel(
                channel["name"],
                channel["src"],
                channel["dst"],
                [int(r) for r in channel["productions"]],
                [int(r) for r in channel["consumptions"]],
                int(channel.get("tokens", 0)),
            )
            graph.provenance[("channel", channel["name"])] = f"channels[{index}]"
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"bad CSDF document: {error}", source=source
        ) from error
    return graph


def csdf_to_json(graph: CSDFGraph, indent: int = 2) -> str:
    return json.dumps(csdf_to_dict(graph), indent=indent)


def csdf_from_json(text: str, source: Optional[str] = None) -> CSDFGraph:
    return csdf_from_dict(json.loads(text), source=source)
