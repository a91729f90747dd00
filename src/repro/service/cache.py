"""Verified, content-addressed result cache for the allocation service.

Entries are keyed by the SHA-256 digest of the request's canonical form
(:mod:`repro.service.canonical`), so isomorphic requests — same graph
and platform under renamed actors/channels/tiles — share one entry.
The digest is only the index, never the proof: a lookup compares the
stored canonical payload with the requester's byte-for-byte, so a hash
collision degrades to a miss instead of a wrong answer.

The cache is deliberately untrusted.  The service replays every hit
through :func:`repro.verify.certify_allocation` against the requester's
own application and architecture before serving it; a stored answer
that fails re-verification (bit rot, a stale format, a remapping bug)
is evicted and the job recomputed from scratch.  Read and write
failures — including injected ``service.cache.read`` faults — degrade
to misses: the cache can slow the service down, never corrupt it.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.durable import read_json, write_atomic
from repro.obs import get_metrics
from repro.resilience.faults import fault_point
from repro.sdf.serialization import SerializationError
from repro.service.canonical import CanonicalRequest

CACHE_FORMAT = "repro-service-cache-entry"
CACHE_VERSION = 1


class CacheError(SerializationError):
    """A cache entry is malformed or of an unknown version."""


class ResultCache:
    """One JSON file per canonical digest under ``<root>/cache/``."""

    def __init__(self, root: str) -> None:
        self.cache_dir = os.path.join(root, "cache")
        os.makedirs(self.cache_dir, exist_ok=True)

    def path(self, digest: str) -> str:
        return os.path.join(self.cache_dir, f"{digest}.json")

    def lookup(
        self, canonical: CanonicalRequest
    ) -> Optional[Dict[str, Any]]:
        """The stored entry for ``canonical``, or None.

        Raises :class:`CacheError` (or the injected fault) on a
        corrupted/faulted read; the service treats every lookup failure
        as a miss.
        """
        path = self.path(canonical.digest)
        fault_point("service.cache.read", key=canonical.digest)
        if not os.path.exists(path):
            return None
        data = read_json(path, CacheError, "cache entry")
        if not isinstance(data, dict) or data.get("format") != CACHE_FORMAT:
            raise CacheError(
                "not a repro cache entry", source=path, field="format"
            )
        if data.get("version") != CACHE_VERSION:
            raise CacheError(
                f"unsupported cache entry version {data.get('version')!r}",
                source=path,
                field="version",
            )
        if data.get("payload") != canonical.payload:
            # digest collision between non-identical canonical forms:
            # astronomically unlikely, but the comparison makes serving
            # a wrong answer impossible rather than improbable
            get_metrics().counter("service.cache.collisions")
            return None
        return data

    def store(
        self,
        canonical: CanonicalRequest,
        allocation: Dict[str, Any],
        rung: Optional[str],
        backend: str,
    ) -> str:
        """Atomically persist one answer under its canonical digest.

        ``backend`` names the allocator that computed the answer; the
        service serves an entry only to a service of the same backend.
        """
        path = self.path(canonical.digest)
        entry = {
            "format": CACHE_FORMAT,
            "version": CACHE_VERSION,
            "digest": canonical.digest,
            "payload": canonical.payload,
            "actor_order": list(canonical.actor_order),
            "channel_order": list(canonical.channel_order),
            "tile_order": list(canonical.tile_order),
            "rung": rung,
            "backend": backend,
            "allocation": allocation,
        }
        # two workers that computed isomorphic requests store one digest
        # at once; their temp files are their own, so the last rename
        # wins and the entry is always whole
        write_atomic(path, json.dumps(entry, indent=2))
        get_metrics().counter("service.cache.stores")
        return path

    def evict(self, digest: str) -> None:
        try:
            os.unlink(self.path(digest))
        except OSError:
            pass
        get_metrics().counter("service.cache.evictions")
