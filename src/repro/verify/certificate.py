"""Schema validation for periodic-phase certificates.

A certificate is the compact evidence a throughput engine emits at the
moment it detects a recurrent state: the recurrent state itself, the
number of firings per actor inside one period, and the period length.
It is deliberately a plain JSON-native dict (lists, ints, strings) so
that it survives serialisation bit-for-bit and can be checked by code
that shares nothing with the engines (:mod:`repro.verify.replay`).

Two kinds exist:

* ``"self-timed"`` — emitted by
  :class:`repro.throughput.state_space.SelfTimedExecution` for one
  strongly connected component of an SDF or CSDF graph (*phased*, with
  per-phase times, when an actor of the component has several phases);
* ``"constrained"`` — emitted by the §8.2 engine
  (:mod:`repro.throughput.constrained`) for a binding-aware graph under
  static-order schedules and TDMA slices.

See ``docs/VERIFICATION.md`` for the full field reference.
"""

from __future__ import annotations

from typing import Any, Dict

CERTIFICATE_FORMAT = "repro-certificate"
CERTIFICATE_VERSION = 1


class CertificateFormatError(ValueError):
    """A certificate is structurally malformed (not merely wrong)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CertificateFormatError(message)


def _int_list(value: Any) -> bool:
    return isinstance(value, list) and all(
        isinstance(item, int) and not isinstance(item, bool) for item in value
    )


def validate_certificate(certificate: Any) -> Dict[str, Any]:
    """Check the envelope and per-kind structure; returns the certificate.

    Raises :class:`CertificateFormatError` on malformed input.  This is
    a *format* check only — whether the claimed periodic phase actually
    replays is :mod:`repro.verify.replay`'s job.
    """
    _require(isinstance(certificate, dict), "certificate must be an object")
    _require(
        certificate.get("format") == CERTIFICATE_FORMAT,
        f"certificate format must be {CERTIFICATE_FORMAT!r}",
    )
    _require(
        certificate.get("version") == CERTIFICATE_VERSION,
        f"unsupported certificate version {certificate.get('version')!r}",
    )
    kind = certificate.get("kind")
    _require(
        kind in ("self-timed", "constrained"),
        f"unknown certificate kind {kind!r}",
    )

    actors = certificate.get("actors")
    _require(
        isinstance(actors, list)
        and actors
        and all(isinstance(a, str) for a in actors),
        "certificate must list its actors",
    )
    channels = certificate.get("channels")
    _require(
        isinstance(channels, list)
        and all(isinstance(c, str) for c in channels),
        "certificate must list its channels",
    )
    times = certificate.get("execution_times")
    _require(
        isinstance(times, list) and len(times) == len(actors),
        "execution_times must have one entry per actor",
    )
    # a phased certificate lists each actor's per-phase times
    phased = "phases" in certificate
    phase_times = times if phased else [[tau] for tau in times]
    _require(
        all(_int_list(entry) and entry and min(entry) >= 0 for entry in phase_times),
        "execution times must be ints >= 0 (a list per actor if phased)",
    )

    period = certificate.get("period")
    _require(
        isinstance(period, int) and not isinstance(period, bool) and period > 0,
        "period must be a positive integer",
    )
    window_start = certificate.get("window_start")
    _require(
        isinstance(window_start, int) and window_start >= 0,
        "window_start must be a non-negative integer",
    )
    firings = certificate.get("firings")
    _require(
        isinstance(firings, dict)
        and set(firings) == set(actors)
        and all(
            isinstance(count, int) and count >= 0
            for count in firings.values()
        ),
        "firings must map every actor to a non-negative count",
    )
    tokens = certificate.get("tokens")
    _require(
        _int_list(tokens) and len(tokens) == len(channels),
        "tokens must be one int per channel",
    )
    _require(all(count >= 0 for count in tokens), "tokens must be >= 0")

    if kind == "self-timed":
        _require(
            isinstance(certificate.get("auto_concurrency"), bool),
            "self-timed certificate needs auto_concurrency",
        )
        active = certificate.get("active")
        _require(
            isinstance(active, list)
            and len(active) == len(actors)
            and all(_int_list(entry) for entry in active)
            and all(r > 0 for entry in active for r in entry),
            "active must hold positive remaining times per actor",
        )
        if phased:
            counts = [len(entry) for entry in phase_times]
            phases = certificate["phases"]
            in_flight = certificate.get("active_phases")
            _require(
                _int_list(phases)
                and isinstance(in_flight, list)
                and len(phases) == len(in_flight) == len(actors)
                and all(0 <= p < n for p, n in zip(phases, counts))
                and all(
                    _int_list(entry)
                    and len(entry) == len(firings)
                    and all(0 <= p < n for p in entry)
                    for entry, firings, n in zip(in_flight, active, counts)
                ),
                "phases and active_phases must give each actor's next phase "
                "and the phase of each firing in active",
            )
        return certificate

    # -- constrained ----------------------------------------------------
    tiles = certificate.get("tiles")
    _require(isinstance(tiles, list), "constrained certificate needs tiles")
    for index, tile in enumerate(tiles):
        where = f"tiles[{index}]"
        _require(isinstance(tile, dict), f"{where} must be an object")
        _require(isinstance(tile.get("name"), str), f"{where} needs a name")
        wheel = tile.get("wheel")
        _require(
            isinstance(wheel, int) and wheel > 0,
            f"{where}: wheel must be a positive integer",
        )
        size = tile.get("slice_size")
        _require(
            isinstance(size, int) and 0 <= size <= wheel,
            f"{where}: slice_size outside [0, wheel]",
        )
        offset = tile.get("slice_start", 0)
        _require(
            isinstance(offset, int) and 0 <= offset <= wheel - size,
            f"{where}: slice window does not fit the wheel",
        )
        periodic = tile.get("periodic")
        _require(
            isinstance(periodic, list)
            and periodic
            and all(isinstance(a, str) for a in periodic),
            f"{where}: periodic schedule part must be a non-empty list",
        )
        transient = tile.get("transient", [])
        _require(
            isinstance(transient, list)
            and all(isinstance(a, str) for a in transient),
            f"{where}: transient schedule part must be a list",
        )
        position = tile.get("position")
        _require(
            isinstance(position, int)
            and 0 <= position < len(transient) + len(periodic),
            f"{where}: position outside the folded schedule",
        )
    unscheduled = certificate.get("unscheduled_active")
    _require(
        isinstance(unscheduled, list)
        and len(unscheduled) == len(actors)
        and all(_int_list(entry) for entry in unscheduled)
        and all(r > 0 for entry in unscheduled for r in entry),
        "unscheduled_active must hold positive remaining work per actor",
    )
    tile_active = certificate.get("tile_active")
    _require(
        isinstance(tile_active, list) and len(tile_active) == len(tiles),
        "tile_active must have one entry per tile",
    )
    for entry in tile_active:
        _require(
            entry is None
            or (
                _int_list(entry)
                and len(entry) == 2
                and 0 <= entry[0] < len(actors)
                and entry[1] > 0
            ),
            "tile_active entries must be null or [actor_index, remaining>0]",
        )
    return certificate
