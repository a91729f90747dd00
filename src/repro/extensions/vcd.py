"""VCD (Value Change Dump) export of execution traces.

Writes the firing intervals recorded by the constrained state-space
engine as an IEEE-1364 VCD waveform — one 1-bit signal per actor, high
while a firing is active — so a mapped application's schedule can be
inspected in any waveform viewer (GTKWave, Surfer, ...).  Tiles become
scopes, unscheduled connection/alignment actors live in a ``network``
scope.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.durable import write_atomic
from repro.throughput.constrained import TraceEvent

# Printable ASCII per the VCD grammar, minus the scalar value characters
# (0, 1, b, B, x, X, z, Z) so value-change lines parse unambiguously.
_IDENTIFIER_ALPHABET = (
    "!\"#$%&'()*+,-./23456789:;<=>?@ACDEFGHIJKLMNOPQRSTUVWY"
    "[\\]^_`acdefghijklmnopqrstuvwy{|}~"
)


def _identifier(index: int) -> str:
    """Compact VCD identifier codes (printable ASCII, base-94)."""
    digits = []
    index += 1
    while index:
        index, remainder = divmod(index - 1, len(_IDENTIFIER_ALPHABET))
        digits.append(_IDENTIFIER_ALPHABET[remainder])
    return "".join(reversed(digits))


def _sanitise(name: str) -> str:
    """VCD identifiers may not contain whitespace or '$'."""
    return name.replace(" ", "_").replace("$", "_")


def trace_to_vcd(
    events: Sequence[TraceEvent],
    timescale: str = "1 ns",
    comment: str = "repro constrained execution trace",
) -> str:
    """Render ``events`` as VCD text.

    Overlapping firings of the same actor (auto-concurrent connection
    actors) are merged into one high level spanning their union — VCD
    wires are binary, so concurrency depth is not representable per
    signal.
    """
    # group events by (scope, actor)
    signals: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    order: List[Tuple[str, str]] = []
    for event in events:
        scope = event.tile if event.tile is not None else "network"
        key = (scope, event.actor)
        if key not in signals:
            signals[key] = []
            order.append(key)
        signals[key].append((event.start, event.end))

    # merge overlapping intervals per signal
    merged: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    for key, intervals in signals.items():
        intervals.sort()
        collapsed: List[Tuple[int, int]] = []
        for start, end in intervals:
            end = max(end, start + 1)  # zero-width pulses become 1 unit
            if collapsed and start <= collapsed[-1][1]:
                collapsed[-1] = (
                    collapsed[-1][0],
                    max(collapsed[-1][1], end),
                )
            else:
                collapsed.append((start, end))
        merged[key] = collapsed

    lines = [
        f"$comment {comment} $end",
        f"$timescale {timescale} $end",
    ]
    identifiers: Dict[Tuple[str, str], str] = {}
    scopes: Dict[str, List[Tuple[str, str]]] = {}
    for key in order:
        scopes.setdefault(key[0], []).append(key)
    for index, key in enumerate(order):
        identifiers[key] = _identifier(index)
    for scope, keys in scopes.items():
        lines.append(f"$scope module {_sanitise(scope)} $end")
        for key in keys:
            lines.append(
                f"$var wire 1 {identifiers[key]} "
                f"{_sanitise(key[1])} $end"
            )
        lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    # change list: (time, value, identifier)
    changes: List[Tuple[int, int, str]] = []
    for key, intervals in merged.items():
        for start, end in intervals:
            changes.append((start, 1, identifiers[key]))
            changes.append((end, 0, identifiers[key]))
    changes.sort(key=lambda change: (change[0], change[1]))

    lines.append("$dumpvars")
    for key in order:
        lines.append(f"0{identifiers[key]}")
    lines.append("$end")
    current_time: Optional[int] = None
    for time, value, identifier in changes:
        if time != current_time:
            lines.append(f"#{time}")
            current_time = time
        lines.append(f"{value}{identifier}")
    if changes:
        lines.append(f"#{changes[-1][0] + 1}")
    return "\n".join(lines) + "\n"


def write_vcd(
    events: Sequence[TraceEvent],
    path: str,
    timescale: str = "1 ns",
) -> None:
    """Write ``events`` to ``path`` as a VCD file."""
    write_atomic(path, trace_to_vcd(events, timescale=timescale))
