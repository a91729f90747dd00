"""Prometheus text-format exposition for metrics snapshots.

:func:`render_prometheus` turns the JSON-ready snapshot produced by
``Metrics.snapshot()`` into the Prometheus text exposition format
(version 0.0.4): counters become ``<prefix>_<name>_total`` counter
families, numeric gauges become gauge families, and histograms
(durations among them, named ``*_seconds``) become cumulative
``_bucket{le=...}`` families.  Dots and other characters that are
invalid in Prometheus metric names are rewritten to underscores.

The service HTTP front end serves the rendered text on ``GET
/metrics``; :func:`validate_exposition` is the machine check used by the
CI telemetry smoke step (duplicate families, duplicate samples and
malformed lines are reported, not raised), and :func:`parse_exposition`
is the small reader used by the ``repro-alloc status`` view.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Tuple

__all__ = [
    "CONTENT_TYPE",
    "parse_exposition",
    "render_prometheus",
    "sanitize_metric_name",
    "validate_exposition",
]

#: Content type of the text exposition format served on ``/metrics``.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

# Exposition line shapes accepted by validate_exposition().
_HELP_LINE = re.compile(r"^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .*$")
_TYPE_LINE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(counter|gauge|summary|histogram|untyped)$"
)
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? "
    r"([0-9eE.+-]+|[+-]?Inf|NaN)$"
)
_LABELS = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_metric_name(name: str, prefix: str = "") -> str:
    """Map a dotted metric name onto a legal Prometheus name."""
    full = f"{prefix}.{name}" if prefix else name
    sanitized = _NAME_BAD_CHARS.sub("_", full)
    if not sanitized or not _NAME_OK.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # bools are ints; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def render_prometheus(snapshot: Dict[str, Any], prefix: str = "repro") -> str:
    """Render a metrics snapshot as Prometheus text exposition.

    Counter families whose sanitized names collide (``a.b`` vs ``a_b``)
    are summed; non-numeric gauges are skipped (the exposition format
    has no string samples).
    """
    lines: List[str] = []

    counters: Dict[str, float] = {}
    for name, value in snapshot.get("counters", {}).items():
        family = sanitize_metric_name(name, prefix) + "_total"
        counters[family] = counters.get(family, 0) + value
    for family in sorted(counters):
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family} {_format_value(counters[family])}")

    gauges: Dict[str, float] = {}
    for name, value in snapshot.get("gauges", {}).items():
        if not _is_number(value):
            continue
        gauges[sanitize_metric_name(name, prefix)] = value
    for family in sorted(gauges):
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_format_value(gauges[family])}")

    histograms = snapshot.get("histograms", {})
    for name in sorted(histograms):
        stat = histograms[name]
        family = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {family} histogram")
        cumulative = 0
        bounds = list(stat.get("buckets", []))
        counts = list(stat.get("counts", []))
        for index, bound in enumerate(bounds):
            cumulative += counts[index] if index < len(counts) else 0
            value = _format_value(cumulative)
            lines.append(f'{family}_bucket{{le="{_format_value(bound)}"}} {value}')
        total = stat.get("count", 0)
        lines.append(f'{family}_bucket{{le="+Inf"}} {_format_value(total)}')
        lines.append(f"{family}_sum {_format_value(stat.get('sum', 0.0))}")
        lines.append(f"{family}_count {_format_value(total)}")

    return "\n".join(lines) + "\n" if lines else ""


def _family_of(sample_name: str) -> str:
    """Strip summary/histogram suffixes to recover the family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def validate_exposition(text: str) -> List[str]:
    """Check exposition text; return a list of problems (empty = OK).

    Flags malformed lines, duplicate ``# TYPE`` declarations, duplicate
    samples (same name and label set), and families whose samples are
    interleaved with another family's (the format requires all samples
    of one family to be consecutive).
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    seen_samples: Dict[Tuple[str, str], int] = {}
    closed_families: set = set()
    current_family = ""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            type_match = _TYPE_LINE.match(line)
            if type_match:
                family = type_match.group(1)
                if family in typed:
                    problems.append(
                        f"line {number}: duplicate TYPE for family {family}"
                    )
                typed[family] = type_match.group(2)
                continue
            if _HELP_LINE.match(line) or line.startswith("# "):
                continue
            problems.append(f"line {number}: malformed comment: {line!r}")
            continue
        sample = _SAMPLE_LINE.match(line)
        if not sample:
            problems.append(f"line {number}: malformed sample: {line!r}")
            continue
        name, labels = sample.group(1), sample.group(2) or ""
        try:
            float(sample.group(3))
        except ValueError:
            if sample.group(3) not in ("+Inf", "-Inf", "NaN"):
                problems.append(
                    f"line {number}: bad sample value {sample.group(3)!r}"
                )
        key = (name, labels)
        if key in seen_samples:
            problems.append(
                f"line {number}: duplicate sample {name}{labels} "
                f"(first at line {seen_samples[key]})"
            )
        else:
            seen_samples[key] = number
        family = _family_of(name)
        if family != current_family:
            if family in closed_families:
                problems.append(
                    f"line {number}: family {family} has non-consecutive samples"
                )
            if current_family:
                closed_families.add(current_family)
            current_family = family
    return problems


def parse_exposition(text: str) -> Dict[str, float]:
    """Parse exposition text into ``{"name{labels}": value}``.

    Comment lines are skipped and malformed lines ignored — this is the
    forgiving reader behind ``repro-alloc status``, not a validator
    (use :func:`validate_exposition` for that).
    """
    samples: Dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            continue
        name, labels, value = match.group(1), match.group(2) or "", match.group(3)
        try:
            samples[name + labels] = float(value)
        except ValueError:
            continue
    return samples
