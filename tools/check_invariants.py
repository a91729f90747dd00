#!/usr/bin/env python3
"""AST-level repository invariants, run by ``make lint`` and CI.

The checks pin down drift that neither the test suite nor mypy can
notice, because nothing fails at runtime when they are violated — the
broken hook just silently never fires or the docs silently rot:

1. **Fault points are registered.**  Every ``fault_point("...")`` call
   site in ``src/`` names a point listed in
   ``repro.resilience.faults.KNOWN_FAULT_POINTS``.  A typo'd point
   would otherwise compile, run, and simply never be injectable.
2. **Trace events are documented.**  Every trace event emitted in
   ``src/`` (an ``.instant`` / ``.complete`` / ``.span`` call whose
   first two arguments are string literals — the ``(category, name)``
   pair) appears in the event catalogue table of
   ``docs/OBSERVABILITY.md``.
3. **No wall-clock reads outside the obs layer.**  ``time.time()`` is
   non-monotonic; engines and reports must use ``perf_counter`` or go
   through ``repro.obs``.  Both ``time.time(...)`` calls and
   ``from time import time`` imports are flagged outside
   ``src/repro/obs/``.
4. **Registered fault points are wired.**  The reverse of check 1:
   every point in ``KNOWN_FAULT_POINTS`` has at least one
   ``fault_point("...")`` call site somewhere under ``src/`` (the scan
   covers every package, including ``repro/service``).  A point whose
   hook was deleted would otherwise stay registered forever, and soak
   tests targeting it would silently inject nothing.
5. **Metric names are documented.**  Every literal name passed to a
   ``.counter("...")`` call under ``src/`` appears in the counter
   catalogue table of ``docs/OBSERVABILITY.md``, and every literal
   name passed to ``.gauge``, ``.histogram`` or ``.timer`` (a timer
   records one histogram observation) appears in its gauge and
   histogram catalogue table (in both, the family prefix in the first
   cell joined with each backticked suffix in the second).
   Dynamically composed names (f-strings) are skipped here and listed
   in the counter catalogue with their expanded values by hand.
6. **Locks are registered.**  No bare ``threading.Lock()`` /
   ``threading.RLock()`` allocation exists under ``src/`` outside
   ``repro/obs/lockcheck.py`` (every lock must flow through
   ``make_lock`` so the runtime sanitizer can wrap it), every
   ``make_lock("<name>")`` literal equals the allocation site's
   derived node name ``<module>.<Class>.<attr>`` (the join key between
   the static lock-order graph and the sanitizer's observed edges),
   and every lock site documents its discipline — at least one
   ``# guarded-by:`` annotation naming it, or a ``# guards:`` comment
   on the allocation.  Uses :mod:`repro.analysis.source`.
7. **Exit codes are single-sourced.**  The ``EXIT_CODES`` /
   ``SANDBOX_EXIT_CODES`` registry in ``src/repro/exitcodes.py``
   matches the "Exit codes" table of ``docs/ROBUSTNESS.md``
   cell-for-cell, every integer ``return`` literal in
   ``src/repro/cli.py`` is a registered code, the sandbox modules
   define no exit-code literals of their own, and every
   ``HTTP_EXIT_MAP`` value is a registered code.
8. **Extensions sit on top of the layering.**  No module under
   ``src/repro/`` outside ``repro/extensions/`` and ``repro/cli.py``
   imports ``repro.extensions`` (or a submodule), deferred imports
   inside functions included.  The follow-ups build on the allocator;
   an allocator that reached back up into them would make every
   ``repro.core`` user load them and tie the paper's strategy to
   their behaviour.
9. **One writer for persisted files.**  No ``os.fsync`` call and no
   ``open(...)`` whose mode literal (positional or ``mode=``) contains
   ``w`` or ``x`` appears under ``src/repro/`` outside
   ``repro/durable.py``.  Every document the program persists goes
   through ``repro.durable.write_atomic`` (per-thread temp file, fsync,
   ``os.replace``); a write that opened its target in place could leave
   it truncated, and a private copy of the protocol drifts from the
   others.  Append-mode streams (``"a"``) are not documents and pass.

Checks 1-5 and 7-9 are read from source with :mod:`ast` — they never
import the package, so they work on a broken tree and add no import
side effects.  Check 6 reuses the concurrency analyser
(``repro.analysis.source``), which is itself pure AST over the same
files.  Exit status: 0 when clean, 1 with one ``file:line:``
diagnostic per violation otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
FAULTS = SRC / "resilience" / "faults.py"
OBSERVABILITY = REPO / "docs" / "OBSERVABILITY.md"
ROBUSTNESS = REPO / "docs" / "ROBUSTNESS.md"
EXITCODES = SRC / "exitcodes.py"
CLI = SRC / "cli.py"
LOCKCHECK = SRC / "obs" / "lockcheck.py"
EXTENSIONS = SRC / "extensions"
DURABLE = SRC / "durable.py"
SANDBOX_MODULES = (
    SRC / "service" / "sandbox.py",
    SRC / "service" / "sandbox_child.py",
)

#: methods whose leading (str, str) arguments form a trace event
_TRACE_METHODS = ("instant", "complete", "span")


def known_fault_points() -> Set[str]:
    """``KNOWN_FAULT_POINTS`` parsed out of the faults module source."""
    tree = ast.parse(FAULTS.read_text(), filename=str(FAULTS))
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "KNOWN_FAULT_POINTS"
            ):
                value = node.value
                assert isinstance(value, (ast.Tuple, ast.List))
                return {
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                }
    raise SystemExit(f"KNOWN_FAULT_POINTS not found in {FAULTS}")


def _catalogue_pairs(marker: str) -> Set[Tuple[str, str]]:
    """(first-cell, name) pairs from one OBSERVABILITY catalogue table.

    A catalogue is the markdown table directly under the ``marker``
    heading (parsing stops at the next ``###`` heading): the first
    cell is the backtick-quoted category/family, the second cell lists
    the backtick-quoted names.
    """
    text = OBSERVABILITY.read_text()
    start = text.index(marker)
    end = text.find("\n### ", start + len(marker))
    section = text[start : end if end != -1 else len(text)]
    pairs: Set[Tuple[str, str]] = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 2 or not cells[0].startswith("`"):
            continue
        category = cells[0].strip("`")
        for name in re.findall(r"`([^`]+)`", cells[1]):
            pairs.add((category, name))
    if not pairs:
        raise SystemExit(
            f"no catalogue table under {marker!r} in {OBSERVABILITY}"
        )
    return pairs


def documented_events() -> Set[Tuple[str, str]]:
    """(category, event) pairs from the OBSERVABILITY event catalogue."""
    return _catalogue_pairs("### Event catalogue")


#: metric-recording method -> heading of the OBSERVABILITY catalogue
#: that must list its literal names (a timer records a histogram)
_METRIC_CATALOGUES = {
    "counter": "Counter catalogue",
    "gauge": "Gauge and histogram catalogue",
    "histogram": "Gauge and histogram catalogue",
    "timer": "Gauge and histogram catalogue",
}


def documented_metrics() -> Dict[str, Set[str]]:
    """Full dotted metric names per recording method, from the catalogues."""
    names = {
        heading: {
            f"{family}.{name}"
            for family, name in _catalogue_pairs(f"### {heading}")
        }
        for heading in set(_METRIC_CATALOGUES.values())
    }
    return {
        method: names[heading]
        for method, heading in _METRIC_CATALOGUES.items()
    }


def _string_args(call: ast.Call, count: int) -> List[str]:
    """The first ``count`` positional args, when all are str literals."""
    values = []
    for argument in call.args[:count]:
        if not (
            isinstance(argument, ast.Constant)
            and isinstance(argument.value, str)
        ):
            return []
        values.append(argument.value)
    return values if len(values) == count else []


def check_file(
    path: Path,
    fault_points: Set[str],
    events: Set[Tuple[str, str]],
    metrics: Dict[str, Set[str]],
    used_points: Set[str],
) -> List[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    relative = path.relative_to(REPO)
    in_obs = SRC / "obs" in path.parents
    problems: List[str] = []

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (
                node.module == "time"
                and any(alias.name == "time" for alias in node.names)
                and not in_obs
            ):
                problems.append(
                    f"{relative}:{node.lineno}: 'from time import time' "
                    "outside repro.obs (use perf_counter or the obs layer)"
                )
            continue
        if not isinstance(node, ast.Call):
            continue
        function = node.func
        if isinstance(function, ast.Name) and function.id == "fault_point":
            names = _string_args(node, 1)
            if names:
                used_points.add(names[0])
            if names and names[0] not in fault_points:
                problems.append(
                    f"{relative}:{node.lineno}: fault_point "
                    f"{names[0]!r} is not in KNOWN_FAULT_POINTS "
                    "(repro/resilience/faults.py)"
                )
        elif isinstance(function, ast.Attribute):
            if (
                function.attr == "time"
                and isinstance(function.value, ast.Name)
                and function.value.id == "time"
                and not in_obs
            ):
                problems.append(
                    f"{relative}:{node.lineno}: time.time() outside "
                    "repro.obs (use perf_counter or the obs layer)"
                )
            elif function.attr in _TRACE_METHODS:
                pair = _string_args(node, 2)
                if pair and tuple(pair) not in events:
                    problems.append(
                        f"{relative}:{node.lineno}: trace event "
                        f"({pair[0]!r}, {pair[1]!r}) is not in the "
                        "docs/OBSERVABILITY.md event catalogue"
                    )
            elif function.attr in metrics:
                names = _string_args(node, 1)
                if names and names[0] not in metrics[function.attr]:
                    problems.append(
                        f"{relative}:{node.lineno}: {function.attr} "
                        f"{names[0]!r} is not in the docs/OBSERVABILITY.md "
                        f"{_METRIC_CATALOGUES[function.attr]!r} table"
                    )
    return problems


def check_lock_registry() -> List[str]:
    """Check 6: every lock allocation obeys the guarded-by discipline."""
    sys.path.insert(0, str(REPO / "src"))
    try:
        from repro.analysis.source import lock_registry
    finally:
        sys.path.pop(0)
    problems: List[str] = []
    paths = sorted(str(p) for p in SRC.rglob("*.py"))
    for site in lock_registry(paths):
        where = f"{Path(site.path).resolve().relative_to(REPO)}:{site.line}"
        if site.declared is None:
            if Path(site.path).resolve() != LOCKCHECK:
                problems.append(
                    f"{where}: bare lock allocation for "
                    f"{site.cls}.{site.attr}; allocate it with "
                    "make_lock(...) so the lock sanitizer can wrap it"
                )
        elif site.declared != site.node:
            problems.append(
                f"{where}: make_lock name {site.declared!r} does not "
                f"match the site's derived node name {site.node!r}"
            )
        if not site.documented:
            problems.append(
                f"{where}: lock {site.cls}.{site.attr} documents no "
                "discipline: add `# guarded-by: "
                f"{site.attr}` annotations on the state it protects "
                "or a `# guards: ...` comment on the allocation"
            )
    # belt and braces: a lock allocated outside a class attribute would
    # be invisible to lock_registry, so flag every bare constructor call
    for path in SRC.rglob("*.py"):
        if path.resolve() == LOCKCHECK:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("Lock", "RLock")
                and isinstance(func.value, ast.Name)
                and func.value.id == "threading"
            ):
                problems.append(
                    f"{path.relative_to(REPO)}:{node.lineno}: "
                    "threading.Lock() outside repro.obs.lockcheck — "
                    "allocate locks with make_lock(...)"
                )
    return problems


def _exitcode_tables() -> Tuple[dict, dict, dict]:
    """``EXIT_CODES`` / ``SANDBOX_EXIT_CODES`` / ``HTTP_EXIT_MAP``,
    parsed from the registry module source."""
    tree = ast.parse(EXITCODES.read_text(), filename=str(EXITCODES))
    constants: dict = {}
    tables: dict = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, int):
            constants[target.id] = value.value
        elif isinstance(value, ast.Dict):
            table: dict = {}
            for key, val in zip(value.keys, value.values):
                if isinstance(key, ast.Constant):
                    resolved_key = key.value
                elif isinstance(key, ast.Name) and key.id in constants:
                    resolved_key = constants[key.id]
                else:
                    continue
                if isinstance(val, ast.Constant):
                    table[resolved_key] = val.value
                elif isinstance(val, ast.Name) and val.id in constants:
                    table[resolved_key] = constants[val.id]
            tables[target.id] = table
    for name in ("EXIT_CODES", "SANDBOX_EXIT_CODES", "HTTP_EXIT_MAP"):
        if name not in tables:
            raise SystemExit(f"{name} not found in {EXITCODES}")
    return (
        tables["EXIT_CODES"],
        tables["SANDBOX_EXIT_CODES"],
        tables["HTTP_EXIT_MAP"],
    )


def _documented_exit_codes() -> dict:
    """The ROBUSTNESS.md "### Exit codes" table as ``{code: meaning}``."""
    text = ROBUSTNESS.read_text()
    marker = "### Exit codes"
    start = text.index(marker)
    end = text.find("\n### ", start + len(marker))
    section = text[start : end if end != -1 else len(text)]
    table: dict = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 2 or not cells[0].startswith("`"):
            continue
        code = cells[0].strip("`")
        if code.isdigit():
            table[int(code)] = cells[1]
    if not table:
        raise SystemExit(
            f"no exit-code table under {marker!r} in {ROBUSTNESS}"
        )
    return table


def check_exit_codes() -> List[str]:
    """Check 7: the exit-code registry, docs and call sites agree."""
    problems: List[str] = []
    exit_codes, sandbox_codes, http_map = _exitcode_tables()
    documented = _documented_exit_codes()
    registry = {**exit_codes, **sandbox_codes}
    for code in sorted(set(registry) | set(documented)):
        if code not in documented:
            problems.append(
                f"{ROBUSTNESS.relative_to(REPO)}: exit code {code} "
                "is registered in repro/exitcodes.py but missing from "
                "the '### Exit codes' table"
            )
        elif code not in registry:
            problems.append(
                f"{ROBUSTNESS.relative_to(REPO)}: exit code {code} "
                "is documented but not registered in repro/exitcodes.py"
            )
        elif registry[code] != documented[code]:
            problems.append(
                f"{ROBUSTNESS.relative_to(REPO)}: exit code {code} "
                f"meaning {documented[code]!r} differs from the "
                f"registry's {registry[code]!r}"
            )
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Return)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
            and node.value.value not in exit_codes
        ):
            problems.append(
                f"{CLI.relative_to(REPO)}:{node.lineno}: return "
                f"{node.value.value} is not a registered CLI exit code "
                "(repro/exitcodes.py EXIT_CODES)"
            )
    for module in SANDBOX_MODULES:
        tree = ast.parse(module.read_text(), filename=str(module))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id.startswith("EXIT_")
                for t in node.targets
            ):
                problems.append(
                    f"{module.relative_to(REPO)}:{node.lineno}: "
                    "EXIT_* defined locally; import it from "
                    "repro.exitcodes instead"
                )
    for status, code in sorted(http_map.items()):
        if code not in exit_codes:
            problems.append(
                f"{EXITCODES.relative_to(REPO)}: HTTP_EXIT_MAP[{status}] "
                f"= {code} is not a registered CLI exit code"
            )
    return problems


def check_extension_layering() -> List[str]:
    """Check 8: only the CLI and the extensions import repro.extensions."""
    problems: List[str] = []
    for path in sorted(SRC.rglob("*.py")):
        if path == CLI or EXTENSIONS in path.parents:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(
                module.split(".")[:2] == ["repro", "extensions"]
                for module in modules
            ):
                problems.append(
                    f"{path.relative_to(REPO)}:{node.lineno}: imports "
                    "repro.extensions, which sits above every other "
                    "package (only repro/cli.py and repro/extensions/ "
                    "may import it)"
                )
    return problems


def _open_mode(call: ast.Call) -> str:
    """The literal mode of an ``open(...)`` call, positional or
    ``mode=`` ("" when it is not a string literal)."""
    mode = call.args[1] if len(call.args) > 1 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return ""


def check_durable_writes() -> List[str]:
    """Check 9: write-mode opens and fsyncs live in repro/durable.py."""
    problems: List[str] = []
    for path in sorted(SRC.rglob("*.py")):
        if path == DURABLE:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            where = f"{path.relative_to(REPO)}:{node.lineno}"
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _open_mode(node)
                if set(mode) & {"w", "x"}:
                    problems.append(
                        f"{where}: open(..., {mode!r}) outside "
                        "repro/durable.py; persist the file with "
                        "repro.durable.write_atomic"
                    )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "fsync"
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            ):
                problems.append(
                    f"{where}: os.fsync outside repro/durable.py; "
                    "persist the file with repro.durable.write_atomic"
                )
    return problems


def main() -> int:
    fault_points = known_fault_points()
    events = documented_events()
    metrics = documented_metrics()
    problems: List[str] = []
    used_points: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        problems.extend(
            check_file(path, fault_points, events, metrics, used_points)
        )
    for point in sorted(fault_points - used_points):
        problems.append(
            f"{FAULTS.relative_to(REPO)}: fault point {point!r} is "
            "registered in KNOWN_FAULT_POINTS but has no "
            "fault_point(...) call site under src/"
        )
    problems.extend(check_lock_registry())
    problems.extend(check_exit_codes())
    problems.extend(check_extension_layering())
    problems.extend(check_durable_writes())
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} invariant violation(s)")
        return 1
    print("repository invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
