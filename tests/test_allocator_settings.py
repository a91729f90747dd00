"""Regression guard: every allocator setting has a caller.

:class:`~repro.core.strategy.ResourceAllocator` keeps a field only when
something outside the tests sets it: a rung of the degradation ladder
(:data:`~repro.resilience.policy.DEFAULT_LADDER`) overrides it, or the
CLI or the allocation service passes it.  The paper's knobs (the
Eqn. 2 weights, the early-stop band, the rebinding and refinement
passes) are all reached that way; a cycle-enumeration cap, an exact
slice-grid step and a buffer-trimming step once sat beside them with
no caller at all.  The tests pin both sets, read the construction sites
from source, and check that the removed parameters stay removed, the
ladder's ``Rung.baseline`` flag and its engine-frontier
``checkpoint_path`` among them (the baseline is the last rung by
position), and that every cycle enumeration defaults to one cap.
"""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.binding import bind_application
from repro.core.criticality import (
    CYCLE_LIMIT,
    actor_criticality,
    binding_order,
)
from repro.core.flow import allocate_until_failure
from repro.core.strategy import ResourceAllocator
from repro.exact import exact_search
from repro.resilience.policy import DEFAULT_LADDER, Rung, resilient_allocate
from repro.sdf import cycles
from repro.throughput.mcr import hsdf_iteration_rate
from repro.throughput.reference import reference_throughput

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _ladder_overrides():
    """The allocator fields some ``DEFAULT_LADDER`` rung sets."""
    knobs = [
        f.name for f in fields(Rung) if f.name not in ("name", "baseline")
    ]
    return {
        knob
        for rung in DEFAULT_LADDER
        for knob in knobs
        if getattr(rung, knob) is not None
    }


def _front_end_settings():
    """Keyword names of every ``ResourceAllocator(...)`` call in the CLI
    and the service."""
    paths = [SRC / "cli.py", *sorted((SRC / "service").glob("*.py"))]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "ResourceAllocator"
            ):
                names.update(k.arg for k in node.keywords if k.arg)
    return names


def test_every_allocator_field_has_a_caller():
    ladder, front_ends = _ladder_overrides(), _front_end_settings()
    assert ladder == {
        "optimise_binding",
        "refine_slices",
        "relaxation",
        "max_states",
    }
    assert front_ends == {"weights", "backend"}
    settable = ladder | front_ends
    orphans = [
        f.name for f in fields(ResourceAllocator) if f.name not in settable
    ]
    assert not orphans, (
        f"ResourceAllocator fields no ladder rung, CLI or service sets: "
        f"{orphans}"
    )


@pytest.mark.parametrize(
    "call, keyword",
    [
        (ResourceAllocator, "trim_buffers"),
        (ResourceAllocator, "cycle_limit"),
        (ResourceAllocator, "slice_step"),
        (exact_search, "slice_step"),
        (exact_search, "cycle_limit"),
        (bind_application, "cycle_limit"),
        (binding_order, "cycle_limit"),
        (actor_criticality, "cycle_limit"),
        (resilient_allocate, "ladder"),
        (resilient_allocate, "checkpoint_path"),
        (allocate_until_failure, "ladder"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_removed_settings_are_rejected(call, keyword):
    with pytest.raises(TypeError, match=keyword):
        call(**{keyword: None})


def test_rung_baseline_flag_is_rejected():
    with pytest.raises(TypeError, match="baseline"):
        Rung(name="x", baseline=True)


@pytest.mark.parametrize(
    "function",
    [
        cycles.per_actor_max_cycle_ratio,
        cycles.max_cycle_ratio,
        hsdf_iteration_rate,
        reference_throughput,
    ],
    ids=lambda function: function.__name__,
)
def test_cycle_enumerations_default_to_one_cap(function):
    limit = inspect.signature(function).parameters["limit"].default
    assert limit == cycles.CYCLE_LIMIT
    assert CYCLE_LIMIT is cycles.CYCLE_LIMIT
