"""The engines reproduce the golden corpus exactly (``tests/engine_golden.py``).

The corpus was recorded from the four separate engine loops that the
execution kernel replaced, and extended from the kernel with the cases
that pin the start order at one instant; any change in states explored,
rates, periods, schedules, traces or certificate bytes fails here.
"""

import json

import pytest

from repro.resilience.budget import Budget, BudgetExceededError
from repro.resilience.checkpoint import read_checkpoint, resume_from_checkpoint
from repro.sdf.serialization import graph_from_dict
from repro.throughput.constrained import constrained_throughput
from tests.engine_golden import (
    FIXTURES,
    GOLDEN,
    RECURRENT_CHECKPOINT,
    RUNNERS,
    _tiles,
    resume_outcome,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_kernel_reproduces_golden_corpus(golden):
    graphs = golden["graphs"]
    mismatches = []
    for kind, cases in golden["cases"].items():
        for number, case in enumerate(cases):
            actual = RUNNERS[kind](case, graphs)
            if actual != case["out"]:
                mismatches.append(f"{kind}[{number}] ({case.get('source', '')})")
    assert not mismatches, f"{len(mismatches)} cases differ: {mismatches[:10]}"


@pytest.mark.parametrize("kind", ["state-space", "constrained"])
def test_v1_checkpoint_resumes_bit_identically(golden, kind):
    entries = [e for e in golden["checkpoints"] if e["kind"] == kind]
    assert entries
    for entry in entries:
        checkpoint = read_checkpoint(str(FIXTURES / entry["file"]))
        assert checkpoint["version"] == 1 and checkpoint["kind"] == kind
        resumed = resume_from_checkpoint(checkpoint, budget=Budget())
        assert resume_outcome(kind, resumed) == entry["out"], entry["file"]


def test_kernel_checkpoint_is_rewritten_byte_for_byte():
    # repeat the interruption that wrote the fixture: its budget breached
    # when it charged one state more than its limit
    text = (FIXTURES / RECURRENT_CHECKPOINT).read_text()
    recorded = json.loads(text)
    with pytest.raises(BudgetExceededError) as raised:
        constrained_throughput(
            graph_from_dict(recorded["graph"]),
            _tiles(recorded["tiles"]),
            max_states=recorded["max_states"],
            budget=Budget(max_states=recorded["budget"]["states_charged"] - 1),
        )
    checkpoint = raised.value.partial["checkpoint"]
    checkpoint["budget"]["elapsed"] = 0.0
    assert json.dumps(checkpoint) + "\n" == text
