"""The engines reproduce the golden corpus exactly (``tests/engine_golden.py``).

The corpus was recorded from the four separate engine loops that the
execution kernel replaced; any change in states explored, rates,
periods, schedules, traces or certificate bytes fails here.
"""

import json

import pytest

from repro.resilience.budget import Budget
from repro.resilience.checkpoint import read_checkpoint, resume_from_checkpoint
from tests.engine_golden import FIXTURES, GOLDEN, RUNNERS, resume_outcome


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
    (entry,) = [e for e in golden["checkpoints"] if e["kind"] == kind]
    checkpoint = read_checkpoint(str(FIXTURES / entry["file"]))
    assert checkpoint["version"] == 1 and checkpoint["kind"] == kind
    resumed = resume_from_checkpoint(checkpoint, budget=Budget())
    assert resume_outcome(kind, resumed) == entry["out"]
