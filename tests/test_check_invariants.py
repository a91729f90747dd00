"""Check 5 of ``tools/check_invariants.py``: every literal metric name
passed to ``.counter``, ``.gauge``, ``.histogram`` or ``.timer`` is in a
docs/OBSERVABILITY.md catalogue."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _checker():
    path = REPO / "tools" / "check_invariants.py"
    spec = importlib.util.spec_from_file_location("check_invariants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_five_flags_every_undocumented_metric_name(
    tmp_path, monkeypatch
):
    checker = _checker()
    monkeypatch.setattr(checker, "REPO", tmp_path)
    source = tmp_path / "instrumented.py"
    source.write_text(
        "obs.counter('state_space.states', 1)\n"
        "obs.gauge('state_space.period', 1)\n"
        "obs.histogram('constrained.execute_seconds', 0.1)\n"
        "with obs.timer('allocate.binding_seconds'):\n"
        "    pass\n"
        "obs.counter('nowhere.counter')\n"
        "obs.gauge('nowhere.gauge', 1)\n"
        "obs.histogram('nowhere.histogram_seconds', 0.1)\n"
        "with obs.timer('nowhere.timer_seconds'):\n"
        "    pass\n"
        "obs.gauge('state_space.states', 1)\n"
    )
    problems = checker.check_file(
        source, set(), set(), checker.documented_metrics(), set()
    )
    flagged = {}
    for problem in problems:
        where, message = problem.split(": ", 1)
        flagged[int(where.rsplit(":", 1)[1])] = message.split(" ")[:2]
    assert flagged == {
        6: ["counter", "'nowhere.counter'"],
        7: ["gauge", "'nowhere.gauge'"],
        8: ["histogram", "'nowhere.histogram_seconds'"],
        9: ["timer", "'nowhere.timer_seconds'"],
        # a counter's name does not document a gauge of that name
        11: ["gauge", "'state_space.states'"],
    }
