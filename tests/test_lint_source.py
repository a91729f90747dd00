"""The concurrency static analysis (``repro-alloc lint --source``).

The acceptance surface of docs/ANALYSIS.md ("Concurrency rules"):
each seeded fixture under ``tests/fixtures/source/`` fires exactly its
intended CON rule, the repository's own sources are clean, the static
lock-order graph joins the runtime sanitizer on equal node names and
is acyclic, SARIF output carries the CON rule metadata, and the
analyser never crashes on arbitrary syntactically valid modules.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import to_sarif
from repro.analysis.source import (
    analyse_source,
    default_source_paths,
    lock_order_graph,
    lock_registry,
    source_analysis,
)
from repro.cli import main
from repro.exitcodes import EXIT_LINT, EXIT_OK, EXIT_USER_ERROR

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "source")


def fixture(name):
    return os.path.join(FIXTURES, name)


# -- seeded fixtures: each fires exactly its rule --------------------------


@pytest.mark.parametrize(
    "name, rule",
    [
        ("con001_bad.py", "CON001"),
        ("con002_bad.py", "CON002"),
        ("con003_bad.py", "CON003"),
        ("con004_bad.py", "CON004"),
    ],
)
def test_bad_fixture_fires_exactly_its_rule(name, rule):
    report = analyse_source([fixture(name)])
    fired = {diagnostic.rule_id for diagnostic in report}
    assert fired == {rule}, report.render_text()


def test_clean_fixture_is_clean():
    report = analyse_source([fixture("clean.py")])
    assert len(report) == 0, report.render_text()


def test_con001_and_con004_are_errors_con002_con003_are_not():
    errors = analyse_source(
        [fixture("con001_bad.py"), fixture("con004_bad.py")]
    )
    assert errors.has_errors
    warnings = analyse_source(
        [fixture("con002_bad.py"), fixture("con003_bad.py")]
    )
    assert not warnings.has_errors
    assert len(warnings) == 2


def test_waiver_suppresses_a_finding(tmp_path):
    bad = open(fixture("con003_bad.py")).read()
    waived = bad.replace(
        "time.sleep(self.interval)",
        "time.sleep(self.interval)  # con-ok: CON003 deliberate pacing",
    )
    assert waived != bad
    path = tmp_path / "waived.py"
    path.write_text(waived)
    assert len(analyse_source([str(path)])) == 0


@pytest.mark.parametrize(
    "call",
    [
        "write_atomic(self.path, text)",
        "repro.durable.write_atomic(self.path, text)",
        "read_json(self.path, ValueError, 'state')",
        "repro.durable.read_json(self.path, ValueError, 'state')",
    ],
)
def test_persisting_under_a_lock_is_a_blocking_call(tmp_path, call):
    """The helpers open, fsync and rename: CON003 sees through them."""
    path = tmp_path / "store.py"
    path.write_text(
        "import threading\n"
        "import repro.durable\n"
        "from repro.durable import read_json, write_atomic\n"
        "\n"
        "\n"
        "class Store:\n"
        "    def __init__(self, path):\n"
        "        self._lock = threading.Lock()  # guards: the file\n"
        "        self.path = path\n"
        "\n"
        "    def save(self, text):\n"
        "        with self._lock:\n"
        f"            {call}\n"
    )
    fired = [diagnostic.rule_id for diagnostic in analyse_source([str(path)])]
    assert fired == ["CON003"]


def test_unparseable_source_raises_value_error(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    with pytest.raises(ValueError, match="cannot parse"):
        analyse_source([str(path)])


# -- the repository's own sources ------------------------------------------


def test_repository_sources_are_clean():
    report = analyse_source()
    assert len(report) == 0, report.render_text()


def test_static_lock_order_graph_is_acyclic_and_joins_make_lock_names():
    analysis = source_analysis()
    registry_nodes = {site.node for site in analysis.locks}
    # every graph endpoint is a registered lock allocation
    for node, successors in analysis.lock_graph.items():
        assert node in registry_nodes
        assert set(successors) <= registry_nodes
    # the service's fan-out to its collaborators is present
    service = "repro.service.service.AllocationService._lock"
    journal = "repro.service.journal.JobJournal._lock"
    assert journal in analysis.lock_graph.get(service, set())
    # acyclic: Kahn's algorithm consumes every node
    graph = {
        node: set(successors)
        for node, successors in analysis.lock_graph.items()
    }
    for successors in list(graph.values()):
        for node in successors:
            graph.setdefault(node, set())
    while graph:
        leaves = [n for n, succ in graph.items() if not succ]
        assert leaves, f"cycle among {sorted(graph)}"
        for leaf in leaves:
            del graph[leaf]
        for successors in graph.values():
            successors.difference_update(leaves)


def test_lock_registry_names_are_declared_and_documented():
    for site in lock_registry():
        if site.module == "repro.obs.lockcheck":
            continue  # the sanitizer's own internals hold plain locks
        assert site.declared == site.node, site
        assert site.documented, site


# -- CLI wiring -------------------------------------------------------------


def test_lint_source_cli_exits_clean(capsys):
    assert main(["lint", "--source"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_without_inputs_or_source_is_a_user_error(capsys):
    assert main(["lint"]) == EXIT_USER_ERROR
    assert "nothing to lint" in capsys.readouterr().err


def test_sarif_output_carries_con_rules(tmp_path):
    out = tmp_path / "source.sarif"
    code = main(
        ["lint", "--source", "--format", "sarif", "--out", str(out)]
    )
    assert code == EXIT_OK
    document = json.loads(out.read_text())
    rules = {
        rule["id"]
        for rule in document["runs"][0]["tool"]["driver"]["rules"]
    }
    assert {"CON001", "CON002", "CON003", "CON004"} <= rules


def test_sarif_results_locate_fixture_findings():
    report = analyse_source([fixture("con001_bad.py")])
    document = to_sarif(report)
    results = document["runs"][0]["results"]
    assert results and all(
        result["ruleId"] == "CON001" for result in results
    )
    uri = results[0]["locations"][0]["physicalLocation"][
        "artifactLocation"
    ]["uri"]
    assert uri.endswith("con001_bad.py")


def test_exit_code_6_on_error_findings_via_api():
    # the CLI maps has_errors onto EXIT_LINT; pin the pairing here
    report = analyse_source([fixture("con001_bad.py")])
    assert report.has_errors
    assert EXIT_LINT == 6


# -- never-crash property ---------------------------------------------------

_NAMES = st.sampled_from(["_lock", "_data", "_items", "value", "x"])
_GUARDS = st.sampled_from(
    ["", "  # guarded-by: _lock", "  # guards: the registry"]
)
_BODIES = st.sampled_from(
    [
        "pass",
        "return self._data",
        "with self._lock:\n            self._data += 1",
        "with self._lock:\n            time.sleep(0)",
        "while True:\n            break",
        "yield self._items",
    ]
)


@st.composite
def modules(draw):
    attr = draw(_NAMES)
    guard = draw(_GUARDS)
    body = draw(_BODIES)
    decl = draw(
        st.sampled_from(
            [
                "threading.Lock()",
                'make_lock("wrong.Name._lock")',
                "threading.RLock()",
                "[]",
            ]
        )
    )
    return (
        "import threading\nimport time\n"
        "from repro.obs.lockcheck import make_lock\n\n\n"
        "class Thing:\n"
        "    def __init__(self):\n"
        f"        self._lock = {decl}{guard}\n"
        f"        self.{attr} = 0{guard}\n\n"
        "    def method(self):\n"
        f"        {body}\n"
    )


@settings(max_examples=60, deadline=None)
@given(modules())
def test_analyser_never_crashes_on_valid_modules(tmp_path_factory, text):
    compile(text, "<fixture>", "exec")  # the strategy only emits valid code
    path = tmp_path_factory.mktemp("src") / "module.py"
    path.write_text(text)
    analysis = source_analysis([str(path)])
    for diagnostic in analysis.report:
        assert diagnostic.rule_id.startswith("CON")


def test_default_source_paths_cover_the_package():
    paths = default_source_paths()
    assert any(path.endswith("lockcheck.py") for path in paths)
    assert any(path.endswith("source.py") for path in paths)
    assert all(path.endswith(".py") for path in paths)
