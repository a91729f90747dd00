"""Unit tests for the schema-versioned run-report format."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.report import (
    REPORT_FORMAT,
    REPORT_VERSION,
    ReportError,
    build_report,
    environment_fingerprint,
    read_report,
    write_report,
)


class TestEnvironmentFingerprint:
    def test_fingerprint_has_the_documented_keys(self):
        fingerprint = environment_fingerprint(seed=7)
        assert set(fingerprint) == {
            "python",
            "implementation",
            "platform",
            "machine",
            "git_sha",
            "seed",
            "argv0",
        }
        assert fingerprint["seed"] == 7

    def test_fingerprint_is_json_native(self):
        json.dumps(environment_fingerprint())


class TestBuildReport:
    def test_envelope_and_label(self):
        report = build_report("smoke")
        assert report["format"] == REPORT_FORMAT
        assert report["version"] == REPORT_VERSION
        assert report["label"] == "smoke"
        assert "environment" in report

    def test_only_result_seed_and_workloads_are_accepted(self):
        for retired in ("metrics", "trace", "budget"):
            with pytest.raises(TypeError):
                build_report("smoke", **{retired: {}})

    def test_fraction_values_are_normalised(self):
        from fractions import Fraction

        report = build_report(
            "smoke", result={"rate": Fraction(1, 3)}
        )
        assert report["result"]["rate"] == "1/3"
        json.dumps(report)  # fully JSON-native after normalisation


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "report.json")
        report = build_report("smoke", result={"answer": 42})
        assert write_report(path, report) == path
        assert read_report(path) == report

    def test_write_refuses_unenveloped_payloads(self, tmp_path):
        with pytest.raises(ReportError):
            write_report(str(tmp_path / "r.json"), {"label": "x"})

    def test_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(str(path), build_report("smoke"))
        assert list(tmp_path.iterdir()) == [path]

    def test_read_missing_file_raises(self, tmp_path):
        with pytest.raises(ReportError, match="cannot read"):
            read_report(str(tmp_path / "absent.json"))

    def test_read_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ReportError, match="not valid JSON"):
            read_report(str(path))

    def test_read_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ReportError, match="not a repro run report"):
            read_report(str(path))

    def test_read_accepts_the_retired_metrics_trace_and_budget_keys(
        self, tmp_path
    ):
        path = tmp_path / "older.json"
        report = build_report("smoke")
        report["metrics"] = {"counters": {"engine.states": 3}}
        report["trace"] = {"events": 1, "dropped": 0, "categories": {}}
        report["budget"] = {"max_states": 100, "states_charged": 5}
        path.write_text(json.dumps(report))
        assert read_report(str(path)) == report

    def test_read_rejects_unknown_versions(self, tmp_path):
        path = tmp_path / "future.json"
        report = build_report("smoke")
        report["version"] = REPORT_VERSION + 1
        path.write_text(json.dumps(report))
        with pytest.raises(ReportError, match="unsupported"):
            read_report(str(path))


# -- randomised round-trips (hypothesis) -------------------------------

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**9), 10**9),
    st.text(max_size=20),
)


@settings(max_examples=50, deadline=None)
@given(
    label=st.text(min_size=1, max_size=30),
    result=st.dictionaries(
        st.text(min_size=1, max_size=10), _json_scalars, max_size=5
    ),
    seed=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_report_files_round_trip(tmp_path_factory, label, result, seed):
    """write_report → read_report is the identity for any built report."""
    path = str(tmp_path_factory.mktemp("reports") / "report.json")
    report = build_report(label, result=result, seed=seed)
    write_report(path, report)
    assert read_report(path) == report
