"""Unit tests for the repro-alloc command-line interface."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.sdf.graph import chain
from repro.sdf.serialization import graph_to_json


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(graph_to_json(chain(["a", "b"], [2, 3], tokens_on_back_edge=1)))
    return str(path)


@pytest.fixture
def csdf_file(tmp_path):
    """The phased stereo filter of ``examples/csdf_analysis.py`` (true
    iteration rate 1/9), written with ``csdf_to_json``."""
    from repro.csdf.serialization import csdf_to_json

    path = Path(__file__).resolve().parents[1] / "examples" / "csdf_analysis.py"
    spec = importlib.util.spec_from_file_location("csdf_analysis", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    document = tmp_path / "stereo.json"
    document.write_text(csdf_to_json(module.phased_csdf_model()))
    return str(document)


def test_analyse_prints_throughput(graph_file, capsys):
    assert main(["analyse", graph_file]) == 0
    out = capsys.readouterr().out
    assert "iteration rate: 1/5" in out
    assert "throughput(a) = 1/5" in out


def test_analyse_reads_a_csdf_document_as_csdf(csdf_file, capsys):
    assert main(["analyse", csdf_file]) == 0
    out = capsys.readouterr().out
    assert "iteration rate: 1/9" in out
    assert "throughput(dac) = 2/9" in out


def test_analyse_auto_concurrency_flag(graph_file, capsys):
    assert main(["analyse", graph_file, "--no-auto-concurrency"]) == 0
    assert "1/5" in capsys.readouterr().out


def test_generate_emits_json(capsys):
    assert main(["generate", "--set", "processing", "-n", "2", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 2
    assert all("actors" in graph for graph in payload)


def test_example_runs_paper_flow(capsys):
    assert main(["example"]) == 0
    out = capsys.readouterr().out
    assert "binding:" in out
    assert "a1 -> t1" in out
    assert "throughput checks:" in out


def test_example_with_weights(capsys):
    assert main(["example", "--weights", "0", "0", "1"]) == 0
    out = capsys.readouterr().out
    # pure communication weight clusters everything on one tile
    assert "a3 -> t1" in out


def test_allocate_small_run(capsys):
    assert (
        main(
            [
                "allocate",
                "--set",
                "processing",
                "-n",
                "2",
                "--seed",
                "4",
                "--architecture",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "applications bound: 2" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


@pytest.mark.parametrize(
    "argv",
    [
        ["example", "--resume", "x"],
        ["example", "--checkpoint", "ck.json"],
        ["trace", "--max-states", "1"],
        ["dimension", "-n", "1", "--deadline", "0"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_submit_with_an_empty_endpoint_gives_the_status_advice(
    tmp_path, capsys
):
    from tests.service_helpers import fast_request

    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "endpoint.json").write_text("{}")
    application, architecture = fast_request()
    app_path = tmp_path / "app.json"
    arch_path = tmp_path / "arch.json"
    app_path.write_text(json.dumps(application))
    arch_path.write_text(json.dumps(architecture))
    for argv in (
        ["submit", str(app_path), str(arch_path), "--spool", str(spool)],
        ["status", "--spool", str(spool)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "the daemon is not running" in err
        assert f"repro-alloc serve --spool {spool}" in err


def test_missing_graph_file_exits_2(tmp_path, capsys):
    assert main(["analyse", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-alloc: error:")
    assert err.count("\n") == 1  # one-line diagnostic, no traceback


def test_missing_graph_file_reraises_with_debug(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["analyse", str(tmp_path / "missing.json"), "--debug"])


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyse", str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err
    assert str(path) in err


def test_deadline_zero_exits_3(graph_file, capsys):
    assert main(["analyse", graph_file, "--deadline", "0"]) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_max_states_budget_exits_3(graph_file, capsys):
    assert main(["analyse", graph_file, "--max-states", "1"]) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_allocate_degrade_completes_under_tiny_deadline(capsys):
    assert (
        main(
            [
                "allocate",
                "--set",
                "processing",
                "-n",
                "2",
                "--seed",
                "4",
                "--architecture",
                "2",
                "--deadline",
                "0",
                "--degrade",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "applications bound: 2" in out
    assert "degraded allocations: 2" in out


def test_allocate_without_degrade_exits_3_on_deadline(capsys):
    assert (
        main(
            [
                "allocate",
                "--set",
                "processing",
                "-n",
                "2",
                "--seed",
                "4",
                "--architecture",
                "2",
                "--deadline",
                "0",
            ]
        )
        == 3
    )
    assert "budget exhausted" in capsys.readouterr().err


def test_dot_command(graph_file, capsys):
    assert main(["dot", graph_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"a" -> "b"' in out


def test_dot_refuses_a_csdf_document(csdf_file, capsys):
    assert main(["dot", csdf_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "CSDF document" in captured.err


def test_trace_command(capsys):
    assert main(["trace", "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "a1@t1" in out
    assert "#" in out


def test_dimension_command(capsys):
    assert (
        main(
            [
                "dimension",
                "--set",
                "processing",
                "-n",
                "1",
                "--seed",
                "4",
                "--max-tiles",
                "9",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "bound" in out


def test_trace_vcd_option(tmp_path, capsys):
    vcd_path = tmp_path / "trace.vcd"
    assert main(["trace", "--vcd", str(vcd_path)]) == 0
    assert vcd_path.read_text().startswith("$comment")
    assert "VCD waveform" in capsys.readouterr().out


def test_profile_graph_reports_states_and_timings(
    graph_file, tmp_path, capsys
):
    trace_path = tmp_path / "trace.json"
    assert main(["profile", graph_file, "--trace", str(trace_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["mode"] == "analyse"
    assert report["result"]["iteration_rate"] == "1/5"
    assert report["result"]["states_explored"] > 0
    metrics = report["metrics"]
    assert (
        metrics["counters"]["state_space.states"]
        == report["result"]["states_explored"]
    )
    assert metrics["histograms"]["state_space.execute_seconds"]["count"] >= 1
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert any(
        (event.get("cat"), event["name"])
        == ("engine", "state_space.throughput")
        for event in events
    )


def test_profile_reads_a_csdf_document_as_csdf(csdf_file, capsys):
    assert main(["profile", csdf_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["graph"] == "stereo-csdf"
    assert report["result"]["iteration_rate"] == "1/9"


def test_profile_example_records_allocation_phases(capsys):
    assert main(["profile"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["mode"] == "example"
    assert report["result"]["achieved_throughput"] == "1/20"
    assert report["result"]["throughput_checks"] > 0
    histograms = report["metrics"]["histograms"]
    for phase in ("binding", "binding_aware", "scheduling", "slices"):
        assert histograms[f"allocate.{phase}_seconds"]["count"] >= 1
    assert report["metrics"]["counters"]["slices.throughput_checks"] > 0


def test_profile_flow_reports_per_application_stats(capsys):
    assert main(["profile", "--flow", "-n", "2", "--seed", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["mode"] == "flow"
    applications = report["result"]["applications"]
    assert len(applications) == 2
    for stats in applications:
        assert stats["outcome"] in ("allocated", "failed")
        assert stats["seconds"] >= 0
    allocated = [s for s in applications if s["outcome"] == "allocated"]
    assert allocated, "expected at least one allocated application"
    assert all("throughput_checks" in s for s in allocated)
    assert all("tiles_used" in s for s in allocated)


def test_profile_out_and_summary(graph_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["profile", graph_file, "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert "metrics" in report
    assert main(["profile", graph_file, "--summary"]) == 0
    summary = capsys.readouterr().out
    assert "state_space.states" in summary
    assert "state_space.throughput" in summary


def test_metrics_flag_writes_snapshot(graph_file, tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    assert main(["analyse", graph_file, "--metrics", str(metrics_path)]) == 0
    assert "1/5" in capsys.readouterr().out  # normal output is untouched
    text = metrics_path.read_text()
    snapshot = json.loads(text)
    assert text == json.dumps(snapshot, indent=2) + "\n"
    assert snapshot["counters"]["state_space.throughput_calls"] == 1
    assert snapshot["counters"]["state_space.states"] > 0
    assert "state_space.execute_seconds" in snapshot["histograms"]


def test_metrics_flag_on_allocation_command(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    assert main(
        [
            "example",
            "--metrics",
            str(metrics_path),
            "--trace",
            str(trace_path),
        ]
    ) == 0
    assert "binding:" in capsys.readouterr().out
    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["counters"]["allocate.successes"] == 1
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert any(
        (event.get("cat"), event["name"]) == ("strategy", "allocate")
        for event in events
    )


def test_metrics_collection_is_scoped_to_the_command(graph_file, tmp_path):
    from repro.obs import NULL_METRICS, get_metrics

    metrics_path = tmp_path / "metrics.json"
    assert main(["analyse", graph_file, "--metrics", str(metrics_path)]) == 0
    assert get_metrics() is NULL_METRICS  # collection disabled again


def test_trace_flag_writes_chrome_trace(graph_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main(["analyse", graph_file, "--trace", str(trace_path)]) == 0
    assert "1/5" in capsys.readouterr().out  # normal output is untouched
    document = json.loads(trace_path.read_text())
    events = document["traceEvents"]
    assert events[0]["ph"] == "M"  # process-name metadata
    assert any(event.get("cat") == "engine" for event in events)


def test_trace_flag_on_allocate_covers_the_event_categories(tmp_path, capsys):
    """One traced allocate run must hit >=4 of the documented categories."""
    trace_path = tmp_path / "trace.json"
    checkpoint = tmp_path / "flow.ck.json"
    assert (
        main(
            [
                "allocate",
                "-n",
                "3",
                "--degrade",
                "--max-states",
                "30000",
                "--checkpoint",
                str(checkpoint),
                "--trace",
                str(trace_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    document = json.loads(trace_path.read_text())
    categories = {
        event["cat"]
        for event in document["traceEvents"]
        if "cat" in event
    }
    assert {"engine", "tdma", "checkpoint", "resilience"} <= categories


def test_trace_is_written_even_when_the_budget_fires(graph_file, tmp_path):
    trace_path = tmp_path / "trace.json"
    status = main(
        ["analyse", graph_file, "--deadline", "0", "--trace", str(trace_path)]
    )
    assert status == 3
    document = json.loads(trace_path.read_text())  # evidence survives
    assert document["traceEvents"][0]["ph"] == "M"


def test_tracing_is_scoped_to_the_command(graph_file, tmp_path):
    from repro.obs.trace import NULL_TRACE, get_trace

    trace_path = tmp_path / "trace.json"
    assert main(["analyse", graph_file, "--trace", str(trace_path)]) == 0
    assert get_trace() is NULL_TRACE  # tracing disabled again


def test_bench_writes_schema_versioned_report(tmp_path, capsys):
    from repro.obs.report import read_report

    out = tmp_path / "BENCH_ci.json"
    assert main(["bench", "--label", "ci", "--out", str(out)]) == 0
    assert "bench report written" in capsys.readouterr().out
    report = read_report(str(out))
    assert report["label"] == "ci"
    assert [w["name"] for w in report["workloads"]] == [
        "fig5-example",
        "classic-models",
        "h263-analysis",
        "random-flow",
        "infeasible",
        "exact-small",
    ]


def test_bench_compare_accepts_its_own_baseline(tmp_path, capsys):
    baseline = tmp_path / "old.json"
    fresh = tmp_path / "new.json"
    assert main(["bench", "--out", str(baseline)]) == 0
    assert (
        main(["bench", "--out", str(fresh), "--compare", str(baseline)]) == 0
    )
    assert "no regressions" in capsys.readouterr().out


def test_bench_compare_exits_5_on_regression(tmp_path, capsys):
    import json as json_module

    from repro.obs.report import read_report, write_report

    baseline = tmp_path / "old.json"
    assert main(["bench", "--out", str(baseline)]) == 0
    doctored = read_report(str(baseline))
    doctored["workloads"][0]["states_explored"] = -1  # any growth regresses
    write_report(str(baseline), doctored)
    fresh = tmp_path / "new.json"
    status = main(["bench", "--out", str(fresh), "--compare", str(baseline)])
    assert status == 5
    assert "bench regression" in capsys.readouterr().err


def test_bench_compare_missing_baseline_exits_2(tmp_path, capsys):
    status = main(
        ["bench", "--out", str(tmp_path / "n.json"), "--compare", "/absent"]
    )
    assert status == 2
    assert "error" in capsys.readouterr().err
