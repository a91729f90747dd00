"""Adversarial inputs for the lint rule catalogue (docs/ANALYSIS.md).

Every test feeds one deliberately broken model to the analysis engine
and pins down the finding: rule ID, severity, and where the location
points.  The serializer-threaded file/field locations are covered by
``tests/test_lint_cli.py``; here the models are API-built, so the
element part of the location carries the identification.
"""

from fractions import Fraction

import pytest

from repro.analysis import (
    ERROR,
    INFO,
    WARNING,
    analyse_application,
    analyse_architecture,
    analyse_bundle,
    analyse_csdf,
    analyse_graph,
    serialisation_bound,
    static_throughput_bound,
    utilisation_bound,
)
from repro.appmodel.application import ApplicationGraph
from repro.arch.architecture import ArchitectureGraph
from repro.arch.tile import ProcessorType, Tile
from repro.csdf.convert import sdf_to_csdf
from repro.csdf.graph import CSDFGraph
from repro.sdf.graph import SDFGraph

RISC = ProcessorType("risc")
DSP = ProcessorType("dsp")


def tile(name, processor_type=RISC, wheel=10, occupied=0):
    return Tile(
        name=name,
        processor_type=processor_type,
        wheel=wheel,
        memory=1000,
        max_connections=4,
        bandwidth_in=100,
        bandwidth_out=100,
        wheel_occupied=occupied,
    )


def findings(report, rule_id):
    return [d for d in report if d.rule_id == rule_id]


def inconsistent_loop():
    """An inconsistent self-loop on ``a`` beside a satisfiable ``a -> b``."""
    graph = SDFGraph("loop")
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("loop", "a", "a", production=2, consumption=1, tokens=2)
    graph.add_channel("ab", "a", "b", production=1, consumption=2)
    return graph


# ---------------------------------------------------------------------------
# SDF rules


class TestSDFRules:
    def test_sdf001_inconsistent_rates_points_at_conflicting_channel(self):
        graph = SDFGraph("broken")
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_channel("d0", "a", "b", production=2, consumption=3)
        graph.add_channel("d1", "a", "b", production=1, consumption=1)
        (finding,) = findings(analyse_graph(graph), "SDF001")
        assert finding.severity == ERROR
        assert finding.location.element == "channel 'd1'"
        assert "inconsistent rates" in finding.message
        assert finding.hint is not None

    def test_sdf001_once_per_component_at_first_conflict(self):
        # the self-loop contradicts itself; 'ab' is satisfiable and must
        # not be reported once the loop has cut the traversal short
        (finding,) = findings(analyse_graph(inconsistent_loop()), "SDF001")
        assert finding.location.element == "channel 'loop'"

    def test_sdf002_structural_deadlock_names_stalled_actors(self):
        graph = SDFGraph("deadlocked")
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_channel("d0", "a", "b")
        graph.add_channel("d1", "b", "a")  # tokenless cycle
        (finding,) = findings(analyse_graph(graph), "SDF002")
        assert finding.severity == ERROR
        assert finding.location.element == "graph 'deadlocked'"
        assert "a" in finding.message and "b" in finding.message

    def test_sdf002_skipped_when_graph_is_inconsistent(self):
        graph = SDFGraph("broken")
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_channel("d0", "a", "b", production=2, consumption=3)
        graph.add_channel("d1", "a", "b", production=1, consumption=1)
        assert not findings(analyse_graph(graph), "SDF002")

    def test_sdf003_dead_actor(self):
        graph = SDFGraph("dead")
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_actor("lonely")
        graph.add_channel("d0", "a", "b", tokens=1)
        (finding,) = findings(analyse_graph(graph), "SDF003")
        assert finding.severity == WARNING
        assert finding.location.element == "actor 'lonely'"

    def test_sdf004_starved_self_loop(self):
        graph = SDFGraph("starved")
        graph.add_actor("a")
        graph.add_channel("loop", "a", "a", consumption=2, tokens=1)
        (finding,) = findings(analyse_graph(graph), "SDF004")
        assert finding.severity == ERROR
        assert finding.location.element == "channel 'loop'"

    def test_sdf005_serialised_self_loop_is_info(self):
        graph = SDFGraph("serial")
        graph.add_actor("a")
        graph.add_channel("loop", "a", "a", tokens=1)
        (finding,) = findings(analyse_graph(graph), "SDF005")
        assert finding.severity == INFO
        report = analyse_graph(graph)
        assert not report.has_errors

    def test_sdf006_disconnected_components(self):
        graph = SDFGraph("split")
        for name in ("a", "b", "c", "d"):
            graph.add_actor(name)
        graph.add_channel("d0", "a", "b", tokens=1)
        graph.add_channel("d1", "c", "d", tokens=1)
        (finding,) = findings(analyse_graph(graph), "SDF006")
        assert finding.severity == WARNING
        assert "2 independent components" in finding.message

    def test_clean_graph_has_no_findings(self):
        graph = SDFGraph("clean")
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_channel("d0", "a", "b")
        graph.add_channel("d1", "b", "a", tokens=1)
        assert len(analyse_graph(graph)) == 0


# ---------------------------------------------------------------------------
# CSDF rules


class TestCSDFRules:
    def test_csd001_inconsistent_cycle_totals(self):
        graph = CSDFGraph("broken")
        graph.add_actor("a", [1, 1])
        graph.add_actor("b", [1])
        graph.add_channel("d0", "a", "b", productions=[1, 2], consumptions=[3])
        graph.add_channel("d1", "a", "b", productions=[1, 1], consumptions=[1])
        (finding,) = findings(analyse_csdf(graph), "CSD001")
        assert finding.severity == ERROR
        assert finding.location.element == "channel 'd1'"

    def test_csd001_once_per_component_at_first_conflict(self):
        lifted = sdf_to_csdf(inconsistent_loop())
        (finding,) = findings(analyse_csdf(lifted), "CSD001")
        assert finding.location.element == "channel 'loop'"

    def test_csd002_phase_accurate_deadlock(self):
        graph = CSDFGraph("deadlocked")
        graph.add_actor("a", [1])
        graph.add_actor("b", [1])
        graph.add_channel("d0", "a", "b", productions=[1], consumptions=[1])
        graph.add_channel("d1", "b", "a", productions=[1], consumptions=[1])
        (finding,) = findings(analyse_csdf(graph), "CSD002")
        assert finding.severity == ERROR
        assert finding.location.element == "graph 'deadlocked'"

    def test_csd003_dead_actor(self):
        graph = CSDFGraph("dead")
        graph.add_actor("a", [1])
        graph.add_actor("b", [1])
        graph.add_actor("lonely", [1, 2])
        graph.add_channel(
            "d0", "a", "b", productions=[1], consumptions=[1], tokens=1
        )
        (finding,) = findings(analyse_csdf(graph), "CSD003")
        assert finding.severity == WARNING
        assert finding.location.element == "actor 'lonely'"


# ---------------------------------------------------------------------------
# Architecture rules


class TestArchitectureRules:
    def test_arc001_isolated_tile(self):
        architecture = ArchitectureGraph("arch")
        architecture.add_tile(tile("t1"))
        architecture.add_tile(tile("t2"))
        architecture.add_tile(tile("t3"))
        architecture.add_connection("t1", "t2")
        architecture.add_connection("t2", "t1")
        (finding,) = findings(analyse_architecture(architecture), "ARC001")
        assert finding.severity == WARNING
        assert finding.location.element == "tile 't3'"

    def test_arc002_dead_connection(self):
        architecture = ArchitectureGraph("arch")
        dead = tile("t1")
        dead.bandwidth_out = 0
        architecture.add_tile(dead)
        architecture.add_tile(tile("t2"))
        architecture.add_connection("t1", "t2")
        (finding,) = findings(analyse_architecture(architecture), "ARC002")
        assert finding.severity == WARNING
        assert finding.location.element == "connection t1->t2"
        assert "'t1' has no outgoing bandwidth" in finding.message

    def test_arc003_exhausted_wheel(self):
        architecture = ArchitectureGraph("arch")
        architecture.add_tile(tile("t1", wheel=10, occupied=10))
        (finding,) = findings(analyse_architecture(architecture), "ARC003")
        assert finding.severity == WARNING
        assert finding.location.element == "tile 't1'"
        assert "10/10" in finding.message


# ---------------------------------------------------------------------------
# Application rules


def two_actor_application(constraint=Fraction(0)):
    graph = SDFGraph("app")
    graph.add_actor("a")
    graph.add_actor("b")
    graph.add_channel("d0", "a", "b")
    graph.add_channel("d1", "b", "a", tokens=1)
    return ApplicationGraph(
        graph, throughput_constraint=constraint, output_actor="b"
    )


class TestApplicationRules:
    def test_app001_missing_gamma_entry(self):
        application = two_actor_application()
        application.set_actor_requirements("a", (RISC, 2, 10))
        # "b" keeps its default empty requirements: no Γ entry
        (finding,) = findings(analyse_application(application), "APP001")
        assert finding.severity == ERROR
        assert finding.location.element == "actor 'b'"

    def test_app002_constraint_exceeds_serialisation_bound(self):
        application = two_actor_application(constraint=Fraction(1))
        application.set_actor_requirements("a", (RISC, 4, 10))
        application.set_actor_requirements("b", (RISC, 2, 10))
        bound, limiting = serialisation_bound(application)
        assert bound == Fraction(1, 4) and limiting == "a"
        (finding,) = findings(analyse_application(application), "APP002")
        assert finding.severity == ERROR
        assert finding.location.element == "throughput constraint"
        assert "serialisation bound 1/4" in finding.message
        assert "'a'" in finding.message

    def test_app002_not_raised_for_achievable_constraint(self):
        application = two_actor_application(constraint=Fraction(1, 4))
        application.set_actor_requirements("a", (RISC, 4, 10))
        application.set_actor_requirements("b", (RISC, 2, 10))
        assert not findings(analyse_application(application), "APP002")

    def test_app003_constraint_exceeds_platform_capacity(self):
        # serialisation allows 1 firing per time unit, but the platform
        # only has half a wheel left for two units of work per iteration
        application = two_actor_application(constraint=Fraction(1, 2))
        application.set_actor_requirements("a", (RISC, 1, 10))
        application.set_actor_requirements("b", (RISC, 1, 10))
        architecture = ArchitectureGraph("small")
        architecture.add_tile(tile("t1", wheel=10, occupied=5))
        assert utilisation_bound(application, architecture) == Fraction(1, 4)
        report = analyse_application(application, architecture)
        assert not findings(report, "APP002")
        (finding,) = findings(report, "APP003")
        assert finding.severity == ERROR
        assert finding.location.element == "throughput constraint"
        assert "utilisation bound 1/4" in finding.message

    def test_static_bound_is_min_of_both(self):
        application = two_actor_application()
        application.set_actor_requirements("a", (RISC, 1, 10))
        application.set_actor_requirements("b", (RISC, 1, 10))
        architecture = ArchitectureGraph("small")
        architecture.add_tile(tile("t1", wheel=10, occupied=5))
        assert static_throughput_bound(application) == Fraction(1)
        assert static_throughput_bound(application, architecture) == (
            Fraction(1, 4)
        )

    def test_app004_actor_unsupported_on_platform(self):
        application = two_actor_application()
        application.set_actor_requirements("a", (RISC, 1, 10))
        application.set_actor_requirements("b", (DSP, 1, 10))
        architecture = ArchitectureGraph("risc-only")
        architecture.add_tile(tile("t1", processor_type=RISC))
        (finding,) = findings(
            analyse_application(application, architecture), "APP004"
        )
        assert finding.severity == ERROR
        assert finding.location.element == "actor 'b'"
        assert "dsp" in finding.message

    def test_app005_uncrossable_channel_cannot_colocate(self):
        application = two_actor_application()
        application.set_actor_requirements("a", (RISC, 1, 10))
        application.set_actor_requirements("b", (DSP, 1, 10))
        # both channels default to bandwidth 0, so they must stay local,
        # yet the endpoint type sets are disjoint
        report = analyse_application(application)
        found = findings(report, "APP005")
        assert {f.location.element for f in found} == {
            "channel 'd0'",
            "channel 'd1'",
        }
        assert all(f.severity == ERROR for f in found)

    def test_app005_quiet_when_channel_has_bandwidth(self):
        application = two_actor_application()
        application.set_actor_requirements("a", (RISC, 1, 10))
        application.set_actor_requirements("b", (DSP, 1, 10))
        application.set_channel_requirements("d0", bandwidth=4)
        application.set_channel_requirements("d1", bandwidth=4)
        assert not findings(analyse_application(application), "APP005")


# ---------------------------------------------------------------------------
# Allocation bundle rules


def bundle(allocations, wheel=10):
    return {
        "architecture": {"tiles": [{"name": "t1", "wheel": wheel}]},
        "allocations": allocations,
    }


class TestBundleRules:
    def test_alloc001_single_slice_exceeds_wheel(self):
        report = analyse_bundle(
            bundle([{"reservation": {"t1": {"time_slice": 12}}}]),
            source="bundle.json",
        )
        found = findings(report, "ALLOC001")
        # the single 12-unit slice trips the per-allocation check and,
        # being the only claim, the aggregate check as well
        assert len(found) == 2
        finding = found[0]
        assert finding.severity == ERROR
        assert finding.location.source == "bundle.json"
        assert finding.location.field == "allocations[0].reservation[t1]"

    def test_alloc001_aggregate_oversubscription(self):
        report = analyse_bundle(
            bundle(
                [
                    {"reservation": {"t1": {"time_slice": 6}}},
                    {"reservation": {"t1": {"time_slice": 6}}},
                ]
            )
        )
        (finding,) = findings(report, "ALLOC001")
        assert finding.severity == ERROR
        assert "together claim 12" in finding.message
        assert finding.hint is not None

    def test_alloc001_quiet_when_wheel_fits(self):
        report = analyse_bundle(
            bundle(
                [
                    {"reservation": {"t1": {"time_slice": 5}}},
                    {"reservation": {"t1": {"time_slice": 5}}},
                ]
            )
        )
        assert not findings(report, "ALLOC001")

    def test_alloc002_schedule_binding_mismatch(self):
        report = analyse_bundle(
            bundle(
                [
                    {
                        "binding": {"a": "t1"},
                        "schedules": {"t1": {"periodic": ["x"]}},
                    }
                ]
            )
        )
        found = findings(report, "ALLOC002")
        assert len(found) == 2  # 'a' missing + 'x' extra
        assert all(f.severity == ERROR for f in found)
        assert all(
            f.location.field == "allocations[0].schedules[t1]" for f in found
        )

    def test_alloc002_skips_schedule_free_baseline_allocations(self):
        report = analyse_bundle(bundle([{"binding": {"a": "t1"}}]))
        assert not findings(report, "ALLOC002")

    def test_alloc003_unknown_tile(self):
        report = analyse_bundle(
            bundle(
                [
                    {
                        "binding": {"a": "ghost"},
                        "reservation": {"ghost": {"time_slice": 1}},
                    }
                ]
            )
        )
        found = findings(report, "ALLOC003")
        assert len(found) == 2  # binding + reservation
        assert {f.location.field for f in found} == {
            "allocations[0].binding[a]",
            "allocations[0].reservation[ghost]",
        }


# ---------------------------------------------------------------------------
# Report mechanics exercised through real findings


class TestReportMechanics:
    def test_fingerprints_distinguish_same_rule_in_two_places(self):
        graph = SDFGraph("dead")
        for name in ("a", "b", "x", "y"):
            graph.add_actor(name)
        graph.add_channel("d0", "a", "b", tokens=1)
        report = analyse_graph(graph)
        dead = findings(report, "SDF003")
        assert len(dead) == 2
        assert dead[0].fingerprint != dead[1].fingerprint

    def test_select_and_ignore_filter_by_prefix(self):
        graph = SDFGraph("split")
        for name in ("a", "b", "c", "d"):
            graph.add_actor(name)
        graph.add_channel("d0", "a", "b", tokens=1)
        graph.add_channel("d1", "c", "d", tokens=1)
        report = analyse_graph(graph)
        assert {d.rule_id for d in report.select(["SDF006"])} == {"SDF006"}
        assert "SDF006" not in {d.rule_id for d in report.ignore(["SDF006"])}

    def test_summary_names_the_worst_finding(self):
        graph = SDFGraph("broken")
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_channel("d0", "a", "b", production=2, consumption=3)
        graph.add_channel("d1", "a", "b", production=1, consumption=1)
        summary = analyse_graph(graph).summary()
        assert summary.startswith("SDF001:")

    def test_unknown_severity_rejected(self):
        from repro.analysis import Diagnostic

        with pytest.raises(ValueError):
            Diagnostic("XXX001", "fatal", "nope")
