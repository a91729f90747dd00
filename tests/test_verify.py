"""Independent allocation certification (``make test-verify``).

The verifier (:mod:`repro.verify`) must certify everything the
allocator legitimately produces — the paper example, multi-application
flows, every degradation-ladder rung — and refute any tampering with
the claims: inflated throughput, shrunken resource claims, reordered
schedules, forged certificates.
"""

import copy
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from repro.appmodel.example import paper_example
from repro.appmodel.serialization import bundle_to_dict, bundle_to_json
from repro.csdf.graph import CSDFGraph
from repro.csdf.random_csdf import random_csdf
from repro.core.strategy import ResourceAllocator
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.resilience.policy import (
    resilient_allocate,
    tdma_baseline_allocate,
)
from repro.verify import (
    VERDICT_CERTIFIED,
    VERDICT_REFUTED,
    VERDICT_SOUND_LOWER_BOUND,
    CertificateFormatError,
    RefutationError,
    certify_allocation,
    certify_flow,
    check_window_reachable,
    replay_certificate,
    validate_certificate,
)
from repro.throughput.state_space import throughput


@pytest.fixture(scope="module")
def example_bundle():
    """The paper example's allocation as a JSON-round-tripped bundle."""
    application, architecture, _ = paper_example()
    allocation = ResourceAllocator().allocate(application, architecture)
    bundle = bundle_to_dict(architecture, [allocation])
    return json.loads(json.dumps(bundle))


def _mutated(bundle, mutate):
    clone = copy.deepcopy(bundle)
    mutate(clone["allocations"][0], clone)
    return clone


def _verdict(bundle):
    report = certify_allocation(bundle)
    assert len(report.verdicts) == len(bundle["allocations"])
    return report.verdicts[0]


# -- legitimate outputs certify --------------------------------------------


def test_paper_example_is_certified(example_bundle):
    report = certify_allocation(example_bundle)
    assert report.certified
    assert not report.refuted
    assert report.verdicts[0].verdict == VERDICT_CERTIFIED
    assert "certified" in report.summary()


def test_certify_flow_on_live_result():
    from repro.arch.presets import benchmark_architectures
    from repro.arch.serialization import (
        architecture_from_dict,
        architecture_to_dict,
    )
    from repro.core.flow import allocate_until_failure
    from repro.generate.benchmark import generate_benchmark_set

    architecture = benchmark_architectures()[0]
    pre_flow = architecture_from_dict(architecture_to_dict(architecture))
    applications = generate_benchmark_set(
        "mixed", 3, architecture.processor_types(), seed=0
    )
    result = allocate_until_failure(architecture, applications)
    assert result.applications_bound == 3
    report = certify_flow(pre_flow, result)
    assert report.certified
    assert all(v.verdict == VERDICT_CERTIFIED for v in report.verdicts)


@pytest.mark.parametrize(
    "failures,expected_rung",
    [(0, "exact"), (1, "no-refinement"), (2, "capped-search")],
)
def test_every_strategy_rung_output_certifies(failures, expected_rung):
    """Each ladder rung's allocation must hold up to independent replay."""
    application, architecture, _ = paper_example()
    if failures:
        spec = FaultSpec(
            point="scheduling.build", error="explosion", times=failures
        )
        with FaultInjector(specs=[spec]):
            result = resilient_allocate(application, architecture)
        assert result.rung == expected_rung
        allocation, rung = result.allocation, result.rung
    else:
        allocation = ResourceAllocator().allocate(application, architecture)
        rung = None
    bundle = json.loads(
        json.dumps(bundle_to_dict(architecture, [allocation], rungs=[rung]))
    )
    verdict = _verdict(bundle)
    assert verdict.verdict == VERDICT_CERTIFIED, verdict.reasons


def test_tdma_baseline_is_a_sound_lower_bound():
    """The baseline rung has no schedules, hence no certificate: its
    throughput claim is conservative by construction, not replayable."""
    application, architecture, _ = paper_example()
    allocation = tdma_baseline_allocate(
        application, architecture, ResourceAllocator()
    )
    bundle = json.loads(
        json.dumps(
            bundle_to_dict(architecture, [allocation], rungs=["tdma-baseline"])
        )
    )
    verdict = _verdict(bundle)
    assert verdict.verdict == VERDICT_SOUND_LOWER_BOUND
    assert not certify_allocation(bundle).refuted


# -- tampering is refuted ---------------------------------------------------


def test_refutes_inflated_throughput_claim(example_bundle):
    def mutate(entry, bundle):
        entry["achieved_throughput"] = str(
            Fraction(entry["achieved_throughput"]) * 2
        )

    verdict = _verdict(_mutated(example_bundle, mutate))
    assert verdict.verdict == VERDICT_REFUTED
    assert any("exceeds" in reason for reason in verdict.reasons)


def test_refutes_slice_sum_overflowing_the_wheel(example_bundle):
    def mutate(entry, bundle):
        tile = next(iter(entry["slices"]))
        wheel = next(
            t["wheel"]
            for t in bundle["architecture"]["tiles"]
            if t["name"] == tile
        )
        entry["slices"][tile] = wheel + 1
        entry["reservation"][tile]["time_slice"] = wheel + 1

    verdict = _verdict(_mutated(example_bundle, mutate))
    assert verdict.verdict == VERDICT_REFUTED


def test_refutes_reservation_slice_mismatch(example_bundle):
    def mutate(entry, bundle):
        tile = next(iter(entry["slices"]))
        entry["reservation"][tile]["time_slice"] = (
            entry["slices"][tile] - 1
        )

    verdict = _verdict(_mutated(example_bundle, mutate))
    assert verdict.verdict == VERDICT_REFUTED


def test_refutes_inadmissible_schedule_order(example_bundle):
    def mutate(entry, bundle):
        for tile, schedule in entry["schedules"].items():
            if len(schedule["periodic"]) >= 2:
                schedule["periodic"] = list(reversed(schedule["periodic"]))
                return
        pytest.skip("no multi-actor schedule in the example allocation")

    verdict = _verdict(_mutated(example_bundle, mutate))
    assert verdict.verdict == VERDICT_REFUTED


def test_refutes_corrupted_certificate_tokens(example_bundle):
    def mutate(entry, bundle):
        entry["certificate"]["tokens"] = [
            count + 1 for count in entry["certificate"]["tokens"]
        ]

    verdict = _verdict(_mutated(example_bundle, mutate))
    assert verdict.verdict == VERDICT_REFUTED


def test_refutes_shortened_period_with_same_firings(example_bundle):
    def mutate(entry, bundle):
        certificate = entry["certificate"]
        certificate["period"] = max(1, certificate["period"] // 2)

    verdict = _verdict(_mutated(example_bundle, mutate))
    assert verdict.verdict == VERDICT_REFUTED


def test_refutes_memory_claim_below_demand(example_bundle):
    def mutate(entry, bundle):
        for tile, claim in entry["reservation"].items():
            if claim["memory"] > 0:
                claim["memory"] = claim["memory"] - 1
                return
        pytest.skip("no memory demand in the example allocation")

    verdict = _verdict(_mutated(example_bundle, mutate))
    assert verdict.verdict == VERDICT_REFUTED


def test_refutes_binding_to_unknown_tile(example_bundle):
    def mutate(entry, bundle):
        actor = next(iter(entry["binding"]))
        entry["binding"][actor] = "no-such-tile"

    verdict = _verdict(_mutated(example_bundle, mutate))
    assert verdict.verdict == VERDICT_REFUTED


def test_refutes_dropped_certificate(example_bundle):
    """Schedules present but no certificate: nothing vouches for the
    claimed rate, so the entry cannot certify."""

    def mutate(entry, bundle):
        entry["certificate"] = None

    verdict = _verdict(_mutated(example_bundle, mutate))
    assert verdict.verdict == VERDICT_REFUTED


# -- certificate primitives -------------------------------------------------


def test_validate_certificate_accepts_engine_output(example_bundle):
    certificate = example_bundle["allocations"][0]["certificate"]
    assert validate_certificate(certificate) is certificate


def test_validate_certificate_rejects_malformed(example_bundle):
    certificate = copy.deepcopy(
        example_bundle["allocations"][0]["certificate"]
    )
    certificate["period"] = 0
    with pytest.raises(CertificateFormatError):
        validate_certificate(certificate)
    with pytest.raises(CertificateFormatError):
        validate_certificate({"format": "wrong"})


def test_replay_self_timed_certificate():
    """A multirate cycle's engine certificate replays to its exact rate."""
    from repro.sdf.graph import SDFGraph
    from repro.throughput.state_space import throughput

    graph = SDFGraph("multirate")
    graph.add_actor("a", 1)
    graph.add_actor("b", 2)
    graph.add_channel("ab", "a", "b", production=2, consumption=3)
    graph.add_channel("ba", "b", "a", production=3, consumption=2, tokens=6)
    result = throughput(graph)
    assert result.certificates
    topology = {
        channel.name: {
            "src": channel.src,
            "dst": channel.dst,
            "production": channel.production,
            "consumption": channel.consumption,
            "tokens": channel.tokens,
        }
        for channel in graph.channels
    }
    for component, certificate in result.certificates.items():
        replayed = replay_certificate(
            json.loads(json.dumps(certificate)), topology
        )
        for actor in component:
            assert (
                Fraction(replayed["firings"][actor], replayed["period"])
                == result.of(actor)
            )


def _stereo_filter():
    """The phased stereo filter of ``examples/csdf_analysis.py``."""
    path = Path(__file__).resolve().parents[1] / "examples" / "csdf_analysis.py"
    spec = importlib.util.spec_from_file_location("csdf_analysis", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.phased_csdf_model()


def _phased_topology(graph):
    """A CSDF graph's channels with their per-phase rates."""
    return {
        channel.name: {
            "src": channel.src,
            "dst": channel.dst,
            "productions": list(channel.productions),
            "consumptions": list(channel.consumptions),
            "tokens": channel.tokens,
        }
        for channel in graph.channels
    }


def _two_phase_ring():
    """a (phases of 1 and 2) <-> b, whose phases differ in time."""
    graph = CSDFGraph("ring")
    graph.add_actor("a", [1, 2])
    graph.add_actor("b", [3])
    graph.add_channel("ab", "a", "b", [1, 1], [2])
    graph.add_channel("ba", "b", "a", [2], [1, 1], tokens=2)
    return graph


def _phased_cases():
    """(graph, result, component, certificate) per phased certificate of
    the stereo filter, the ring and seeded random CSDF graphs, both
    concurrency modes."""
    graphs = [_stereo_filter(), _two_phase_ring()] + [
        random_csdf(random.Random(seed), max_phases=3, name=f"r{seed}")
        for seed in range(12)
    ]
    for graph in graphs:
        for auto_concurrency in (True, False):
            result = throughput(graph, auto_concurrency=auto_concurrency)
            for component, certificate in result.certificates.items():
                if "phases" in certificate:
                    yield graph, result, component, certificate


def test_phased_certificates_replay_to_the_actor_rates():
    replayed_count = 0
    for graph, result, component, certificate in _phased_cases():
        replayed = replay_certificate(
            json.loads(json.dumps(certificate)), _phased_topology(graph)
        )
        bottleneck = result.scc_rates[component] == result.iteration_rate
        for actor in component:
            rate = Fraction(replayed["firings"][actor], replayed["period"])
            assert rate == result.scc_rates[component] * result.gamma[actor]
            if bottleneck:
                assert rate == result.of(actor)
        replayed_count += 1
    assert replayed_count >= 20


PHASED_TAMPERS = [
    "period",
    "firing count",
    "token count",
    "phase in flight",
    "next phase",
]


def _tampered(certificate, tamper):
    """A copy of a phased ``certificate`` with ``tamper`` applied, or
    None when no firing of a phased actor is in flight."""
    forged = copy.deepcopy(certificate)
    counts = [len(times) for times in forged["execution_times"]]
    if tamper == "period":
        forged["period"] += 1
    elif tamper == "firing count":
        forged["firings"][forged["actors"][0]] += 1
    elif tamper == "token count":
        forged["tokens"][0] += 1
    elif tamper == "phase in flight":
        busy = [
            actor
            for actor, phases in enumerate(forged["active_phases"])
            if phases and counts[actor] > 1
        ]
        if not busy:
            return None
        phases = forged["active_phases"][busy[0]]
        phases[0] = (phases[0] + 1) % counts[busy[0]]
    else:
        actor = next(a for a, count in enumerate(counts) if count > 1)
        forged["phases"][actor] = (forged["phases"][actor] + 1) % counts[actor]
    return forged


@pytest.mark.parametrize("tamper", PHASED_TAMPERS)
def test_replay_refutes_tampered_phased_certificates(tamper):
    # the serial two-phase ring: every tamper breaks its window
    graph = _two_phase_ring()
    (certificate,) = throughput(graph, auto_concurrency=False).certificates.values()
    with pytest.raises(RefutationError):
        replay_certificate(_tampered(certificate, tamper), _phased_topology(graph))
    if tamper in ("period", "firing count", "phase in flight"):
        # these break every phased window of the seeded graphs too (a
        # surplus token or a shifted phase can leave a window periodic)
        refuted = 0
        for graph, _, _, certificate in _phased_cases():
            forged = _tampered(certificate, tamper)
            if forged is not None:
                with pytest.raises(RefutationError):
                    replay_certificate(forged, _phased_topology(graph))
                refuted += 1
        assert refuted >= 10


def test_reachability_check_accepts_genuine_phased_certificates():
    checked = 0
    for graph, _, _, certificate in _phased_cases():
        check_window_reachable(
            json.loads(json.dumps(certificate)), _phased_topology(graph)
        )
        checked += 1
    assert checked >= 20


def test_reachability_check_refutes_surplus_tokens_on_phased_certificates():
    # a surplus token that no firing needs recurs, so replay alone
    # accepts it on many phased windows; the token invariants do not
    replayed = {}
    for graph, _, _, certificate in _phased_cases():
        topology = _phased_topology(graph)
        for position in range(len(certificate["tokens"])):
            forged = copy.deepcopy(certificate)
            forged["tokens"][position] += 1
            try:
                replay_certificate(forged, topology)
            except RefutationError:
                continue
            replayed[graph.name] = replayed.get(graph.name, 0) + 1
            with pytest.raises(RefutationError, match="token invariant"):
                check_window_reachable(forged, topology)
    assert replayed.get(_stereo_filter().name, 0) >= 1
    assert sum(replayed.values()) >= 20


# -- observability ----------------------------------------------------------


def test_verifier_threads_obs_metrics(example_bundle):
    from repro.obs import collecting

    with collecting() as metrics:
        certify_allocation(example_bundle)
        certify_allocation(
            _mutated(
                example_bundle,
                lambda entry, bundle: entry["certificate"].update(
                    {"period": 1}
                ),
            )
        )
        counters = metrics.snapshot()["counters"]
    assert counters["verify.certificates_checked"] == 2
    assert counters["verify.certificates_refuted"] == 1
    assert counters["verify.allocations_certified"] == 1
    assert counters["verify.allocations_refuted"] == 1


def test_checkpoint_paths_thread_obs_metrics(tmp_path):
    from repro.generate.random_sdf import random_sdfg
    from repro.obs import collecting
    from repro.resilience.budget import Budget, BudgetExceededError
    from repro.resilience.checkpoint import (
        resume_from_checkpoint,
        write_checkpoint,
    )
    from repro.throughput.state_space import throughput

    import random

    checkpoint = None
    for seed in range(1, 50):
        graph = random_sdfg(rng=random.Random(seed), name=f"g{seed}")
        try:
            throughput(graph, budget=Budget(max_states=2))
        except BudgetExceededError as error:
            checkpoint = error.partial["checkpoint"]
            break
    assert checkpoint is not None
    path = str(tmp_path / "ck.json")
    with collecting() as metrics:
        write_checkpoint(path, checkpoint)
        resume_from_checkpoint(path)
        counters = metrics.snapshot()["counters"]
    assert counters["checkpoint.writes"] == 1
    assert counters["checkpoint.bytes"] > 0
    assert counters["checkpoint.reads"] == 1
    assert counters["checkpoint.resumes"] == 1


# -- CLI exit codes ---------------------------------------------------------


def _corruptions():
    """Named tampering recipes; each must drive the CLI to exit 4."""

    def inflate_throughput(entry):
        entry["achieved_throughput"] = str(
            Fraction(entry["achieved_throughput"]) * 2
        )

    def overflow_slice_sum(entry):
        tile = next(iter(entry["slices"]))
        entry["slices"][tile] += 1000
        entry["reservation"][tile]["time_slice"] += 1000

    def reorder_schedule(entry):
        for schedule in entry["schedules"].values():
            if len(schedule["periodic"]) >= 2:
                schedule["periodic"] = list(reversed(schedule["periodic"]))
                return
        raise AssertionError("example has no multi-actor schedule")

    def forge_certificate_tokens(entry):
        entry["certificate"]["tokens"] = [
            count + 1 for count in entry["certificate"]["tokens"]
        ]

    def shrink_memory_claim(entry):
        for claim in entry["reservation"].values():
            if claim["memory"] > 0:
                claim["memory"] -= 1
                return
        raise AssertionError("example claims no memory")

    def halve_certificate_period(entry):
        entry["certificate"]["period"] = max(
            1, entry["certificate"]["period"] // 2
        )

    return [
        ("inflated-throughput", inflate_throughput),
        ("slice-sum-overflow", overflow_slice_sum),
        ("schedule-reorder", reorder_schedule),
        ("forged-cert-tokens", forge_certificate_tokens),
        ("shrunken-memory", shrink_memory_claim),
        ("halved-cert-period", halve_certificate_period),
    ]


def test_cli_verify_certifies_the_paper_example(tmp_path):
    from repro.cli import main

    application, architecture, _ = paper_example()
    allocation = ResourceAllocator().allocate(application, architecture)
    good = tmp_path / "good.json"
    good.write_text(bundle_to_json(architecture, [allocation]))
    assert main(["verify", str(good)]) == 0

    not_a_bundle = tmp_path / "nope.json"
    not_a_bundle.write_text("{}")
    assert main(["verify", str(not_a_bundle)]) == 2


@pytest.mark.parametrize(
    "name,corrupt", _corruptions(), ids=[n for n, _ in _corruptions()]
)
def test_cli_verify_refutes_corrupted_bundles(
    tmp_path, example_bundle, name, corrupt
):
    from repro.cli import main

    bundle = copy.deepcopy(example_bundle)
    corrupt(bundle["allocations"][0])
    bad = tmp_path / f"{name}.json"
    bad.write_text(json.dumps(bundle))
    assert main(["verify", str(bad)]) == 4
