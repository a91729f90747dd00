#!/usr/bin/env python3
"""Cyclo-Static Dataflow: finer-grained pipelining than SDF allows.

The paper's related work contrasts its SDF strategy with Bilsen et
al.'s cyclo-static dataflow mapping ([6]).  This example shows the CSDF
substrate on a sample-interleaving stereo filter: the coarse SDF model
produces both channel samples in one long firing, while the CSDF model
splits the actor into two phases that release each channel's sample as
soon as it is ready — measurably improving throughput with identical
total work.  The phased model's rate is then certified by replaying its
periodic-phase certificate in the independent checker (``repro.verify``).

Run:  python examples/csdf_analysis.py
"""

from fractions import Fraction

from repro.csdf import (
    CSDFGraph,
    csdf_repetition_vector,
    csdf_throughput,
    sdf_to_csdf,
)
from repro.sdf.graph import SDFGraph
from repro.throughput.state_space import throughput
from repro.verify import replay_certificate


def coarse_sdf_model() -> SDFGraph:
    """SDF: the filter emits both samples after 8 time units.

    The tight rate-control loop (2 tokens) makes the feedback cycle the
    throughput bottleneck, which is exactly where phase-level token
    release pays off.
    """
    graph = SDFGraph("stereo-sdf")
    graph.add_actor("src", 2)
    graph.add_actor("filter", 8)  # processes L+R in one firing
    graph.add_actor("dac", 3)
    graph.add_channel("in", "src", "filter", 2, 2)
    graph.add_channel("out", "filter", "dac", 2, 1)
    graph.add_channel("rate", "dac", "src", 1, 2, tokens=2)
    return graph


def phased_csdf_model() -> CSDFGraph:
    """CSDF: the filter alternates L and R phases of 4 units each."""
    graph = CSDFGraph("stereo-csdf")
    graph.add_actor("src", [2])
    graph.add_actor("filter", [4, 4])  # same total work, two phases
    graph.add_actor("dac", [3])
    graph.add_channel("in", "src", "filter", [2], [1, 1])
    graph.add_channel("out", "filter", "dac", [1, 1], [1])
    graph.add_channel("rate", "dac", "src", [1], [2], tokens=2)
    return graph


def main() -> None:
    sdf = coarse_sdf_model()
    sdf_rate = throughput(sdf, auto_concurrency=False)
    print("=== coarse SDF model ===")
    print(f"repetition vector : {sdf_rate.gamma}")
    print(f"dac sample rate   : {sdf_rate.of('dac')}")

    csdf = phased_csdf_model()
    gamma = csdf_repetition_vector(csdf)
    csdf_rate = csdf_throughput(csdf, auto_concurrency=False)
    print("\n=== phased CSDF model (same total work) ===")
    print(f"repetition vector : {gamma}")
    print(f"dac sample rate   : {csdf_rate.of('dac')}")

    improvement = csdf_rate.of("dac") / sdf_rate.of("dac")
    print(f"\nCSDF phasing improves the sample rate by {improvement}x")

    # the checker replays the certificate against the graph's own
    # per-phase rates, sharing no code with the engine
    topology = {
        c.name: {
            "src": c.src,
            "dst": c.dst,
            "productions": list(c.productions),
            "consumptions": list(c.consumptions),
        }
        for c in csdf.channels
    }
    (certificate,) = csdf_rate.certificates.values()
    replayed = replay_certificate(certificate, topology)
    certified = Fraction(replayed["firings"]["dac"], replayed["period"])
    assert certified == csdf_rate.of("dac")
    print(
        f"dac sample rate {certified} certified: the phased window of "
        f"{replayed['period']} time units replays"
    )

    # single-phase CSDF is exactly SDF: the engines agree
    lifted = sdf_to_csdf(sdf)
    assert (
        csdf_throughput(lifted, auto_concurrency=False).iteration_rate
        == sdf_rate.iteration_rate
    )
    print("(single-phase CSDF reproduces the SDF analysis exactly)")


if __name__ == "__main__":
    main()
