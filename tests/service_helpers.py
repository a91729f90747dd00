"""Shared fixtures for the allocation-service test files.

Requests come in two sizes: the paper's running example (fast — the
engine finishes in milliseconds) and an H.263 decoder scaled up via its
macroblock count (slow — a second or more of real search, wide enough
to drain or SIGKILL mid-exploration deterministically).  The same
decoder with ``idct`` listed first is the out-of-memory bait: its
attempt outgrows a 64 MB cap.
"""

import copy
import random

from repro.appmodel.example import (
    paper_example_application,
    paper_example_architecture,
)
from repro.appmodel.serialization import application_to_dict
from repro.arch.architecture import ArchitectureGraph
from repro.arch.serialization import architecture_to_dict
from repro.arch.tile import ProcessorType, Tile
from repro.generate.multimedia import h263_decoder


def fast_request():
    """(application, architecture) dicts that allocate in milliseconds."""
    return (
        application_to_dict(paper_example_application()),
        architecture_to_dict(paper_example_architecture()),
    )


def h263_architecture(memory=8_000_000):
    architecture = ArchitectureGraph("svc-arch")
    generic = ProcessorType("generic")
    accelerator = ProcessorType("accelerator")
    architecture.add_tile(
        Tile("t1", generic, 100, memory, 8, 100_000, 100_000)
    )
    architecture.add_tile(
        Tile("t2", accelerator, 100, memory, 8, 100_000, 100_000)
    )
    architecture.add_connection("t1", "t2")
    architecture.add_connection("t2", "t1")
    return architecture


def slow_request(macroblocks=2_000):
    """A request whose attempt takes a second or more.

    At the default 2,000 macroblocks the greedy attempt takes 0.9 to
    1.6 s on a 2-vCPU VM (a process-isolated one adds about 0.3 s of
    start-up), and the exact backend's about 18 s; the tiles hold the
    ``vld``/``iq`` buffers of that many macroblocks.
    """
    return (
        application_to_dict(h263_decoder(macroblocks=macroblocks)),
        architecture_to_dict(h263_architecture()),
    )


def oom_request():
    """A request whose attempt alone outgrows a 64 MB address space.

    The H.263 decoder at 2,000 macroblocks with ``idct`` listed first.
    The engines key a state only when the graph's first actor completes
    a firing, and ``idct`` completes 2,000 firings per ``vld`` firing,
    so its state space is stored almost in full: the uncapped attempt
    peaks at about 258 MB (VmHWM) after about 6 s, while the
    interpreter and the whole package take about 24 MB.  A
    ``memory_mb=64`` cap is met by the attempt's own state space and
    never by start-up.  (With ``vld`` first they key one instant per
    decoded frame, and the attempt stays near 24 MB.)
    """
    application = application_to_dict(h263_decoder(macroblocks=2_000))
    actors = application["graph"]["actors"]
    names = [actor["name"] for actor in actors]
    actors.insert(0, actors.pop(names.index("idct")))
    return application, architecture_to_dict(h263_architecture())


def rename_isomorphic(application, seed=0, prefix="iso"):
    """A consistently renamed application dict (same canonical form)."""
    rng = random.Random(seed)
    actors = [a["name"] for a in application["graph"]["actors"]]
    channels = [c["name"] for c in application["graph"]["channels"]]
    rng.shuffle(actors)
    rng.shuffle(channels)
    actor_map = {name: f"{prefix}_a{i}" for i, name in enumerate(actors)}
    channel_map = {
        name: f"{prefix}_c{i}" for i, name in enumerate(channels)
    }
    renamed = copy.deepcopy(application)
    renamed["name"] = f"{prefix}-{application['name']}"
    renamed["graph"]["actors"] = [
        {**a, "name": actor_map[a["name"]]}
        for a in application["graph"]["actors"]
    ]
    renamed["graph"]["channels"] = [
        {
            **c,
            "name": channel_map[c["name"]],
            "src": actor_map[c["src"]],
            "dst": actor_map[c["dst"]],
        }
        for c in application["graph"]["channels"]
    ]
    renamed["actors"] = {
        actor_map[k]: v for k, v in application["actors"].items()
    }
    renamed["channels"] = {
        channel_map[k]: v
        for k, v in application.get("channels", {}).items()
    }
    renamed["output_actor"] = actor_map[application["output_actor"]]
    return renamed
