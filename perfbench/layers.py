"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps a layer's public functions at every place the
program can reach them: the defining module and each ``repro.*``
module that imported the function by name (``from x import f``) —
found by identity, so ``repro.core.slices.constrained_throughput`` and
``repro.exact.search.constrained_throughput`` are both wrapped without
listing them.  Methods are wrapped on their class.

Each wrapped call records its wall time.  A per-thread stack charges a
call's duration to its caller, so a layer's *self* time is its time
minus the time spent in wrapped layers it called, and the self times
of one thread partition the time its top-level wrapped calls took.
Optional ``work`` extractors read a count from the returned value
(states explored, nodes, throughput checks), so counts are measured
where the work happens.

Wrappers record nothing while the tracer is inactive, so set-up and
correctness checks outside a timed pass leave no trace.
"""

from __future__ import annotations

import importlib
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Tuple

#: work extractor: (returned value) -> {count name: amount}
WorkFn = Callable[[Any], Dict[str, float]]


@dataclass
class LayerStats:
    """What one thread (or, merged, one pass) recorded for one layer."""

    self_s: float = 0.0
    calls: int = 0
    #: per-call wall times (s), for latency percentiles
    durations: List[float] = field(default_factory=list)
    work: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "LayerStats") -> None:
        self.self_s += other.self_s
        self.calls += other.calls
        self.durations.extend(other.durations)
        for key, value in other.work.items():
            self.work[key] = self.work.get(key, 0) + value


class _Recorder:
    """One thread's records within one recording window."""

    def __init__(self) -> None:
        #: child-time accumulators of the open wrapped calls
        self.stack: List[float] = []
        self.stats: Dict[str, LayerStats] = {}
        #: summed duration of this thread's outermost wrapped calls
        self.top_s = 0.0


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.recorder: Optional[_Recorder] = None
        self.generation = -1


class Tracer:
    """Wraps layers; collects self time, calls, durations and work."""

    def __init__(self) -> None:
        self.active = False
        self._local = _ThreadState()
        self._lock = threading.Lock()
        #: the recorder of every thread seen in the current window
        self._recorders: List[_Recorder] = []
        self._generation = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------
    def wrap_function(
        self,
        layer: str,
        module: str,
        name: str,
        work: Optional[WorkFn] = None,
        callers: Tuple[ModuleType, ...] = (),
    ) -> None:
        """Wrap ``module.name`` wherever a ``repro`` module binds it.

        ``callers`` are further modules (the benchmark's own) whose
        by-name imports are wrapped too.
        """
        original = getattr(importlib.import_module(module), name)
        wrapper = self._wrapper(layer, original, work)
        modules = [
            loaded
            for loaded in list(sys.modules.values())
            if getattr(loaded, "__name__", "").startswith("repro")
        ]
        for loaded in modules + list(callers):
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, attr, wrapper)

    def wrap_method(
        self,
        layer: str,
        module: str,
        cls: str,
        name: str,
    ) -> None:
        """Wrap a method on its class, so every instance goes through it."""
        owner = getattr(importlib.import_module(module), cls)
        self._patch(owner, name, self._wrapper(layer, getattr(owner, name), None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrapper(
        self, layer: str, function: Callable, work: Optional[WorkFn]
    ) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return function(*args, **kwargs)
            state = tracer._recorder()
            state.stack.append(0.0)
            started = perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - started
                child = state.stack.pop()
                stats = state.stats.get(layer)
                if stats is None:
                    stats = state.stats[layer] = LayerStats()
                stats.self_s += elapsed - child
                stats.calls += 1
                stats.durations.append(elapsed)
                if work is not None and result is not None:
                    for key, value in work(result).items():
                        stats.work[key] = stats.work.get(key, 0) + value
                if state.stack:
                    state.stack[-1] += elapsed
                else:
                    state.top_s += elapsed

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__name__ = getattr(function, "__name__", "traced")
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # -- recording windows ---------------------------------------------
    def _recorder(self) -> _Recorder:
        local = self._local
        if local.generation != self._generation or local.recorder is None:
            local.recorder = _Recorder()
            local.generation = self._generation
            with self._lock:
                self._recorders.append(local.recorder)
        return local.recorder

    def start(self) -> None:
        """Open a recording window (one timed pass)."""
        with self._lock:
            self._generation += 1
            self._recorders = []
        self.active = True

    def stop(self) -> Tuple[Dict[str, LayerStats], float]:
        """Close the window: merged per-layer stats, top-level seconds."""
        self.active = False
        merged: Dict[str, LayerStats] = {}
        top_s = 0.0
        with self._lock:
            recorders = list(self._recorders)
        for recorder in recorders:
            top_s += recorder.top_s
            for layer, layer_stats in recorder.stats.items():
                merged.setdefault(layer, LayerStats()).merge(layer_stats)
        return merged, top_s


def _states(result: Any) -> Dict[str, float]:
    return {"states": result.states_explored}


def _slice_checks(result: Any) -> Dict[str, float]:
    return {"checks": result.throughput_checks}


def _exact(result: Any) -> Dict[str, float]:
    return {
        "nodes": result.nodes_explored,
        "pruned": result.nodes_pruned,
        "leaves": result.leaves_evaluated,
    }


def _rejects(report: Any) -> Dict[str, float]:
    return {"rejects": 1 if report.has_errors else 0}


def _degraded(result: Any) -> Dict[str, float]:
    return {"degraded": 1 if result.degraded else 0}


#: layer name -> (module, function, work extractor)
FUNCTION_LAYERS: Tuple[Tuple[str, str, str, Optional[WorkFn]], ...] = (
    ("throughput.constrained", "repro.throughput.constrained",
     "constrained_throughput", _states),
    ("core.slices", "repro.core.slices", "allocate_time_slices", _slice_checks),
    ("core.scheduling", "repro.core.scheduling",
     "build_static_order_schedules", None),
    ("core.binding", "repro.core.binding", "bind_application", None),
    ("appmodel.binding_aware", "repro.appmodel.binding_aware",
     "build_binding_aware_graph", None),
    ("exact.search", "repro.exact.search", "exact_search", _exact),
    ("throughput.state_space", "repro.throughput.state_space", "throughput",
     _states),
    ("csdf.throughput", "repro.csdf.throughput", "csdf_throughput", _states),
    ("analysis.preflight", "repro.analysis.engine", "preflight_check",
     _rejects),
    ("verify", "repro.verify.allocation", "certify_allocation", None),
    ("resilience.ladder", "repro.resilience.policy", "resilient_allocate",
     _degraded),
    ("service.canonical", "repro.service.canonical", "canonicalise_request",
     None),
    ("service.sandbox", "repro.service.sandbox", "run_sandboxed", None),
)

#: layer name -> (module, class, method)
METHOD_LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("service.cache", "repro.service.cache", "ResultCache", "lookup"),
    ("service.journal", "repro.service.journal", "JobJournal", "write"),
)


def install_layers(*callers: ModuleType) -> Tracer:
    """A tracer with every layer wrapped, in ``repro`` and ``callers``."""
    # import every module that binds a wrapped function first, so the
    # identity scan sees all of their import sites
    for module in (
        "repro.core.flow",
        "repro.exact.search",
        "repro.service.httpd",
        "repro.csdf",
        "repro.analysis",
        "repro.verify",
        "repro.generate.benchmark",
    ):
        importlib.import_module(module)
    tracer = Tracer()
    for layer, module, name, work in FUNCTION_LAYERS:
        tracer.wrap_function(layer, module, name, work, callers)
    for layer, module, cls, name in METHOD_LAYERS:
        tracer.wrap_method(layer, module, cls, name)
    return tracer
