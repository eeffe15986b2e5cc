"""Per-layer spans and counters, wrapped around the program from outside.

Nothing under ``src/`` knows about this module.  :func:`install`
replaces each layer's public entry points with a timing wrapper, after
``repro.cli`` is imported and before any Trainer exists (a Trainer binds
its scheme's ``advance`` when a run starts, so a later patch would miss
it).  A name that a caller imported with ``from ... import`` is patched
where that caller looks it up, in addition to its home module.

Each wrapper opens a span.  A layer's busy time is self time: the time
its child spans cover is subtracted.  A call into the layer that is
already the innermost open span (``advance`` calling ``step``, a
baseline delegating to its inner scheme) is not a new span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

#: layer -> public entry points, as (module, attribute or Class.method)
ENTRY_POINTS: dict[str, list[tuple[str, str]]] = {
    "setup": [
        ("repro.experiments.common", "build_scenario"),
        ("repro.experiments.common", "make_trainer"),
    ],
    "dynamics": [],  # every scheme class, found by _dynamics_classes()
    "controller": [("repro.core.controller", "DynMoController.rebalance")],
    "profiler": [("repro.core.profiler", "PipelineProfiler.profile")],
    "balancers": [
        ("repro.core.balancers.partition", "PartitionBalancer.rebalance"),
        ("repro.core.balancers.diffusion", "DiffusionBalancer.rebalance"),
        ("repro.core.balancers.dpexact", "DPExactBalancer.rebalance"),
    ],
    "memory": [
        ("repro.model.memory", "StageMemoryModel.plan_stage_bytes"),
        ("repro.model.memory", "StageMemoryModel.layer_bytes"),
        ("repro.training.trainer", "validate_memory"),
    ],
    "engine": [("repro.pipeline.engine", "PipelineEngine.run_iteration")],
    "batched": [
        ("repro.pipeline.batched", "simulate_many"),
        ("repro.training.lockstep", "simulate_many"),
    ],
    "prewarm": [("repro.training.trainer", "Trainer.prewarm")],
    "lockstep": [("repro.training.lockstep", "run_trainers_lockstep")],
    "migration": [
        ("repro.pipeline.migration", "MigrationPlan.cost_seconds"),
        ("repro.pipeline.migration", "diff_plans"),
        ("repro.training.trainer", "diff_plans"),
        ("repro.core.controller", "diff_plans"),
    ],
    "cache": [
        ("repro.orchestrator.cache", "ResultCache.get"),
        ("repro.orchestrator.cache", "ResultCache.put"),
    ],
    # the ensemble writes its JSON inline from EnsembleResult.to_dict(),
    # and every command prints its table through ascii_table
    "export": [
        ("repro.orchestrator.export", "write_json"),
        ("repro.orchestrator.export", "records_to_rows"),
        ("repro.cli", "write_json"),
        ("repro.cli", "records_to_rows"),
        ("repro.cli", "ascii_table"),
        ("repro.orchestrator.ensemble", "EnsembleResult.to_dict"),
    ],
}

LAYERS = tuple(ENTRY_POINTS)
#: outcome counters the wrappers keep beside calls and busy time
COUNTERS = (
    "iterations_run",
    "engine_direct",
    "scalar_fallbacks",
    "batched_lanes",
    "prewarm_scenarios",
    "rebalanced",
    "oom_rejections",
    "cache_gets",
    "cache_hits",
)


class Tracer:
    """In-memory spans folded into per-layer totals as they close."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.busy_s: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.open: Counter[str] = Counter()  # open spans per layer
        self._stack: list[list[Any]] = []  # [layer, time covered by children]
        #: > 0 while the sweep runner is executing (the run phase)
        self.in_run = 0
        self.busy_in_run_s = 0.0

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        on_call: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            self.open[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.open[layer] -= 1
                own = elapsed - frame[1]
                self.calls[layer] += 1
                self.busy_s[layer] += own
                if self.in_run:
                    self.busy_in_run_s += own
                if stack:
                    stack[-1][1] += elapsed
            if on_call is not None:
                on_call(self, args, result)
            return result

        return wrapper

    def stats(self) -> dict[str, Any]:
        return {
            "calls": {layer: self.calls[layer] for layer in LAYERS},
            "busy_s": {layer: self.busy_s[layer] for layer in LAYERS},
            "counters": {key: self.counters[key] for key in COUNTERS},
            "busy_in_run_s": self.busy_in_run_s,
        }


# -- outcome counters, computed from arguments and return values -------------


def _on_dynamics(tr: Tracer, args: tuple, result: Any) -> None:
    # prewarm dry-runs the scheme on a copy; those steps are not iterations
    if not tr.open["prewarm"]:
        tr.counters["iterations_run"] += 1


def _on_engine(tr: Tracer, args: tuple, result: Any) -> None:
    if tr.open["batched"]:
        tr.counters["scalar_fallbacks"] += 1
    else:
        tr.counters["engine_direct"] += 1


def _on_batched(tr: Tracer, args: tuple, result: Any) -> None:
    tr.counters["batched_lanes"] += len(args[0])


def _on_prewarm(tr: Tracer, args: tuple, result: Any) -> None:
    tr.counters["prewarm_scenarios"] += int(result)


def _on_controller(tr: Tracer, args: tuple, result: Any) -> None:
    tr.counters["rebalanced"] += bool(result.rebalanced)
    tr.counters["oom_rejections"] += bool(result.oom_rejected)


def _on_cache_get(tr: Tracer, args: tuple, result: Any) -> None:
    tr.counters["cache_gets"] += 1
    tr.counters["cache_hits"] += result is not None


ON_CALL = {
    "dynamics": _on_dynamics,
    "engine": _on_engine,
    "batched": _on_batched,
    "prewarm": _on_prewarm,
    "controller": _on_controller,
}


def _dynamics_classes() -> list[type]:
    """Every scheme and baseline class the program has loaded."""
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith(("repro.dynamics.", "repro.baselines.")):
            continue
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == name:
                found.append(obj)
    return found


def _patch(owner: Any, attr: str, tracer: Tracer, layer: str) -> None:
    fn = vars(owner)[attr]
    on_call = _on_cache_get if (layer, attr) == ("cache", "get") else ON_CALL.get(layer)
    setattr(owner, attr, tracer.wrap(layer, fn, on_call))


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` with ``tracer``."""
    for layer, points in ENTRY_POINTS.items():
        for module_name, qualname in points:
            owner: Any = importlib.import_module(module_name)
            *classes, attr = qualname.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            _patch(owner, attr, tracer, layer)
    for cls in _dynamics_classes():
        for attr in ("advance", "step"):
            fn = vars(cls).get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                _patch(cls, attr, tracer, "dynamics")
