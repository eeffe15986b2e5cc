"""Run outcomes: the :class:`RunRecord` envelope and metric extraction.

A record carries the spec that produced it, its content hash, a status
(``ok`` / ``oom`` / ``error`` / ``timeout`` / ``crashed``), wall-clock
duration, and — for successful runs — a plain-dict snapshot of the
:class:`~repro.training.trainer.TrainingResult`.  ``oom`` is a
*deterministic* outcome (the memory model priced a placement over
capacity), unlike ``error``/``timeout``/``crashed``: it is cacheable
and its metrics carry the failing per-stage reports.  Metrics are pure
data (floats/ints/lists), so records serialise losslessly to JSON and
compare exactly across serial and parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.orchestrator.spec import RunSpec

RECORD_SCHEMA_VERSION = 1


class SweepError(RuntimeError):
    """A sweep run failed and its result was required."""


@dataclass
class RunRecord:
    spec: RunSpec
    spec_hash: str
    status: str  # "ok" | "oom" | "error" | "timeout" | "crashed"
    duration_s: float = 0.0
    cached: bool = False
    error: str | None = None
    error_type: str | None = None
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def unwrap(self) -> dict[str, Any]:
        """Return the metrics, raising :class:`SweepError` on failure."""
        if not self.ok:
            raise SweepError(
                f"run {self.spec.label} [{self.spec_hash}] "
                f"{self.status}: {self.error or 'no detail'}"
            )
        return self.metrics

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": RECORD_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec_hash,
            "status": self.status,
            "duration_s": self.duration_s,
            "cached": self.cached,
            "error": self.error,
            "error_type": self.error_type,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunRecord":
        return cls(
            spec=RunSpec.from_dict(d["spec"]),
            spec_hash=d["spec_hash"],
            status=d["status"],
            duration_s=float(d.get("duration_s", 0.0)),
            cached=bool(d.get("cached", False)),
            error=d.get("error"),
            error_type=d.get("error_type"),
            metrics=d.get("metrics") or {},
        )


def result_metrics(res: Any) -> dict[str, Any]:
    """Flatten a ``TrainingResult`` into JSON-clean metrics."""
    return {
        "total_time_s": float(res.total_time_s),
        "total_tokens": float(res.total_tokens),
        "iterations": int(res.iterations),
        "tokens_per_s": float(res.tokens_per_s),
        "mean_bubble_ratio": float(res.mean_bubble_ratio),
        "overhead_s": float(res.overhead_s),
        "overhead_fraction": float(res.overhead_fraction),
        "layers_moved": int(res.layers_moved),
        "average_gpus": float(res.average_gpus),
        "final_num_stages": (
            int(res.final_plan.num_stages) if res.final_plan is not None else 0
        ),
        "placement_strategy": str(res.placement_strategy),
        "final_stage_ranks": [int(r) for r in res.final_stage_ranks],
        "released_ranks_history": [
            [int(k), [int(r) for r in ranks]]
            for k, ranks in res.released_ranks_history
        ],
        "cluster_events_applied": [
            [int(k), str(kind), [int(r) for r in ranks]]
            for k, kind, ranks in res.cluster_events_applied
        ],
        "bubble_history": [[int(k), float(b)] for k, b in res.bubble_history],
        "makespan_history": [[int(k), float(m)] for k, m in res.makespan_history],
        "stage_count_history": [[int(k), int(s)] for k, s in res.stage_count_history],
        "peak_stage_bytes": float(res.peak_stage_bytes),
        "oom_events": int(res.oom_events),
    }
