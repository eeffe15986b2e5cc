"""The authoritative per-stage memory model (schedule + precision aware).

Everything that makes or validates a placement decision — initial
placement, balancer moves, Algorithm-2 re-packing, event-driven
shrink/regrow — prices resident memory through one model instead of
ad-hoc scalars.  Per-stage resident bytes decompose as

    params (working dtype, CSR when pruned)
  + master weights (fp32 copy; mixed precision only)
  + gradients + optimizer state (fp32; dropped for frozen layers)
  + activations x in-flight micro-batches

where the in-flight count is a property of the *schedule*: GPipe keeps
every micro-batch's activations alive (M per stage), while 1F1B and
zero-bubble drain as they go, holding at most ``num_stages - stage``
(the warmup depth of that stage).  Activation recomputation drops the
held activations to one micro-batch per stage; its recompute FLOPs are
already folded into stage times by
:class:`~repro.model.cost.ModelCost` (``backward += forward``).

Every term comes from :meth:`~repro.model.cost.ModelCost.layer_bytes`,
the one array path for bytes, in the cost's own precision
(:data:`~repro.model.cost.PRECISION_BYTES`: "mixed" keeps bf16 weights
with an fp32 master copy, "full" is fp32 throughout with no master
copy).  Neither precision nor enforcement affects timing, so a run that
fits simulates exactly the time of an unenforced one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
import numpy.typing as npt

SCHEDULES = ("gpipe", "1f1b", "zb")


@dataclass(frozen=True)
class StageMemoryReport:
    """Resident-byte accounting for one placed pipeline stage."""

    stage: int
    ranks: tuple[int, ...]  # dp_group of the stage; () when unplaced
    capacity_bytes: float  # min device memory over ranks (and any limit)
    param_bytes: int  # working weights (CSR overhead when pruned)
    master_bytes: int  # fp32 master copy (mixed precision only)
    grad_bytes: int
    optimizer_bytes: int
    activation_bytes: int
    in_flight: int  # micro-batches whose activations are held

    @property
    def total_bytes(self) -> int:
        return (
            self.param_bytes
            + self.master_bytes
            + self.grad_bytes
            + self.optimizer_bytes
            + self.activation_bytes
        )

    @property
    def fits(self) -> bool:
        return self.total_bytes <= self.capacity_bytes

    def as_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "ranks": list(self.ranks),
            "capacity_bytes": float(self.capacity_bytes),
            "param_bytes": int(self.param_bytes),
            "master_bytes": int(self.master_bytes),
            "grad_bytes": int(self.grad_bytes),
            "optimizer_bytes": int(self.optimizer_bytes),
            "activation_bytes": int(self.activation_bytes),
            "in_flight": int(self.in_flight),
            "total_bytes": int(self.total_bytes),
            "fits": bool(self.fits),
        }


class StageMemoryModel:
    """Prices per-stage resident memory for a (cost, schedule) pair.

    Precision and activation recompute are the bound
    :class:`~repro.model.cost.ModelCost`'s own knobs; ``limit_bytes``
    is an optional per-rank cap applied *on top of* device capacities
    (the ``--memory-limit`` sweep axis).
    """

    def __init__(
        self,
        cost: Any,
        schedule: str = "zb",
        num_micro: int = 32,
        limit_bytes: float | None = None,
    ) -> None:
        if schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; choose from {SCHEDULES}"
            )
        if num_micro < 1:
            raise ValueError("num_micro must be >= 1")
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError("limit_bytes must be positive")
        self.cost = cost
        self.schedule = schedule
        self.num_micro = int(num_micro)
        self.limit_bytes = limit_bytes

    # -- schedule-aware in-flight counts ---------------------------------
    def in_flight(self, stage: int, num_stages: int) -> int:
        """Micro-batches whose activations stage ``stage`` holds at peak.

        GPipe runs all forwards before any backward, so every stage
        holds all M micro-batches; 1F1B/zero-bubble interleave, so a
        stage holds at most its warmup depth ``num_stages - stage``.
        Recomputation retains only the boundary activation.
        """
        if not 0 <= stage < num_stages:
            raise ValueError(f"stage {stage} out of range for {num_stages} stages")
        if self.cost.activation_recompute:
            return 1
        if self.schedule == "gpipe":
            return self.num_micro
        return max(1, min(self.num_micro, num_stages - stage))

    def worst_in_flight(self, num_stages: int) -> int:
        """The deepest stage's in-flight count (stage 0)."""
        return self.in_flight(0, max(1, num_stages))

    # -- capacities ---------------------------------------------------------
    def stage_capacities(
        self, num_stages: int, placement: Any = None, topology: Any = None
    ) -> list[float]:
        """Bytes each stage may hold: the smallest device memory over
        the stage's placed ranks (heterogeneous clusters differ per
        stage), else the cluster-wide minimum of ``topology``, else
        unbounded; each clipped by ``limit_bytes``."""
        if placement is not None:
            if placement.num_stages != num_stages:
                raise ValueError(
                    f"placement has {placement.num_stages} stages, "
                    f"plan has {num_stages}"
                )
            caps = [float(c) for c in placement.stage_capacities()]
        elif topology is not None:
            caps = [float(topology.min_memory_bytes)] * num_stages
        else:
            caps = [float("inf")] * num_stages
        limit = self.limit_bytes
        if limit is not None:
            caps = [min(c, float(limit)) for c in caps]
        return caps

    # -- accounting ---------------------------------------------------------
    def _layer_bytes(self, states: npt.NDArray[np.float64], in_flight: Any) -> Any:
        """``(5, L)`` int64 per-layer bytes in the cost's precision."""
        cost = self.cost
        if len(states) != len(cost.specs):
            raise ValueError(f"got {len(states)} states for {len(cost.specs)} layer specs")
        return cost.layer_bytes(states[None], in_flight, cost.precision)[:, 0]

    def _stage_bytes(self, plan: Any, states: npt.NDArray[np.float64]) -> Any:
        """``(5, S)`` int64 per-stage bytes, each stage at its in-flight
        count."""
        S = plan.num_stages
        infl = [self.in_flight(s, S) for s in range(S) for _ in plan.stage_layers(s)]
        return plan.stage_sums(self._layer_bytes(states, infl))

    def layer_bytes(self, states: npt.NDArray[np.float64], in_flight: int) -> list[int]:
        """Per-layer resident bytes at a fixed in-flight count.

        This is the vector balancers consume: per-layer memory cannot
        express a stage-dependent in-flight count, so callers pass the
        conservative :meth:`worst_in_flight`.
        """
        totals: list[int] = self._layer_bytes(states, in_flight).sum(axis=0).tolist()
        return totals

    def plan_stage_bytes(self, plan: Any, states: npt.NDArray[np.float64]) -> list[int]:
        """Total resident bytes per stage of ``plan`` (no capacities)."""
        totals: list[int] = self._stage_bytes(plan, states).sum(axis=0).tolist()
        return totals

    def stage_reports(
        self,
        plan: Any,
        states: npt.NDArray[np.float64],
        capacities: Sequence[float],
        ranks: Sequence[tuple[int, ...]] | None = None,
    ) -> list[StageMemoryReport]:
        """One :class:`StageMemoryReport` per stage of ``plan``, against
        the given per-stage capacities and (optionally) placed ranks."""
        S = plan.num_stages
        per_stage = self._stage_bytes(plan, states).T.tolist()
        return [
            StageMemoryReport(
                stage=s,
                ranks=tuple(int(r) for r in ranks[s]) if ranks else (),
                capacity_bytes=float(capacities[s]),
                param_bytes=weight,
                master_bytes=master,
                grad_bytes=grad,
                optimizer_bytes=opt,
                activation_bytes=act,
                in_flight=self.in_flight(s, S),
            )
            for s, (weight, master, grad, opt, act) in enumerate(per_stage)
        ]
