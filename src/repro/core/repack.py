"""Workload re-packing onto fewer workers (paper Algorithm 2, section 3.4).

``first_fit_repack`` is Algorithm 2 verbatim: iterate worker pairs
(src, dst) with src < dst; when their combined memory fits a single
GPU and we are still above the target worker count, move every layer
of src to dst and deactivate src.  The output is the transfer list the
paper's implementation hands to the migration engine.

``repack_plan`` maps the result back onto pipeline semantics: the
surviving workers receive a fresh *contiguous* partition over the same
layers (re-packing is always followed by a balancing pass in DynMo, so
the partition is immediately re-optimised by the active balancer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.pipeline.plan import PipelinePlan


def _per_worker_capacity(
    max_mem: "float | Sequence[float]", num_workers: int
) -> list[float]:
    """Broadcast a scalar ``MAX_MEM`` to per-worker capacities.

    The paper writes Algorithm 2 against one scalar ``MAX_MEM``;
    heterogeneous clusters need the guard per *destination* rank
    (a merge that fits an 80 GB H100 may not fit a 40 GB A100), so the
    capacity argument accepts either form.
    """
    if np.isscalar(max_mem):
        caps = [float(max_mem)] * num_workers  # type: ignore[arg-type]
    else:
        caps = [float(c) for c in np.asarray(max_mem, dtype=float)]
        if len(caps) != num_workers:
            raise ValueError(
                f"got {len(caps)} capacities for {num_workers} workers"
            )
    if any(c <= 0 for c in caps):
        raise ValueError("max_mem must be positive")
    return caps


@dataclass
class RepackResult:
    active_workers: list[int]  # 1 = still active, 0 = released
    transfers: list[tuple[int, int, int]]  # (src_worker, dst_worker, layer_idx)
    mem_usage: list[float]  # post-repack memory per worker

    @property
    def num_active(self) -> int:
        return sum(self.active_workers)

    @property
    def surviving(self) -> list[int]:
        """Old worker indices still active, ascending — new stage i
        inherits old stage ``surviving[i]``'s GPUs."""
        return [i for i, a in enumerate(self.active_workers) if a == 1]


def first_fit_repack(
    mem_usage: list[float],
    num_layers: list[int],
    max_mem: "float | Sequence[float]",
    target_num_workers: int = 1,
) -> RepackResult:
    """Algorithm 2. ``mem_usage[i]`` / ``num_layers[i]`` describe worker i.

    ``max_mem`` is either the paper's scalar ``MAX_MEM`` or one
    capacity per worker; a merge is admitted only when the combined
    memory fits the *destination* worker's capacity.
    """
    if len(mem_usage) != len(num_layers):
        raise ValueError("mem_usage and num_layers must have equal length")
    if target_num_workers < 1:
        raise ValueError("target_num_workers must be >= 1")
    num_ranks = len(mem_usage)
    caps = _per_worker_capacity(max_mem, num_ranks)
    active = [1] * num_ranks
    mem = list(map(float, mem_usage))
    layers = list(num_layers)
    transfers: list[tuple[int, int, int]] = []

    for src in range(num_ranks):
        for dst in range(src + 1, num_ranks):
            if active[src] == 0 or active[dst] == 0:
                continue
            if mem[src] + mem[dst] < caps[dst] and sum(active) > target_num_workers:
                active[src] = 0
                for lyr_idx in range(layers[src]):
                    transfers.append((src, dst, lyr_idx))
                mem[dst] += mem[src]
                mem[src] = 0.0
                layers[dst] += layers[src]
                layers[src] = 0
    return RepackResult(active, transfers, mem)


def repack_plan(
    plan: PipelinePlan,
    worker_memory: np.ndarray,
    max_mem: "float | Sequence[float]",
    target_num_workers: int = 1,
) -> tuple[PipelinePlan, RepackResult]:
    """Apply Algorithm 2 to a pipeline plan.

    Returns (new contiguous plan over the surviving stage count, the
    raw repack result).  If no consolidation is possible the original
    plan is returned unchanged.  ``max_mem`` may be one capacity per
    stage (heterogeneous clusters) or the paper's scalar ``MAX_MEM``.
    """
    mem = list(np.asarray(worker_memory, dtype=float))
    if len(mem) != plan.num_stages:
        raise ValueError("one memory figure per stage required")
    result = first_fit_repack(
        mem, plan.stage_sizes(), max_mem, target_num_workers
    )
    if result.num_active == plan.num_stages:
        return plan, result
    new_stages = max(1, result.num_active)
    new_plan = PipelinePlan.uniform(plan.num_layers, min(new_stages, plan.num_layers))
    return new_plan, result
