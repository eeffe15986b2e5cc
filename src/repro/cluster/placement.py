"""Explicit placement of pipeline stages (× DP replicas) onto GPU ranks.

The paper's re-packing story (Algorithm 2, Fig. 4) is about *which
GPUs survive* consolidation.  A :class:`Placement` records exactly
that: a stage → global-rank map for every data-parallel replica,
constructed from a :class:`~repro.cluster.topology.ClusterTopology`
and kept up to date across re-packs.  Everything that prices
communication — the pipeline engine's activation hand-offs, the DP
gradient all-reduce, and migration costing — resolves stages to ranks
through the placement instead of assuming ``rank == stage``.

Strategies
----------

``packed``
    Each replica's stages occupy consecutive ranks (Megatron default):
    adjacent-stage traffic stays on NVLink wherever possible, the DP
    group for a stage spans replicas (usually nodes).
``scattered``
    Stages are dealt round-robin across nodes: every pipeline hop is
    inter-node (the locality worst case, useful as a bound and to
    model power/HBM-pressure balancing).
``dp-outer``
    All DP replicas of a stage sit next to each other, so the gradient
    all-reduce rides NVLink and pipeline hops pay InfiniBand (the
    DP-innermost layout of DeepSpeed-style launchers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.topology import ClusterTopology, REFERENCE_GPU

PLACEMENT_STRATEGIES = ("packed", "scattered", "dp-outer")


@dataclass(frozen=True)
class Placement:
    """An immutable (stage, replica) → global rank assignment."""

    topology: ClusterTopology
    grid: tuple[tuple[int, ...], ...]  # grid[stage][replica] = global rank
    strategy: str = "packed"

    def __post_init__(self) -> None:
        if not self.grid or not self.grid[0]:
            raise ValueError("placement needs at least one stage and one replica")
        width = {len(row) for row in self.grid}
        if len(width) != 1:
            raise ValueError("every stage needs the same number of DP replicas")
        flat = [r for row in self.grid for r in row]
        if len(set(flat)) != len(flat):
            raise ValueError(f"placement assigns a rank twice: {self.grid}")
        for r in flat:
            if not 0 <= r < self.topology.num_gpus:
                raise ValueError(
                    f"rank {r} out of range for a {self.topology.num_gpus}-GPU cluster"
                )

    # -- queries ---------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(self.grid)

    @property
    def dp_ways(self) -> int:
        return len(self.grid[0])

    def rank_of(self, stage: int, replica: int = 0) -> int:
        return self.grid[stage][replica]

    def stage_ranks(self, replica: int = 0) -> tuple[int, ...]:
        """The pipeline chain of one DP replica, stage order."""
        return tuple(row[replica] for row in self.grid)

    def dp_group(self, stage: int) -> tuple[int, ...]:
        """Ranks holding one stage across all DP replicas (the
        gradient all-reduce group)."""
        return self.grid[stage]

    def all_ranks(self) -> tuple[int, ...]:
        return tuple(r for row in self.grid for r in row)

    def worker_speeds(self) -> np.ndarray:
        """Per-stage relative compute speed, from the placed devices.

        Speeds are relative to :data:`~repro.cluster.topology.REFERENCE_GPU`
        (which ``ModelCost`` is calibrated against).  A DP group is
        synchronous, so a stage moves at its *slowest* replica.
        """
        topo = self.topology
        return np.array(
            [
                min(topo.gpu_of(r).effective_flops for r in row)
                / REFERENCE_GPU.effective_flops
                for row in self.grid
            ]
        )

    def is_heterogeneous(self) -> bool:
        return len({self.topology.gpu_of(r) for r in self.all_ranks()}) > 1

    # -- memory capacity -------------------------------------------------
    def stage_capacities(self) -> tuple[int, ...]:
        """Device memory available to each stage: the *minimum* over its
        DP group's placed devices (a replica that does not fit sinks the
        whole synchronous group), from each rank's actual
        :class:`~repro.cluster.topology.GPUSpec` — per-node capacity,
        never the cluster-wide ``min_memory_bytes``.

        Cached on first use (the placement is immutable and the
        rank→device resolution walks the node list): the controller and
        the trainer's validation pass ask every rebalance."""
        caps: tuple[int, ...] | None = self.__dict__.get("_stage_caps")
        if caps is None:
            topo = self.topology
            caps = tuple(
                min(topo.gpu_of(r).memory_bytes for r in row)
                for row in self.grid
            )
            object.__setattr__(self, "_stage_caps", caps)
        return caps

    # -- re-packing ------------------------------------------------------
    def after_repack(self, surviving_stages: list[int]) -> "Placement":
        """The placement over the stages that survive a re-pack.

        ``surviving_stages`` are *old* stage indices (ascending);
        new stage ``i`` inherits the rank group of old stage
        ``surviving_stages[i]`` — the GPUs that were NOT released keep
        their physical identity, which is what makes post-repack comm
        pricing honest.
        """
        if not surviving_stages:
            raise ValueError("at least one stage must survive a re-pack")
        for s in surviving_stages:
            if not 0 <= s < self.num_stages:
                raise ValueError(
                    f"surviving stage {s} out of range for a "
                    f"{self.num_stages}-stage placement"
                )
        # strictly ascending: `sorted(x) == x` would accept duplicates
        # like [1, 1, 2] and silently assign one rank group twice
        if any(a >= b for a, b in zip(surviving_stages, surviving_stages[1:])):
            raise ValueError(
                f"surviving stages must be strictly ascending old indices, "
                f"got {list(surviving_stages)}"
            )
        return Placement(
            topology=self.topology,
            grid=tuple(self.grid[s] for s in surviving_stages),
            strategy=self.strategy,
        )

    def after_regrow(
        self, insertions: "Sequence[tuple[int, Sequence[int]]]"
    ) -> "Placement":
        """Re-admit released rank groups — the inverse of :meth:`after_repack`.

        ``insertions`` are ``(stage, ranks)`` pairs with *new* stage
        indices in strictly ascending order; each rank group becomes
        stage ``stage`` of the regrown placement, existing stages
        shifting up around them.  ``p.after_repack(surv).after_regrow(
        [(s, p.dp_group(s)) for s not in surv])`` round-trips to ``p``.
        """
        if not insertions:
            raise ValueError("regrow needs at least one (stage, ranks) group")
        pairs = [(int(s), tuple(int(r) for r in group)) for s, group in insertions]
        if any(a >= b for (a, _), (b, _) in zip(pairs, pairs[1:])):
            raise ValueError(
                f"regrow stages must be strictly ascending new indices, "
                f"got {[s for s, _ in pairs]}"
            )
        width = self.dp_ways
        rows = [tuple(row) for row in self.grid]
        for stage, group in pairs:
            if len(group) != width:
                raise ValueError(
                    f"regrown stage {stage} has {len(group)} replicas, "
                    f"placement has {width}"
                )
            if not 0 <= stage <= len(rows):
                raise ValueError(
                    f"regrow stage {stage} out of range for the resulting "
                    f"{len(rows) + 1}-stage placement"
                )
            rows.insert(stage, group)
        # duplicate- and range-checks ride on the constructor
        return Placement(
            topology=self.topology, grid=tuple(rows), strategy=self.strategy
        )

    def released_ranks(self, surviving_stages: list[int]) -> tuple[int, ...]:
        """Global ranks freed when only ``surviving_stages`` remain."""
        keep = {r for s in surviving_stages for r in self.grid[s]}
        return tuple(r for r in self.all_ranks() if r not in keep)


def validate_memory(
    model,
    plan,
    states,
    placement: Placement | None = None,
    topology: ClusterTopology | None = None,
) -> list:
    """Price every stage of ``plan`` against its placed ranks' memory.

    Returns one :class:`~repro.model.memory.StageMemoryReport` per
    stage; callers decide whether a failing report is fatal (the
    Trainer raises :class:`~repro.cluster.memory.PlacementOOMError`).
    Capacities follow
    :meth:`~repro.model.memory.StageMemoryModel.stage_capacities`.
    """
    caps = model.stage_capacities(plan.num_stages, placement, topology)
    ranks = (
        [placement.dp_group(s) for s in range(plan.num_stages)]
        if placement is not None
        else None
    )
    return model.stage_reports(plan, states, caps, ranks)


def node_interleaved_order(topology: ClusterTopology) -> list[int]:
    """Ranks ordered slot-by-slot across nodes (node0 slot0, node1
    slot0, …, node0 slot1, …), robust to uneven node sizes."""
    pools = [list(topology.node_ranks(n)) for n in range(topology.num_nodes)]
    order: list[int] = []
    slot = 0
    while any(slot < len(p) for p in pools):
        for p in pools:
            if slot < len(p):
                order.append(p[slot])
        slot += 1
    return order


def make_placement(
    topology: ClusterTopology,
    num_stages: int,
    dp_ways: int = 1,
    strategy: str = "packed",
) -> Placement:
    """Place an S-stage, D-replica pipeline grid onto a cluster."""
    if strategy not in PLACEMENT_STRATEGIES:
        raise ValueError(
            f"unknown placement strategy {strategy!r}; "
            f"choose from {PLACEMENT_STRATEGIES}"
        )
    if num_stages <= 0 or dp_ways <= 0:
        raise ValueError("num_stages and dp_ways must be positive")
    need = num_stages * dp_ways
    if need > topology.num_gpus:
        raise ValueError(
            f"{num_stages}x{dp_ways} grid needs {need} GPUs, "
            f"cluster has {topology.num_gpus}"
        )
    if strategy == "dp-outer":
        # stage-major: a stage's replicas are consecutive ranks
        grid = tuple(
            tuple(s * dp_ways + d for d in range(dp_ways))
            for s in range(num_stages)
        )
    else:
        order = (
            list(range(need))
            if strategy == "packed"
            else node_interleaved_order(topology)[:need]
        )
        # replica-major: each replica's chain is consecutive in `order`
        grid = tuple(
            tuple(order[d * num_stages + s] for d in range(dp_ways))
            for s in range(num_stages)
        )
    return Placement(topology=topology, grid=grid, strategy=strategy)
