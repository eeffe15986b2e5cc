"""Layer migration between pipeline plans.

When DynMo rebalances, layers move between adjacent (or, after
re-packing, arbitrary) stages.  The migration ships weights, gradients
and optimizer state; for pruned layers, CSR metadata (row offsets +
column indices) rides along (section 5.2).  The paper couples the
movement with back-propagation ("moving layers while the gradient
calculation takes place"), which hides part of the cost — modelled
with an ``overlap`` factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.collectives import CommCostModel
from repro.cluster.placement import Placement
from repro.model.cost import LayerState, ModelCost, state_matrix
from repro.pipeline.plan import PipelinePlan


@dataclass(frozen=True)
class LayerTransfer:
    layer: int
    src_stage: int
    dst_stage: int
    nbytes: int


@dataclass
class MigrationPlan:
    transfers: list[LayerTransfer] = field(default_factory=list)

    @property
    def num_layers_moved(self) -> int:
        return len(self.transfers)

    @property
    def total_bytes(self) -> int:
        return sum(t.nbytes for t in self.transfers)

    def cost_seconds(
        self,
        comm: CommCostModel | None,
        overlap: float = 0.7,
        src_placement: Placement | None = None,
        dst_placement: Placement | None = None,
    ) -> float:
        """Wall-clock cost of the migration.

        ``overlap`` is the fraction hidden behind back-propagation
        (paper section 3.3.1: migration is coupled with the pipeline's
        backward communication, last to first layer).

        ``src_placement`` resolves source stages to GPU ranks and
        ``dst_placement`` destination stages.  The two differ whenever
        the move crosses a cluster change: a *shrink* (re-pack or
        failure — the destination has fewer stages) and a *regrow*
        (recovered ranks re-admitted — the destination has more) are
        both priced between the ranks that actually hold the stages on
        each side.  With no placement the identity mapping
        ``rank == stage`` is priced.
        """
        if comm is None or not self.transfers:
            return 0.0
        if not 0.0 <= overlap <= 1.0:
            raise ValueError("overlap must be in [0, 1]")
        if dst_placement is None:
            dst_placement = src_placement
        if src_placement is None:
            src_placement = dst_placement
        exposed = 0.0
        if src_placement is None:  # both unset: identity rank == stage
            for t in self.transfers:
                exposed += comm.p2p_time(t.src_stage, t.dst_stage, t.nbytes)
            return exposed * (1.0 - overlap)
        for t in self.transfers:
            if not 0 <= t.src_stage < src_placement.num_stages:
                raise ValueError(
                    f"transfer of layer {t.layer} leaves stage {t.src_stage}, "
                    f"but the source placement has "
                    f"{src_placement.num_stages} stages"
                )
            if not 0 <= t.dst_stage < dst_placement.num_stages:
                raise ValueError(
                    f"transfer of layer {t.layer} targets stage {t.dst_stage}, "
                    f"but the destination placement has "
                    f"{dst_placement.num_stages} stages"
                )
        # every DP replica ships its own copy of the layer in lockstep,
        # so the exposed cost is the worst replica's link
        replicas = min(src_placement.dp_ways, dst_placement.dp_ways)
        for t in self.transfers:
            exposed += max(
                comm.p2p_time(
                    src_placement.rank_of(t.src_stage, d),
                    dst_placement.rank_of(t.dst_stage, d),
                    t.nbytes,
                )
                for d in range(replicas)
            )
        return exposed * (1.0 - overlap)


def diff_plans(
    old: PipelinePlan,
    new: PipelinePlan,
    cost: ModelCost,
    states: list[LayerState],
) -> MigrationPlan:
    """Transfers required to morph ``old`` into ``new``.

    Plans may have different stage counts (re-packing); a layer moves
    when its stage index changes, and ships its weights, master copy,
    gradients and optimizer state (:meth:`ModelCost.layer_bytes`
    without activations).
    """
    if old.num_layers != new.num_layers:
        raise ValueError("plans cover different layer counts")
    src = old.layer_stages()
    dst = new.layer_stages()
    moved = np.flatnonzero(src != dst)
    plan = MigrationPlan()
    if moved.size:
        payload = cost.layer_bytes(state_matrix([states]))[:4, 0].sum(axis=0)
        plan.transfers = [
            LayerTransfer(*t)
            for t in zip(
                moved.tolist(),
                src[moved].tolist(),
                dst[moved].tolist(),
                payload[moved].tolist(),
            )
        ]
    return plan
