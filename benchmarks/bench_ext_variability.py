"""Extension (paper §1): balancing under hardware variability.

The paper notes DynMo "can also be applied to models that adapt for
other reasons, such as hardware variability" (Sinha et al.).  A static
plan on a cluster whose GPUs differ by a few percent (binning +
thermal drift) is permanently imbalanced; the speed-aware balancer
recovers most of it.
"""

from __future__ import annotations

from repro.cluster.variability import GPUVariability
from repro.core.balancers.hetero import HeteroPartitionBalancer
from repro.experiments import ascii_table
from repro.model.config import gpt_24
from repro.model.cost import ModelCost, build_layer_specs, fresh_states, state_matrix
from repro.pipeline import PipelineEngine, PipelinePlan


def _run():
    specs = build_layer_specs(gpt_24())
    cost = ModelCost(specs)
    states = fresh_states(len(specs))
    fwd, bwd, _ = cost.layer_times(state_matrix([states]))
    w = fwd[0] + bwd[0]
    rows = []
    for sigma in (0.02, 0.05, 0.10):
        var = GPUVariability(8, binning_sigma=sigma, thermal_sigma=0.0, seed=1)
        speeds = var.speeds()
        eng = PipelineEngine(cost, None, schedule="zb", num_micro=32, worker_speeds=speeds)
        uniform = PipelinePlan.uniform(len(specs), 8)
        balanced = HeteroPartitionBalancer(speeds).rebalance(uniform, w).plan
        t_uni = eng.run_iteration(uniform, states).makespan
        t_bal = eng.run_iteration(balanced, states).makespan
        rows.append(
            {
                "binning_sigma": sigma,
                "speed_spread": var.spread(),
                "static_ms": t_uni * 1e3,
                "balanced_ms": t_bal * 1e3,
                "speedup": t_uni / t_bal,
            }
        )
    return rows


def test_hardware_variability(once):
    rows = once(_run)
    print()
    print(ascii_table(rows, title="Extension — hardware variability balancing"))
    for row in rows:
        # speed-aware balancing always recovers something
        assert row["speedup"] >= 1.02, row
    # and the recovery is substantial at realistic binning spreads
    assert max(r["speedup"] for r in rows) > 1.1
    # spread grows with sigma (the imbalance source is real)
    assert rows[-1]["speed_spread"] > rows[0]["speed_spread"]
