"""Balancing a pipeline on heterogeneous GPUs (paper §1 extension).

Identical-SKU GPUs differ by binning and thermal throttling; a static
uniform layer split then idles the fast GPUs.  DynMo's measured-time
profile captures this automatically; the speed-aware balancer assigns
fewer layers to slow workers.  Also renders the before/after Gantt so
the recovered bubbles are visible, and demonstrates trace replay.

Run:  python examples/hardware_variability.py
"""

import numpy as np

from repro.cluster.variability import GPUVariability
from repro.core.balancers.hetero import HeteroPartitionBalancer
from repro.model import ModelCost, build_layer_specs, gpt_24
from repro.model.cost import fresh_states, state_matrix
from repro.pipeline import PipelineEngine, PipelinePlan
from repro.pipeline.visualize import render_gantt
from repro.training.trace import TraceRecorder


def main() -> None:
    specs = build_layer_specs(gpt_24())
    cost = ModelCost(specs)
    states = fresh_states(len(specs))

    var = GPUVariability(4, binning_sigma=0.12, thermal_sigma=0.0, seed=3)
    speeds = var.speeds()
    print("per-GPU speed factors:", np.round(speeds, 3), f"(spread {var.spread():.2f}x)")

    eng = PipelineEngine(
        cost, None, schedule="zb", num_micro=8, worker_speeds=speeds,
        record_timeline=True,
    )
    uniform = PipelinePlan.uniform(len(specs), 4)
    res_uni = eng.run_iteration(uniform, states)

    fwd, bwd, _ = cost.layer_times(state_matrix([states]))
    w = fwd[0] + bwd[0]
    balanced = HeteroPartitionBalancer(speeds).rebalance(uniform, w).plan
    res_bal = eng.run_iteration(balanced, states)

    print(f"\nuniform split : {res_uni.makespan * 1e3:6.2f} ms  "
          f"bubble {res_uni.bubble_ratio():.1%}  sizes {uniform.stage_sizes()}")
    print(render_gantt(res_uni, width=72))
    print(f"\nspeed-aware   : {res_bal.makespan * 1e3:6.2f} ms  "
          f"bubble {res_bal.bubble_ratio():.1%}  sizes {balanced.stage_sizes()}")
    print(render_gantt(res_bal, width=72))
    print(f"\nspeedup: {res_uni.makespan / res_bal.makespan:.2f}x")

    # record a short trace and replay it on a *homogeneous* cluster to
    # isolate how much of the makespan was variability-induced
    rec = TraceRecorder()
    for k in range(3):
        var.step()
        res = eng.run_iteration(balanced, states)
        rec.record(k, balanced, states, res.makespan, res.bubble_ratio())
    homogeneous = PipelineEngine(cost, None, schedule="zb", num_micro=8)
    replayed = rec.trace.replay(homogeneous)
    print(f"\nreplay on homogeneous cluster: "
          f"{np.mean(replayed) * 1e3:.2f} ms vs recorded "
          f"{np.mean([r.makespan for r in rec.trace.records]) * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
