"""Elastic training under gradual global magnitude pruning.

Reproduces the paper's flagship elasticity story (sections 3.2/3.4):
a GPT is pruned on the Zhu-Gupta cubic schedule to the global top-k
magnitudes of Algorithm 1 (the threshold the distributed algorithm
agrees on, whatever the rank count); as compute shrinks, DynMo re-packs
the pipeline onto fewer GPUs and releases them to an elastic job
manager, sustaining throughput-per-GPU.

Run:  python examples/elastic_pruning.py
"""

from repro.cluster import CommCostModel, ElasticJobManager, h100_cluster
from repro.core import DynMoConfig, DynMoController
from repro.dynamics import GradualPruningSchedule, PruningDynamism
from repro.model import ModelCost, build_layer_specs, gpt_24
from repro.training import Trainer, TrainingConfig


def main() -> None:
    cfg = gpt_24()
    specs = build_layer_specs(cfg)
    cost = ModelCost(specs)
    topo = h100_cluster(num_nodes=2, gpus_per_node=4)
    comm = CommCostModel(topo)

    iterations = 500
    schedule = GradualPruningSchedule(
        initial_sparsity=0.0,
        final_sparsity=0.9,
        start_iter=150,
        end_iter=350,
        prune_every=50,
    )
    scheme = PruningDynamism(specs, schedule=schedule, seed=0)

    job_manager = ElasticJobManager(total_gpus=8)
    controller = DynMoController(
        cost,
        comm,
        DynMoConfig(
            balancer="partition",
            weight_by="time",
            repack=True,  # consolidate once the model shrinks
            repack_target_workers=2,
            memory_capacity_bytes=float(topo.min_memory_bytes),
        ),
    )
    train_cfg = TrainingConfig(
        iterations=iterations, seq_len=cfg.seq_len, pp_stages=8, dp_ways=1,
        record_every=25,
    )
    trainer = Trainer(
        train_cfg, cost, scheme, comm=comm, controller=controller,
        job_manager=job_manager,
    )
    res = trainer.run()

    print(f"tokens/s            : {res.tokens_per_s:,.0f}")
    print(f"mean bubble ratio   : {res.mean_bubble_ratio:.1%}")
    print(f"final sparsity      : {scheme.current_sparsity:.0%}")
    print(f"final pipeline size : {res.final_plan.num_stages} stages")
    print(f"average GPUs used   : {res.average_gpus:.2f} / 8")
    print("GPU release events  :")
    for ev in job_manager.events:
        print(f"  iter {ev.iteration:>5}: released {ev.num_gpus} GPU(s)")
    print("stage count history :", [s for _, s in res.stage_count_history][::5])


if __name__ == "__main__":
    main()
