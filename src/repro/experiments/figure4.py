"""Figure 4: re-packing to fewer GPUs + the load-balancing overhead table.

Left/centre panels: for each model depth, pipeline-parallel training
starts on 8 GPUs; after dynamism shrinks the model, DynMo re-packs to
6/4/2 GPUs.  Reported: throughput (tokens/sec) and throughput-per-GPU
(the performance-per-dollar proxy), with OOM cells when the packed
model does not fit.  Bottom row: average GPU count over the whole run
when re-packing is triggered automatically.

Right panel: load-balancing overhead percentage (profiling +
balancing algorithm + migration) per scenario.

Both sweeps are expressed as RunSpecs and executed through the sweep
orchestrator; the memory-feasibility check stays in-process (it is a
cheap analytic pass, not a training run).
"""

from __future__ import annotations

from repro.cluster.memory import OutOfMemoryError
from repro.experiments.common import ScenarioSetup, build_scenario
from repro.orchestrator import RunSpec, SweepRunner, run_specs
from repro.pipeline.plan import PipelinePlan


def run_figure4_repacking(
    scenario: str = "pruning",
    num_layers: int = 24,
    iterations: int = 400,
    gpu_counts: tuple[int, ...] = (8, 6, 4, 2),
    memory_scale: float = 1.0,
    balance_cost: str = "modeled",
    runner: SweepRunner | None = None,
    placement: str = "packed",
    cluster: str = "",
) -> list[dict]:
    """Sweep forced re-pack targets; one row per GPU count.

    ``memory_scale`` shrinks the simulated GPU memory so that OOM
    behaviour manifests at small GPU counts like in the paper.
    """
    max_gpus = max(gpu_counts)
    setup = build_scenario(
        scenario, num_layers=num_layers, pp_stages=max_gpus,
        dp_ways=1, iterations=iterations, cluster=cluster or None,
    )
    capacity = setup.topology.min_memory_bytes * memory_scale

    base = RunSpec(
        scenario=scenario,
        mode="dynmo-diffusion",
        num_layers=num_layers,
        pp_stages=max_gpus,
        dp_ways=1,
        iterations=iterations,
        balance_cost=balance_cost,
        placement=placement,
        cluster=cluster,
    )
    specs = [
        base if target == max_gpus else base.with_(
            repack=True,
            repack_target=target,
            repack_force=True,
            elastic_total_gpus=max_gpus,
        )
        for target in gpu_counts
    ]
    records = run_specs(specs, runner)

    rows: list[dict] = []
    for target, record in zip(gpu_counts, records):
        row: dict = {"scenario": scenario, "layers": num_layers, "gpus": target}
        try:
            metrics = record.unwrap()
            avg_gpus = (
                float(target) if target == max_gpus else metrics["average_gpus"]
            )
            # feasibility: does the packed model fit `target` workers?
            _check_fits(setup, target, capacity)
            row["tokens_per_s"] = metrics["tokens_per_s"]
            row["tps_per_gpu"] = metrics["tokens_per_s"] / max(1.0, avg_gpus)
            row["avg_gpus"] = avg_gpus
            row["oom"] = False
        except OutOfMemoryError:
            row["tokens_per_s"] = 0.0
            row["tps_per_gpu"] = 0.0
            row["avg_gpus"] = float(target)
            row["oom"] = True
        rows.append(row)
    return rows


def _check_fits(setup: ScenarioSetup, workers: int, capacity: float) -> None:
    """Raise OutOfMemoryError when the model, at the scheme's terminal
    state, can't pack onto that few workers."""
    from repro.core.profiler import PipelineProfiler

    plan = PipelinePlan.uniform(len(setup.specs), workers)
    # the *final* (shrunken) model is what gets packed; approximate its
    # footprint with the scheme's terminal state
    scheme = setup.scheme_factory()
    states = scheme.initial_states()
    for k in range(setup.iterations):
        scheme.step(k, states)
    final = PipelineProfiler(setup.cost).profile(plan, states)
    if (final.worker_memory > capacity).any():
        raise OutOfMemoryError(
            f"{workers} workers: stage memory {final.worker_memory.max():.2e} "
            f"> capacity {capacity:.2e}"
        )


def run_overhead_table(
    scenarios: tuple[str, ...] = (
        "pruning",
        "freezing",
        "sparse_attention",
        "early_exit",
        "mod",
        "moe",
    ),
    num_layers: int = 24,
    iterations: int = 200,
    balance_cost: str = "modeled",
    runner: SweepRunner | None = None,
    placement: str = "packed",
    cluster: str = "",
) -> list[dict]:
    """Fig. 4 right: overhead %% and breakdown per scenario."""
    specs = [
        RunSpec(
            scenario=name,
            mode="dynmo-diffusion",
            num_layers=num_layers,
            pp_stages=8,
            dp_ways=1,
            iterations=iterations,
            balance_cost=balance_cost,
            placement=placement,
            cluster=cluster,
        )
        for name in scenarios
    ]
    records = run_specs(specs, runner)
    rows = []
    for name, record in zip(scenarios, records):
        metrics = record.unwrap()
        rows.append(
            {
                "scenario": name,
                "layers": num_layers,
                "overhead_pct": 100.0 * metrics["overhead_fraction"],
                "rebalance_every": metrics["rebalance_every"],
                "layers_moved": metrics["layers_moved"],
            }
        )
    return rows
