"""Shared experiment scaffolding: scenario construction and run helpers.

Experiments default to a *scaled-down* version of the paper's setup
(8-stage pipelines, a few hundred iterations, dynamism schedules
compressed proportionally) so the whole suite runs on one CPU in
minutes.  ``paper_scale=True`` switches to the full 24-way-pipeline /
10,000-iteration parameters for users with patience.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.baselines.egeria import EgeriaBaseline
from repro.baselines.tutel import TutelMoEBaseline
from repro.cluster.collectives import CommCostModel
from repro.cluster.events import ClusterEventTrace
from repro.cluster.job_manager import ElasticJobManager
from repro.cluster.topology import ClusterTopology, h100_cluster, parse_cluster
from repro.core.controller import DynMoConfig, DynMoController
from repro.dynamics.base import DynamismScheme, StaticScheme
from repro.dynamics.early_exit import EarlyExitDynamism
from repro.dynamics.freezing import FreezingDynamism
from repro.dynamics.mod import MoDDynamism
from repro.dynamics.moe import MoEDynamism
from repro.dynamics.pruning import GradualPruningSchedule, PruningDynamism
from repro.dynamics.sparse_attention import SparseAttentionDynamism
from repro.model.config import (
    GPTConfig,
    gpt_24,
    gpt_32,
    gpt_40,
    gpt_48,
    llama_moe_3p5b_like,
    mixtral_8x7b_like,
)
from repro.model.cost import ModelCost, build_layer_specs
from repro.model.memory import StageMemoryModel
from repro.pipeline.engine import IterationResult
from repro.pipeline.plan import PipelinePlan
from repro.training.config import TrainingConfig
from repro.training.trainer import Trainer
from repro.baselines.megatron import megatron_uniform_plan
from repro.baselines.deepspeed import deepspeed_plan

SCENARIOS = (
    "moe",
    "pruning",
    "freezing",
    "sparse_attention",
    "early_exit",
    "mod",
)

GPT_BY_LAYERS = {24: gpt_24, 32: gpt_32, 40: gpt_40, 48: gpt_48}

#: paper iterations between rebalances (Fig. 4 table), scaled with the
#: run length; the other scenarios rebalance every iteration
_CADENCE = {"pruning": 1000, "freezing": 300, "early_exit": 100}


def check_depth(name: str, num_layers: int) -> None:
    """Raise ``ValueError`` when scenario ``name`` has no model of
    ``num_layers`` blocks: MoE and sparse attention build any depth, the
    others run a :data:`GPT_BY_LAYERS` config."""
    if name not in ("moe", "sparse_attention") and num_layers not in GPT_BY_LAYERS:
        raise ValueError(
            f"scenario {name!r} has no {num_layers}-layer model; supported "
            f"depths are {sorted(GPT_BY_LAYERS)}"
        )


@dataclass
class ScenarioSetup:
    """Everything needed to run one scenario end to end."""

    name: str
    cfg: GPTConfig
    specs: list
    cost: ModelCost
    topology: ClusterTopology
    comm: CommCostModel
    scheme_factory: "callable"
    iterations: int
    pp_stages: int
    dp_ways: int
    rebalance_every: int


def effective_shape(
    name: str,
    pp_stages: int,
    dp_ways: int,
    iterations: int,
    paper_scale: bool = False,
) -> tuple[int, int, int]:
    """The (pipeline stages, data-parallel ways, iterations) scenario
    ``name`` actually runs when asked for the given shape.

    ``paper_scale`` picks the paper's own grids (section 5): MoE/MoD on
    128 GPUs as 8-way DP x 16-way PP, the others on 720 GPUs as 30-way
    DP x 24-way PP, 10,000 iterations each.  Otherwise MoE widens to at
    least 16 stages.
    """
    if paper_scale:
        if name in ("moe", "mod"):
            return 16, 8, 10_000
        return 24, 30, 10_000
    if name == "moe" and pp_stages < 16:
        # The paper runs MoEs on 16-way pipelines; this is also a
        # memory requirement here (Mixtral-like layers are ~20 GB of
        # state — an 80 GB GPU cannot hold a 5th block, so 8-stage
        # pipelines would be memory-locked with no freedom to
        # rebalance).  MoD keeps the caller's stage count: with
        # alternating full/routed blocks, a pipeline needs >= 2 full
        # blocks per stage before rebalancing has any freedom
        # (pigeonhole: 1 full block per stage locks the bottleneck).
        return 16, dp_ways, iterations
    return pp_stages, dp_ways, iterations


def build_scenario(
    name: str,
    num_layers: int = 24,
    pp_stages: int = 8,
    dp_ways: int = 2,
    iterations: int = 400,
    paper_scale: bool = False,
    seed: int = 0,
    cluster: str | None = None,
    precision: str = "mixed",
    recompute: bool = False,
) -> ScenarioSetup:
    """Construct a scenario with proportionally scaled dynamism.

    ``cluster`` overrides the auto-sized homogeneous testbed with a
    :func:`~repro.cluster.topology.parse_cluster` spec string (e.g.
    ``"2x8+2x4"`` for a mixed-node cluster).  ``precision`` and
    ``recompute`` set the model's memory-accounting regime; neither
    affects simulated time (recompute's extra backward FLOPs *do* —
    that is an explicit modelling choice carried by ``ModelCost``).
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    check_depth(name, num_layers)
    pp_stages, dp_ways, iterations = effective_shape(
        name, pp_stages, dp_ways, iterations, paper_scale
    )

    if name == "moe":
        cfg = mixtral_8x7b_like() if num_layers == 32 else GPTConfig(
            f"gpt-{num_layers}L-moe",
            num_layers=num_layers,
            moe_every=1,
            num_experts=8,
            moe_top_k=2,
        )
    elif name == "sparse_attention":
        # sparse-attention workloads are long-sequence (that is the
        # point of restricting the quadratic term); 8k tokens makes the
        # attention matrix the dominant cost, as in the paper's setup
        base = GPT_BY_LAYERS.get(num_layers, gpt_24)()
        cfg = GPTConfig(
            f"gpt-{num_layers}L-seq8k",
            num_layers=num_layers,
            hidden=base.hidden,
            num_heads=base.num_heads,
            seq_len=8192,
        )
    else:
        cfg = GPT_BY_LAYERS[num_layers]()

    specs = build_layer_specs(cfg)
    cost = ModelCost(
        specs,
        precision=precision,
        activation_recompute=recompute,
    )
    if cluster:
        topo = parse_cluster(cluster)
        if topo.num_gpus < pp_stages * dp_ways:
            raise ValueError(
                f"cluster {cluster!r} has {topo.num_gpus} GPUs; "
                f"{pp_stages}x{dp_ways} needs {pp_stages * dp_ways}"
            )
    else:
        nodes_needed = max(1, (pp_stages * dp_ways + 3) // 4)
        topo = h100_cluster(nodes_needed, 4)
    comm = CommCostModel(topo)

    # dynamism-schedule scaling: the paper's cadence assumes 10k iters
    scale = iterations / 10_000.0
    # the scheme's rebalance cadence, known without building a scheme
    cadence = _CADENCE.get(name)
    every = max(1, int(cadence * scale)) if cadence else 1

    def scheme_factory(s: int = seed) -> DynamismScheme:
        if name == "moe":
            return MoEDynamism(specs, router="aux_loss", seed=s)
        if name == "pruning":
            sched = GradualPruningSchedule(
                start_iter=max(1, int(3000 * scale)),
                end_iter=max(2, int(7000 * scale)),
                prune_every=every,
            )
            return PruningDynamism(specs, schedule=sched, seed=s)
        if name == "freezing":
            return FreezingDynamism(
                specs,
                freeze_every=every,
                tau0=max(1.0, 1000 * scale),
                seed=s,
            )
        if name == "sparse_attention":
            return SparseAttentionDynamism(specs, seed=s)
        if name == "early_exit":
            ee = EarlyExitDynamism(specs, ramp_iters=max(1, int(5000 * scale)), seed=s)
            ee.rebalance_every = every
            return ee
        if name == "mod":
            return MoDDynamism(specs, seed=s)
        raise AssertionError(name)

    return ScenarioSetup(
        name=name,
        cfg=cfg,
        specs=specs,
        cost=cost,
        topology=topo,
        comm=comm,
        scheme_factory=scheme_factory,
        iterations=iterations,
        pp_stages=pp_stages,
        dp_ways=dp_ways,
        rebalance_every=every,
    )


def parse_memory_limit(limit: "str | float | None") -> tuple[bool, float | None]:
    """Interpret the ``--memory-limit`` knob → (enforce, limit_bytes).

    ``None``/``""`` disables enforcement entirely (the bit-identical
    legacy path); ``"auto"`` enforces each placed rank's own device
    capacity with no extra cap; anything else is a byte count (``40e9``,
    ``"32212254720"``) applied per rank on top of device capacities.
    """
    if limit is None or limit == "":
        return False, None
    if isinstance(limit, str):
        if limit.strip().lower() == "auto":
            return True, None
        try:
            value = float(limit)
        except ValueError:
            raise ValueError(
                f"bad memory limit {limit!r}; expected 'auto' or a byte "
                f"count like '40e9'"
            ) from None
    else:
        value = float(limit)
    if value <= 0:
        raise ValueError(f"memory limit must be positive, got {value}")
    return True, value


#: the modes whose runs step the scenario's own scheme, so runs of one
#: scenario, shape and seed in any of them share one trajectory (the
#: sweep runner groups them)
SCENARIO_SCHEME_MODES = (
    "megatron",
    "deepspeed",
    "dynmo-partition",
    "dynmo-diffusion",
)


def make_scheme(setup: ScenarioSetup, mode: str) -> DynamismScheme:
    """The dynamism scheme a ``mode`` run of ``setup`` steps: the
    :data:`SCENARIO_SCHEME_MODES` step the scenario's scheme, Tutel and
    Egeria wrap it, and the dense baseline is the static control (the
    paper's dense-attention / no-exit model, so only sparse_attention
    and early_exit have one)."""
    if mode in SCENARIO_SCHEME_MODES:
        return setup.scheme_factory()
    if mode == "tutel":
        return TutelMoEBaseline(setup.scheme_factory())
    if mode == "egeria":
        return EgeriaBaseline(setup.scheme_factory())
    if mode == "dense-baseline":
        if setup.name not in ("sparse_attention", "early_exit"):
            raise ValueError(f"scenario {setup.name} has no dense baseline")
        return StaticScheme(setup.specs)
    raise ValueError(f"unknown mode {mode!r}")


def make_trainer(
    setup: ScenarioSetup,
    mode: str,
    weight_by: str = "time",
    repack: bool = False,
    repack_target: int = 1,
    repack_force: bool = False,
    schedule: str = "zb",
    iterations: int | None = None,
    initial_plan: PipelinePlan | None = None,
    scheme: DynamismScheme | None = None,
    job_manager: ElasticJobManager | None = None,
    balance_cost: str = "measured",
    placement: str | None = "packed",
    cluster_events: ClusterEventTrace | None = None,
    memory_limit: "str | float | None" = None,
    cache: OrderedDict[tuple, IterationResult] | None = None,
) -> Trainer:
    """Build the Trainer for one configuration without running it.

    The sweep runner builds each run's Trainer with this and calls its
    ``run()``; tests and benchmarks also hand unrun Trainers to the
    lockstep pricing reference, ``run_trainers_lockstep``.  ``cache``
    is the iteration cache the Trainer shares (see :class:`Trainer`).

    ``memory_limit`` (see :func:`parse_memory_limit`) turns on the
    per-stage memory model: placements are validated against placed-rank
    capacities, balancer/repack moves that would OOM a destination are
    rejected, and an infeasible placement raises
    :class:`~repro.cluster.memory.PlacementOOMError`.  Left unset,
    nothing about the legacy path changes.

    mode ∈ {"megatron", "deepspeed", "dynmo-partition", "dynmo-diffusion",
            "tutel", "egeria", "dense-baseline"}.
    """
    iters = iterations or setup.iterations
    cfg = TrainingConfig(
        iterations=iters,
        micro_batch=2,
        seq_len=setup.cfg.seq_len,
        pp_stages=setup.pp_stages,
        dp_ways=setup.dp_ways,
        schedule=schedule,
        record_every=max(1, iters // 50),
        placement_strategy=placement,
    )
    if scheme is None:
        scheme = make_scheme(setup, mode)

    if initial_plan is None:
        if mode == "deepspeed":
            initial_plan = deepspeed_plan(setup.specs, setup.pp_stages, "parameters")
        else:
            initial_plan = megatron_uniform_plan(setup.specs, setup.pp_stages)

    mem_enforced, limit_bytes = parse_memory_limit(memory_limit)
    memory_model = None
    if mem_enforced:
        memory_model = StageMemoryModel(
            setup.cost,
            schedule=schedule,
            num_micro=cfg.micro_batches,
            limit_bytes=limit_bytes,
        )

    controller = None
    if mode.startswith("dynmo"):
        balancer = "partition" if mode.endswith("partition") else "diffusion"
        if not mem_enforced:
            # legacy scalar MAX_MEM (cluster-wide minimum)
            capacity: float | None = float(setup.topology.min_memory_bytes)
        elif placement:
            # the controller derives per-stage capacities from each
            # placed rank's own device (clipped by the model's limit);
            # a scalar here would needlessly re-impose the cluster min
            capacity = None
        else:
            capacity = (
                limit_bytes
                if limit_bytes is not None
                else float(setup.topology.min_memory_bytes)
            )
        controller = DynMoController(
            setup.cost,
            setup.comm,
            DynMoConfig(
                balancer=balancer,
                weight_by=weight_by,
                balance_cost=balance_cost,
                repack=repack,
                repack_target_workers=repack_target,
                repack_force_target=repack_force,
                memory_capacity_bytes=capacity,
            ),
            memory_model=memory_model,
        )

    return Trainer(
        cfg,
        setup.cost,
        scheme,
        comm=setup.comm,
        controller=controller,
        initial_plan=initial_plan,
        job_manager=job_manager,
        cluster_events=cluster_events,
        memory_model=memory_model,
        cache=cache,
    )
