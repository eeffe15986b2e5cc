"""Figure 3 (MoE panel): end-to-end throughput, Mixtral-like model.

Paper: DynMo 1.21–1.23x over static Megatron-LM/DeepSpeed and ~1.18x
over Tutel; bubble ratio drops from ~25% to ~8%.
"""

from __future__ import annotations

from repro.dynamics import MoEDynamism
from repro.experiments import ascii_table, run_figure3_scenario
from repro.experiments.common import ScenarioSetup, build_scenario, make_trainer
from repro.model.config import llama_moe_3p5b_like
from repro.model.cost import ModelCost, build_layer_specs


def _run():
    return run_figure3_scenario(
        "moe", num_layers=32, pp_stages=16, dp_ways=1, iterations=80
    )


def test_fig3_moe_mixtral_like(once):
    row = once(_run)
    print()
    print(ascii_table([row], title="Figure 3 — MoE, Mixtral-8x7B-like (tokens/sec)"))
    best_static = max(row["megatron"], row["deepspeed"])
    best_dynmo = max(row["dynmo-partition"], row["dynmo-diffusion"])
    assert best_dynmo > best_static, "DynMo must beat static balancing"
    assert best_dynmo > row["tutel"], "DynMo must beat Tutel"
    assert 1.05 < row["speedup"] < 1.6, f"speedup {row['speedup']} out of paper shape"


def _run_llama_moe():
    setup = build_scenario("moe", num_layers=32, pp_stages=16, dp_ways=1, iterations=80)
    # swap the architecture for the LLaMA-MoE-3.5B-like config
    cfg = llama_moe_3p5b_like()
    specs = build_layer_specs(cfg)
    setup = ScenarioSetup(
        name="moe",
        cfg=cfg,
        specs=specs,
        cost=ModelCost(specs),
        topology=setup.topology,
        comm=setup.comm,
        scheme_factory=lambda s=0: MoEDynamism(specs, seed=s),
        iterations=80,
        pp_stages=16,
        dp_ways=1,
        rebalance_every=1,
    )
    row = {"model": cfg.name}
    static = make_trainer(setup, mode="megatron").run()
    dynmo = make_trainer(setup, mode="dynmo-partition").run()
    row["megatron"] = static.tokens_per_s
    row["dynmo-partition"] = dynmo.tokens_per_s
    row["speedup"] = dynmo.tokens_per_s / static.tokens_per_s
    return row


def test_fig3_moe_llama_moe_like(once):
    """Paper: 1.23x on LLaMA-MoE-3.5B (16 experts, top-4)."""
    row = once(_run_llama_moe)
    print()
    print(ascii_table([row], title="Figure 3 — MoE, LLaMA-MoE-3.5B-like (tokens/sec)"))
    assert row["speedup"] > 1.05
