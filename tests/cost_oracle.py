"""Scalar per-layer cost formulas: the bit-identity oracle.

``ModelCost`` prices time only through its array path
(:meth:`~repro.model.cost.ModelCost.layer_times` and
:meth:`~repro.model.cost.ModelCost.stage_times`) and bytes only through
:meth:`~repro.model.cost.ModelCost.layer_bytes`.  This module keeps the
scalar formulas those paths replaced — one layer and one state at a
time, in plain Python numbers — and the per-stage accumulation loop the
engine used to run, so tests can require the array paths to equal them
bit for bit.  Tests of cost *semantics* call the production array paths
instead.
"""

from __future__ import annotations

import numpy as np

from repro.model.cost import LayerSpec, LayerState, ModelCost
from repro.pipeline.engine import IterationResult, PipelineEngine
from repro.pipeline.plan import PipelinePlan
from repro.sparse.kernels import (
    cusparse_cost_model,
    dense_cost_model,
    sputnik_cost_model,
)

import engine_oracle


def best_kernel_time(dense_flops: float, sparsity: float, peak_flops: float = 989e12) -> float:
    """Time of the best kernel choice at this sparsity (what a tuned
    runtime — or the paper's Sputnik bindings — would achieve)."""
    candidates = [
        dense_cost_model(peak_flops).time(dense_flops, 0.0),
        sputnik_cost_model(peak_flops).time(dense_flops, sparsity),
        cusparse_cost_model(peak_flops).time(dense_flops, sparsity),
    ]
    return min(candidates)


def _validate(state: LayerState) -> None:
    """The range checks ``ModelCost`` applies to every priced state."""
    for name in ("sparsity", "attn_density", "token_fraction"):
        value = getattr(state, name)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    if not state.moe_multiplier >= 0:  # NaN fails too
        raise ValueError(f"moe_multiplier must be >= 0, got {state.moe_multiplier}")


def matmul_time(cost: ModelCost, flops: float, sparsity: float) -> float:
    """Weight-matmul time with the sparse-kernel crossover applied."""
    if flops <= 0:
        return 0.0
    if sparsity <= 0.0:
        return flops / (cost.peak_flops * cost.efficiency)
    return best_kernel_time(flops, sparsity, cost.peak_flops * cost.efficiency / 0.62)


def forward_time(cost: ModelCost, spec: LayerSpec, state: LayerState) -> float:
    _validate(state)
    ffn = spec.ffn_flops * state.moe_multiplier
    dense_part = spec.matmul_flops - spec.ffn_flops
    t = matmul_time(cost, dense_part, state.sparsity)
    t += matmul_time(cost, ffn, state.sparsity)
    t += (spec.attn_quad_flops * state.attn_density) / (cost.peak_flops * cost.efficiency)
    return t * state.token_fraction


def backward_time(cost: ModelCost, spec: LayerSpec, state: LayerState) -> float:
    """dX + dW (unless frozen) + 2x attention quadratic."""
    _validate(state)
    if state.droppable_bwd:
        return 0.0
    fwd_matmul = matmul_time(
        cost, spec.matmul_flops - spec.ffn_flops, state.sparsity
    ) + matmul_time(cost, spec.ffn_flops * state.moe_multiplier, state.sparsity)
    dx = fwd_matmul
    dw = 0.0 if state.frozen else fwd_matmul
    quad = 2.0 * (spec.attn_quad_flops * state.attn_density) / (cost.peak_flops * cost.efficiency)
    total = (dx + dw + quad) * state.token_fraction
    if cost.activation_recompute:
        total += forward_time(cost, spec, state)  # recompute pass
    return total


def backward_input_time(cost: ModelCost, spec: LayerSpec, state: LayerState) -> float:
    """Only the activation-gradient half of backward (zero-bubble 'B' op)."""
    full = backward_time(cost, spec, state)
    if full == 0.0:
        return 0.0
    dw = weight_grad_time(cost, spec, state)
    return full - dw


def weight_grad_time(cost: ModelCost, spec: LayerSpec, state: LayerState) -> float:
    """The dW half of backward (zero-bubble 'W' op)."""
    if state.droppable_bwd or state.frozen:
        return 0.0
    fwd_matmul = matmul_time(
        cost, spec.matmul_flops - spec.ffn_flops, state.sparsity
    ) + matmul_time(cost, spec.ffn_flops * state.moe_multiplier, state.sparsity)
    return fwd_matmul * state.token_fraction


# -- bytes -------------------------------------------------------------------
#: bf16 working weights, fp32 master copy, Adam's two states per param
DTYPE_BYTES = 2
MASTER_BYTES = 4
OPT_STATES = 2


def param_bytes(cost: ModelCost, spec: LayerSpec, state: LayerState) -> int:
    """Weights (+ master copy) with CSR overhead when pruned."""
    active = spec.param_count * (1.0 - state.sparsity)
    if state.sparsity > 0:
        # CSR: values + column index per nnz (4B index)
        weight = active * (DTYPE_BYTES + 4)
    else:
        weight = spec.param_count * DTYPE_BYTES
    master = active * MASTER_BYTES
    return int(weight + master)


def grad_bytes(cost: ModelCost, spec: LayerSpec, state: LayerState) -> int:
    if state.frozen:
        return 0
    active = spec.param_count * (1.0 - state.sparsity)
    return int(active * MASTER_BYTES)


def optimizer_bytes(cost: ModelCost, spec: LayerSpec, state: LayerState) -> int:
    if state.frozen:
        return 0
    active = spec.param_count * (1.0 - state.sparsity)
    return int(active * MASTER_BYTES * OPT_STATES)


def activation_bytes(
    cost: ModelCost, spec: LayerSpec, state: LayerState, in_flight: int
) -> int:
    if cost.activation_recompute:
        in_flight = 1  # only the boundary activation is retained
    return int(spec.activation_bytes * state.token_fraction * max(1, in_flight))


def layer_memory(
    cost: ModelCost, spec: LayerSpec, state: LayerState, in_flight: int = 1
) -> int:
    """Mixed-precision resident bytes of one layer."""
    return (
        param_bytes(cost, spec, state)
        + grad_bytes(cost, spec, state)
        + optimizer_bytes(cost, spec, state)
        + activation_bytes(cost, spec, state, in_flight)
    )


def layer_components(
    cost: ModelCost, spec: LayerSpec, state: LayerState, in_flight: int, precision: str
) -> tuple[int, int, int, int, int]:
    """(weight, master, grad, optimizer, activation) bytes for one layer;
    "mixed" splits :func:`param_bytes` into weights and master copy."""
    active = spec.param_count * (1.0 - state.sparsity)
    if precision == "mixed":
        weight_and_master = param_bytes(cost, spec, state)
        master = int(active * MASTER_BYTES)
        weight = weight_and_master - master
        grad = grad_bytes(cost, spec, state)
        opt = optimizer_bytes(cost, spec, state)
        act_scale = 1.0
    else:  # full: fp32 weights, no master copy, fp32 activations
        if state.sparsity > 0:
            weight = int(active * (4 + 4))  # CSR: fp32 values + 4B index
        else:
            weight = int(spec.param_count * 4)
        master = 0
        grad = 0 if state.frozen else int(active * 4)
        opt = 0 if state.frozen else int(active * 4 * OPT_STATES)
        act_scale = 4.0 / float(DTYPE_BYTES)
    if cost.activation_recompute:
        in_flight = 1
    act = int(
        spec.activation_bytes * state.token_fraction * max(1, in_flight) * act_scale
    )
    return weight, master, grad, opt, act


def migration_bytes(cost: ModelCost, layer: int, state: LayerState) -> int:
    """Bytes shipped when migrating one layer (weights+grad+opt state)."""
    spec = cost.specs[layer]
    return (
        param_bytes(cost, spec, state)
        + grad_bytes(cost, spec, state)
        + optimizer_bytes(cost, spec, state)
    )


def dp_grad_bytes(cost: ModelCost, plan: PipelinePlan, states: list[LayerState]) -> np.ndarray:
    """Per-stage gradient bytes exchanged across the DP group."""
    out = np.zeros(plan.num_stages)
    for s in range(plan.num_stages):
        for li in plan.stage_layers(s):
            out[s] += grad_bytes(cost, cost.specs[li], states[li])
    return out


# -- accumulation loops --------------------------------------------------------
def total_forward_time(cost: ModelCost, states: list[LayerState]) -> float:
    return sum(forward_time(cost, sp, st) for sp, st in zip(cost.specs, states))


def total_backward_time(cost: ModelCost, states: list[LayerState]) -> float:
    return sum(backward_time(cost, sp, st) for sp, st in zip(cost.specs, states))


def layer_times(
    cost: ModelCost, states: list[LayerState], split: bool
) -> tuple[list[float], list[float], list[float]]:
    """Per-layer (fwd, bwd_or_B, W) lists; W is zeros unless ``split``."""
    fwd = [forward_time(cost, sp, st) for sp, st in zip(cost.specs, states)]
    if split:
        bwd = [backward_input_time(cost, sp, st) for sp, st in zip(cost.specs, states)]
        wgt = [weight_grad_time(cost, sp, st) for sp, st in zip(cost.specs, states)]
    else:
        bwd = [backward_time(cost, sp, st) for sp, st in zip(cost.specs, states)]
        wgt = [0.0] * len(states)
    return fwd, bwd, wgt


def base_stage_times(
    cost: ModelCost, plan: PipelinePlan, states: list[LayerState], split: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-stage times before any speed scaling (the per-layer loop)."""
    specs = cost.specs
    if len(states) != len(specs):
        raise ValueError("state/spec length mismatch")
    S = plan.num_stages
    fwd = np.zeros(S)
    bwd = np.zeros(S)
    wgt = np.zeros(S)
    act_bytes = np.zeros(S)
    for s in range(S):
        for li in plan.stage_layers(s):
            sp, st = specs[li], states[li]
            fwd[s] += forward_time(cost, sp, st)
            if split:
                bwd[s] += backward_input_time(cost, sp, st)
                wgt[s] += weight_grad_time(cost, sp, st)
            else:
                bwd[s] += backward_time(cost, sp, st)
        last = plan.boundaries[s + 1] - 1
        act_bytes[s] = specs[last].activation_bytes * states[last].token_fraction
    return fwd, bwd, wgt, act_bytes


def stage_times(
    engine: PipelineEngine, plan: PipelinePlan, states: list[LayerState]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The loop's tables divided by the engine's effective speeds."""
    fwd, bwd, wgt, act_bytes = base_stage_times(
        engine.cost, plan, states, engine.schedule.name == "zb"
    )
    speeds = engine._effective_speeds(fwd.shape[0])
    if speeds is not None:
        fwd, bwd, wgt = fwd / speeds, bwd / speeds, wgt / speeds
    return fwd, bwd, wgt, act_bytes


def run_iteration(
    engine: PipelineEngine, plan: PipelinePlan, states: list[LayerState]
) -> IterationResult:
    """The reference ready-loop fed by the oracle's stage tables."""
    return engine_oracle.run_iteration(
        engine, plan, states, stage_times(engine, plan, states)
    )
