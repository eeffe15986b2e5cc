"""Model configurations and the analytic per-layer cost model.

The discrete-event pipeline simulator does not execute full-size GPT
layers; it consumes :class:`LayerSpec` (static FLOP/byte/parameter
accounting derived from the architecture) combined with
:class:`LayerState` (the time-varying multipliers produced by a
dynamism scheme) to obtain per-layer forward/backward times on a given
GPU.  This mirrors how the paper's balancers consume *measured* layer
times; here the measurement is the cost model's output, optionally
perturbed with noise to emulate real profiling jitter.
"""

from repro.model.config import (
    GPTConfig,
    gpt_24,
    gpt_32,
    gpt_40,
    gpt_48,
    mixtral_8x7b_like,
    llama_moe_3p5b_like,
    MODEL_ZOO,
)
from repro.model.cost import (
    LayerSpec,
    LayerState,
    ModelCost,
    build_layer_specs,
    state_matrix,
)

__all__ = [
    "GPTConfig",
    "gpt_24",
    "gpt_32",
    "gpt_40",
    "gpt_48",
    "mixtral_8x7b_like",
    "llama_moe_3p5b_like",
    "MODEL_ZOO",
    "LayerSpec",
    "LayerState",
    "ModelCost",
    "build_layer_specs",
    "state_matrix",
]
