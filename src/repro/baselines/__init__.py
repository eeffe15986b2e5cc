"""Baseline systems the paper compares against.

- Megatron-LM: static uniform transformer-layer split.
- DeepSpeed: static ``uniform`` / ``parameters`` / ``regex`` partitioning.
- Tutel: MoE-tailored adaptive expert parallelism (capacity tuning) —
  balances *within* the MoE FFN but not across pipeline stages.
- Egeria: layer freezing driver without any load rebalancing.
"""

from repro.baselines.megatron import megatron_uniform_plan
from repro.baselines.deepspeed import deepspeed_plan
from repro.baselines.tutel import TutelMoEBaseline
from repro.baselines.egeria import EgeriaBaseline

__all__ = [
    "megatron_uniform_plan",
    "deepspeed_plan",
    "TutelMoEBaseline",
    "EgeriaBaseline",
]
