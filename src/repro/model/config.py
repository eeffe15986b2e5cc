"""GPT model configurations matching the paper's experimental setup.

Section 5: "All models use a sequence length of 2048, hidden size of
1024, and 32 attention heads", with 24/32/40/48-layer variants.  The
MoE experiments use Mixtral-8x7B and LLaMA-MoE-3.5B; we parameterise
*-like* configs with the public architecture numbers scaled onto the
same interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class GPTConfig:
    """Architecture hyper-parameters of a (possibly MoE) GPT."""

    name: str
    num_layers: int
    hidden: int = 1024
    num_heads: int = 32
    seq_len: int = 2048
    vocab_size: int = 50257
    mlp_expansion: int = 4
    # MoE settings: moe_every == 0 means dense FFNs everywhere.
    moe_every: int = 0
    num_experts: int = 0
    moe_top_k: int = 2
    dtype_bytes: int = 2  # bf16 training

    def __post_init__(self) -> None:
        if self.num_layers <= 0:
            raise ValueError("num_layers must be positive")
        if self.hidden % self.num_heads != 0:
            raise ValueError("hidden must be divisible by num_heads")
        if self.moe_every < 0:
            raise ValueError("moe_every must be >= 0")
        if self.moe_every > 0 and self.num_experts <= 1:
            raise ValueError("MoE model needs num_experts > 1")

    @property
    def is_moe(self) -> bool:
        return self.moe_every > 0

    def moe_layers(self) -> list[int]:
        """Indices of transformer blocks whose FFN is an MoE."""
        if not self.is_moe:
            return []
        return [i for i in range(self.num_layers) if (i + 1) % self.moe_every == 0]


def gpt_24() -> GPTConfig:
    return GPTConfig("gpt-24L", num_layers=24)


def gpt_32() -> GPTConfig:
    return GPTConfig("gpt-32L", num_layers=32)


def gpt_40() -> GPTConfig:
    return GPTConfig("gpt-40L", num_layers=40)


def gpt_48() -> GPTConfig:
    return GPTConfig("gpt-48L", num_layers=48)


def mixtral_8x7b_like() -> GPTConfig:
    """Mixtral 8x7B: 32 layers, 8 experts, top-2 routing, MoE every layer."""
    return GPTConfig(
        "mixtral-8x7b-like",
        num_layers=32,
        hidden=4096,
        num_heads=32,
        seq_len=2048,
        mlp_expansion=4,
        moe_every=1,
        num_experts=8,
        moe_top_k=2,
    )


def llama_moe_3p5b_like() -> GPTConfig:
    """LLaMA-MoE-3.5B: 32 layers, 16 experts, top-4 routing."""
    return GPTConfig(
        "llama-moe-3.5b-like",
        num_layers=32,
        hidden=2048,
        num_heads=32,
        seq_len=2048,
        mlp_expansion=3,
        moe_every=1,
        num_experts=16,
        moe_top_k=4,
    )


MODEL_ZOO: dict[str, GPTConfig] = {
    c.name: c
    for c in (gpt_24(), gpt_32(), gpt_40(), gpt_48(), mixtral_8x7b_like(), llama_moe_3p5b_like())
}


def tiny_config(num_layers: int = 4, moe: bool = False) -> GPTConfig:
    """Small config for unit tests."""
    return GPTConfig(
        f"tiny-{num_layers}L{'-moe' if moe else ''}",
        num_layers=num_layers,
        hidden=64,
        num_heads=4,
        seq_len=32,
        vocab_size=128,
        moe_every=1 if moe else 0,
        num_experts=4 if moe else 0,
        moe_top_k=2 if moe else 2,
    )
