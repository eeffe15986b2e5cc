"""Training-run configuration (paper section 5 defaults)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TrainingConfig:
    """Hybrid data+pipeline training setup.

    Paper defaults: micro-batch 2, batch 64, 10,000 iterations; in
    multi-node runs batch size scales to keep four micro-batches per
    GPU (Huang et al. guidance for pipeline utilisation).
    """

    iterations: int = 10_000
    micro_batch: int = 2
    seq_len: int = 2048
    pp_stages: int = 8
    dp_ways: int = 1
    num_micro: int | None = None  # None -> 4 * pp_stages
    schedule: str = "zb"
    record_every: int = 10
    # how stages x replicas map onto cluster ranks ("packed",
    # "scattered", "dp-outer"); None keeps the legacy identity mapping
    placement_strategy: str | None = "packed"

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.pp_stages <= 0:
            raise ValueError("pp_stages must be positive")
        if self.dp_ways <= 0:
            raise ValueError("dp_ways must be positive")
        if self.micro_batch <= 0:
            raise ValueError("micro_batch must be positive")
        if self.record_every <= 0:
            raise ValueError("record_every must be positive")
        if self.placement_strategy is not None:
            from repro.cluster.placement import PLACEMENT_STRATEGIES

            if self.placement_strategy not in PLACEMENT_STRATEGIES:
                raise ValueError(
                    f"unknown placement strategy {self.placement_strategy!r}; "
                    f"choose from {PLACEMENT_STRATEGIES}"
                )

    @property
    def micro_batches(self) -> int:
        return self.num_micro if self.num_micro is not None else 4 * self.pp_stages

    @property
    def total_gpus(self) -> int:
        return self.pp_stages * self.dp_ways
