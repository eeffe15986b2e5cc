"""Cluster topology: GPUs, nodes, links, and paper-matching presets.

Paper testbed (section 5): nodes with 2× EPYC 9654 and 4× H100 SXM5
80GB; GPUs connected by NVSwitch (NVLink4 ×6 ≈ 900 GB/s), nodes by
4× 200 Gbps InfiniBand NDR200 (≈100 GB/s aggregate).  Re-packing
experiments use up to 8 GPUs per node.

Clusters may be *heterogeneous*: nodes can differ in GPU count and in
GPU model.  Global ranks are packed per node in node order, so rank →
node resolution uses cumulative per-node offsets, never a uniform
``gpus_per_node`` stride.  ``parse_cluster`` turns a compact spec
string like ``"2x8+2x4:a100"`` into such a topology for the CLI and
sweep orchestrator.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class GPUSpec:
    """Static device capabilities."""

    name: str = "H100-SXM5"
    memory_bytes: int = 80 * 1024**3
    peak_flops: float = 989e12  # bf16 dense w/ sparsity off
    efficiency: float = 0.45  # achieved fraction in LLM training

    @property
    def effective_flops(self) -> float:
        return self.peak_flops * self.efficiency


#: ``ModelCost`` defaults are calibrated against this device, so
#: relative worker speeds are expressed against it.
REFERENCE_GPU = GPUSpec()

#: Known device models for ``parse_cluster`` suffixes.
GPU_MODELS: dict[str, GPUSpec] = {
    "h100": GPUSpec(),  # H100-SXM5: 80 GB, 989e12 fp16 FLOPs
    "a100": GPUSpec("A100-SXM4", memory_bytes=40 * 1024**3, peak_flops=312e12),
    "a100-80g": GPUSpec(
        "A100-SXM4-80GB", memory_bytes=80 * 1024**3, peak_flops=312e12
    ),
    "v100": GPUSpec("V100-SXM2", memory_bytes=32 * 1024**3, peak_flops=125e12),
}


@dataclass(frozen=True)
class Link:
    """α–β link: time(bytes) = latency + bytes / bandwidth."""

    name: str
    latency_s: float
    bandwidth_Bps: float

    def time(self, nbytes: float) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.latency_s + nbytes / self.bandwidth_Bps


NVLINK4 = Link("nvlink4", latency_s=2e-6, bandwidth_Bps=900e9)
IB_NDR200x4 = Link("ib-ndr200x4", latency_s=5e-6, bandwidth_Bps=100e9)
PCIE_GEN5 = Link("pcie-gen5x16", latency_s=3e-6, bandwidth_Bps=63e9)


@dataclass
class Node:
    node_id: int
    gpus_per_node: int
    gpu: GPUSpec = field(default_factory=GPUSpec)
    intra_link: Link = NVLINK4


@dataclass
class ClusterTopology:
    """A multi-node GPU cluster (nodes may be heterogeneous)."""

    nodes: list[Node]
    inter_link: Link = IB_NDR200x4

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        # cumulative rank offsets: node i owns ranks
        # [_offsets[i], _offsets[i+1])
        offsets = [0]
        for n in self.nodes:
            check_positive("gpus_per_node", n.gpus_per_node)
            offsets.append(offsets[-1] + n.gpus_per_node)
        self._offsets = offsets

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def gpus_per_node(self) -> int:
        """Per-node GPU count; only defined for uniform clusters."""
        sizes = {n.gpus_per_node for n in self.nodes}
        if len(sizes) > 1:
            raise ValueError(
                "heterogeneous cluster has no single gpus_per_node; "
                "use node_ranks()/node_of() instead"
            )
        return self.nodes[0].gpus_per_node

    @property
    def num_gpus(self) -> int:
        return self._offsets[-1]

    @property
    def min_memory_bytes(self) -> int:
        """Smallest per-GPU memory anywhere in the cluster (the safe
        capacity bound for placement-agnostic feasibility checks)."""
        return min(n.gpu.memory_bytes for n in self.nodes)

    def node_of(self, rank: int) -> int:
        """Map a global GPU rank to its node (ranks packed per node)."""
        if not 0 <= rank < self.num_gpus:
            raise ValueError(f"rank {rank} out of range [0, {self.num_gpus})")
        return bisect.bisect_right(self._offsets, rank) - 1

    def node_ranks(self, node_id: int) -> range:
        """Global ranks hosted by one node."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node {node_id} out of range [0, {self.num_nodes})")
        return range(self._offsets[node_id], self._offsets[node_id + 1])

    def gpu_of(self, rank: int) -> GPUSpec:
        """The device spec behind a global rank."""
        return self.nodes[self.node_of(rank)].gpu

    def link_between(self, rank_a: int, rank_b: int) -> Link:
        """The link used by a P2P transfer between two GPU ranks."""
        if rank_a == rank_b:
            return Link("loopback", 0.0, float("inf"))
        if self.node_of(rank_a) == self.node_of(rank_b):
            return self.nodes[self.node_of(rank_a)].intra_link
        return self.inter_link


def h100_node(gpus: int = 4, node_id: int = 0) -> Node:
    check_positive("gpus", gpus)
    return Node(node_id=node_id, gpus_per_node=gpus)


def h100_cluster(num_nodes: int = 90, gpus_per_node: int = 4) -> ClusterTopology:
    """The paper's multi-node testbed (90 nodes × 4 H100 = 360; two
    pipelines of 720 GPUs use 30-way DP × 24-way PP across them)."""
    check_positive("num_nodes", num_nodes)
    return ClusterTopology(
        nodes=[h100_node(gpus_per_node, node_id=i) for i in range(num_nodes)]
    )


def hetero_cluster(
    node_sizes: list[int], gpus: list[GPUSpec] | None = None
) -> ClusterTopology:
    """A cluster with explicit per-node GPU counts (and optional specs)."""
    if not node_sizes:
        raise ValueError("cluster needs at least one node")
    if gpus is not None and len(gpus) != len(node_sizes):
        raise ValueError("one GPUSpec per node required")
    nodes = [
        Node(node_id=i, gpus_per_node=size, gpu=gpus[i] if gpus else GPUSpec())
        for i, size in enumerate(node_sizes)
    ]
    return ClusterTopology(nodes=nodes)


def parse_cluster(spec: str) -> ClusterTopology:
    """Build a topology from a compact spec string.

    Grammar: ``group(+group)*`` where a group is
    ``<nodes>x<gpus>[:<model>]`` — e.g. ``"4x4"`` (the scaled-down
    paper testbed), ``"2x8+2x4"`` (mixed node sizes), or
    ``"1x8:h100+2x4:a100"`` (mixed device models).
    """
    sizes: list[int] = []
    specs: list[GPUSpec] = []
    for group in spec.split("+"):
        group = group.strip()
        if not group:
            raise ValueError(
                f"empty group in cluster spec {spec!r}; "
                f"expected NxG[:model] between '+' separators"
            )
        body, _, model = group.partition(":")
        model = model.strip().lower() or "h100"
        if model not in GPU_MODELS:
            raise ValueError(
                f"unknown GPU model {model!r} in cluster group {group!r}; "
                f"choose from {sorted(GPU_MODELS)}"
            )
        count, sep, gpus = body.partition("x")
        if not sep:
            raise ValueError(f"bad cluster group {group!r}; expected NxG[:model]")
        try:
            n, g = int(count), int(gpus)
        except ValueError as exc:
            raise ValueError(f"bad cluster group {group!r}; expected NxG[:model]") from exc
        if n <= 0:
            raise ValueError(
                f"bad cluster group {group!r}: node count must be > 0, got {n}"
            )
        if g <= 0:
            raise ValueError(
                f"bad cluster group {group!r}: GPUs per node must be > 0, got {g}"
            )
        sizes.extend([g] * n)
        specs.extend([GPU_MODELS[model]] * n)
    return hetero_cluster(sizes, specs)
