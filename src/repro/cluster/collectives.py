"""α–β cost models for the communication primitives DynMo uses.

- P2P send/recv: activation passing between pipeline stages and layer
  migration.
- Ring all-reduce: data-parallel gradient exchange.

Times follow the standard LogP-style decomposition
``t = steps * latency + bytes_on_wire / bandwidth`` with the ring step
count of NCCL's algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ClusterTopology, Link


@dataclass
class CommCostModel:
    topology: ClusterTopology

    # -- point to point -------------------------------------------------
    def p2p_time(self, src_rank: int, dst_rank: int, nbytes: float) -> float:
        if src_rank == dst_rank:
            return 0.0
        return self.topology.link_between(src_rank, dst_rank).time(nbytes)

    # -- collectives -----------------------------------------------------
    def _group_link(self, ranks: list[int]) -> Link:
        """Bottleneck link within a group (inter-node if it spans nodes)."""
        if len(ranks) <= 1:
            return Link("loopback", 0.0, float("inf"))
        nodes = {self.topology.node_of(r) for r in ranks}
        if len(nodes) == 1:
            return self.topology.nodes[next(iter(nodes))].intra_link
        return self.topology.inter_link

    def allreduce_time(self, ranks: list[int], nbytes: float) -> float:
        """Ring all-reduce: 2(n-1)/n of the data crosses the slowest link."""
        n = len(ranks)
        if n <= 1 or nbytes <= 0:
            return 0.0
        link = self._group_link(ranks)
        steps = 2 * (n - 1)
        wire_bytes = 2.0 * (n - 1) / n * nbytes
        return steps * link.latency_s + wire_bytes / link.bandwidth_Bps
