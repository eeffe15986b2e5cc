"""Distributed-hardware substrate (simulated).

Replaces the paper's 720×H100 testbed with analytic models:

- :mod:`topology` — GPUs, nodes, intra-node (NVSwitch) and inter-node
  (InfiniBand NDR200) links, with the paper's exact machine presets;
- :mod:`collectives` — α–β cost models for P2P, gather/scatter,
  all-reduce, all-to-all;
- :mod:`memory` — per-GPU memory budget tracking (drives OOM cells in
  Fig. 4 and re-packing feasibility);
- :mod:`job_manager` — ECK-style elastic GPU request/release ledger;
- :mod:`events` — trace-driven cluster dynamism (failures, stragglers,
  preemptions, recoveries) with a JSON format and seedable generators.
"""

from repro.cluster.topology import (
    GPUSpec,
    Link,
    Node,
    ClusterTopology,
    h100_node,
    h100_cluster,
    hetero_cluster,
    parse_cluster,
)
from repro.cluster.collectives import CommCostModel
from repro.cluster.events import EVENT_KINDS, ClusterEvent, ClusterEventTrace
from repro.cluster.memory import OutOfMemoryError
from repro.cluster.placement import PLACEMENT_STRATEGIES, Placement, make_placement
from repro.cluster.job_manager import ElasticJobManager

__all__ = [
    "GPUSpec",
    "Link",
    "Node",
    "ClusterTopology",
    "h100_node",
    "h100_cluster",
    "hetero_cluster",
    "parse_cluster",
    "CommCostModel",
    "EVENT_KINDS",
    "ClusterEvent",
    "ClusterEventTrace",
    "OutOfMemoryError",
    "PLACEMENT_STRATEGIES",
    "Placement",
    "make_placement",
    "ElasticJobManager",
]
