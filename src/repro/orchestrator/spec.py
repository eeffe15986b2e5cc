"""Declarative description of one simulated training run.

A :class:`RunSpec` names everything that determines a run's outcome —
scenario, contender mode, model depth, parallelism shape, dynamism
seed, schedule, balancer knobs — as plain data.  Two properties make
the sweep machinery work:

* it is picklable, so a process pool can ship it to a worker;
* it has a stable content hash, so a disk cache can recognise a run
  it has already executed.

The hash covers every field plus two versions: bump
``SPEC_SCHEMA_VERSION`` whenever the *meaning* of a field changes, and
``SIM_VERSION`` whenever a change means to move a simulated number, so
stale cache entries are never served for new semantics or new numbers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from typing import Any

SPEC_SCHEMA_VERSION = 4  # v4: precision / recompute / memory_limit axes

#: Version of the simulated numbers, hashed in place of the package
#: version so a release that moves no number keeps caches and shard
#: plans valid.
SIM_VERSION = "1.2.0"

#: Every contender `make_trainer` understands.
MODES = (
    "megatron",
    "deepspeed",
    "dynmo-partition",
    "dynmo-diffusion",
    "tutel",
    "egeria",
    "dense-baseline",
)


@dataclass(frozen=True)
class RunSpec:
    """One (scenario x mode x shape x seed) variant of a training run."""

    scenario: str
    mode: str = "megatron"
    num_layers: int = 24
    pp_stages: int = 8
    dp_ways: int = 1
    iterations: int = 150
    seed: int = 0
    schedule: str = "zb"
    weight_by: str = "time"
    # "modeled" charges an analytic balance cost so orchestrated runs
    # are bit-identical across hosts/pools (cache-coherent); "measured"
    # restores real wall-clock overhead accounting
    balance_cost: str = "modeled"
    repack: bool = False
    repack_target: int = 1
    repack_force: bool = False
    # stage→rank placement strategy ("packed" | "scattered" | "dp-outer")
    placement: str = "packed"
    # cluster spec string for parse_cluster (e.g. "2x8+2x4"); "" uses
    # the auto-sized homogeneous testbed
    cluster: str = ""
    # run the static (no-dynamism) control on the scenario's architecture
    static_scheme: bool = False
    # canonical JSON of a ClusterEventTrace (failures/stragglers/
    # recoveries applied mid-run); "" runs on a static cluster.  The
    # trace *content* is part of the spec — and so of the content hash —
    # rather than a file path, so cached results stay sound when trace
    # files change on disk
    cluster_events: str = ""
    # when set, attach an ElasticJobManager with this many total GPUs
    elastic_total_gpus: int | None = None
    # memory-model knobs: training precision regime ("mixed" | "full";
    # memory accounting only — simulated time never depends on it),
    # activation recomputation, and the per-rank memory limit ("" = no
    # enforcement, the bit-identical legacy path; "auto" = each placed
    # rank's own device capacity; else a byte count like "40e9")
    precision: str = "mixed"
    recompute: bool = False
    memory_limit: str = ""
    paper_scale: bool = False
    tag: str = ""

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    def with_(self, **kwargs: Any) -> "RunSpec":
        return replace(self, **kwargs)

    @cached_property
    def spec_hash(self) -> str:
        """Stable 16-hex-char content hash of the spec.

        The payload folds in the schema version *and*
        :data:`SIM_VERSION`, so cached results are never served across
        changes that move simulated numbers — a bump invalidates the
        whole cache.  Computed once per instance: the dataclass is
        frozen, so the value cannot go stale.
        """
        payload = dict(
            self.to_dict(),
            _schema=SPEC_SCHEMA_VERSION,
            _code=SIM_VERSION,
        )
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()

    @property
    def label(self) -> str:
        bits = [self.scenario, self.mode, f"{self.num_layers}L", f"s{self.seed}"]
        if self.static_scheme:
            bits.append("static")
        if self.repack:
            bits.append(f"repack{self.repack_target}")
        if self.placement != "packed":
            bits.append(self.placement)
        if self.cluster:
            bits.append(self.cluster)
        if self.cluster_events:
            digest = hashlib.blake2b(
                self.cluster_events.encode(), digest_size=4
            ).hexdigest()
            bits.append(f"events-{digest}")
        if self.precision != "mixed":
            bits.append(self.precision)
        if self.recompute:
            bits.append("recompute")
        if self.memory_limit:
            bits.append(f"mem-{self.memory_limit}")
        if self.tag:
            bits.append(self.tag)
        return "/".join(bits)
