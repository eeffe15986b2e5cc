"""Tier-1 golden outputs: one digest per run of a small sweep grid.

``tests/goldens/sweep.json`` freezes the simulated output of a grid
that covers what the perfbench workloads do not:

- every scenario x {megatron, dynmo-partition, dynmo-diffusion} x
  {gpipe, 1f1b, zb} at 24 layers, 8 stages, 30 iterations;
- pruning and freezing under dynmo-diffusion on the mixed
  ``2x8+2x4:a100`` cluster, in all three placements, with a failure +
  recovery + straggler event trace and forced re-packing;
- a ``memory_limit="4e9"`` block whose cells split into ``ok`` and
  ``oom``;
- pruning and freezing under dynmo-partition at 32 layers on ``1x8``
  with ``memory_limit="4e9"``, over every schedule, both precisions and
  recompute off/on (the byte path behind every ``oom`` verdict);
- pruning and freezing at ``dp_ways=2`` under megatron and
  dynmo-partition (the data-parallel gradient all-reduce);
- the events cell on ``2x8+2x4:a100`` with ``memory_limit="auto"``
  under both dynmo modes.

Each run is stored as its status and the perfbench digest (SHA-256 of
the canonical record without ``duration_s`` and ``cached``), next to a
few readable numbers so a diff shows what moved.  The header pins
``SIM_VERSION``: regenerate only in a change that means to move
simulated numbers, and say why in its commit.

Usage::

    PYTHONPATH=src python scripts/regen_goldens.py

:func:`run_records` replays the grid on any ``ExecutionPolicy``
backend, and :func:`run_records_sharded` through
:func:`repro.api.shard_sweep`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any

from repro.api import shard_sweep
from repro.cluster.events import ClusterEvent, ClusterEventTrace
from repro.model.cost import PRECISIONS
from repro.orchestrator import ExecutionPolicy, RunRecord, RunSpec, SweepRunner
from repro.orchestrator.spec import SIM_VERSION

GOLDENS_PATH = Path(__file__).resolve().parents[1] / "tests" / "goldens" / "sweep.json"

SCENARIOS = ("pruning", "freezing", "sparse_attention", "early_exit", "moe", "mod")
MODES = ("megatron", "dynmo-partition", "dynmo-diffusion")
SCHEDULES = ("gpipe", "1f1b", "zb")
PLACEMENTS = ("packed", "scattered", "dp-outer")

#: record fields that vary with how a run executed, not what it simulated
WALL_CLOCK_FIELDS = ("duration_s", "cached")


def events_trace() -> ClusterEventTrace:
    """The CI events trace: rank 2 fails at 10 and recovers at 30, rank
    4 straggles 1.5x for 8 iterations from 35."""
    return ClusterEventTrace(
        (
            ClusterEvent(10, "failure", (2,)),
            ClusterEvent(30, "recovery", (2,)),
            ClusterEvent(35, "straggler", (4,), duration=8, slowdown=1.5),
        )
    )


def golden_specs() -> list[RunSpec]:
    specs = [
        RunSpec(
            scenario=scenario,
            mode=mode,
            num_layers=24,
            pp_stages=8,
            iterations=30,
            schedule=schedule,
        )
        for scenario in SCENARIOS
        for mode in MODES
        for schedule in SCHEDULES
    ]
    events = events_trace().to_json()
    specs += [
        RunSpec(
            scenario=scenario,
            mode="dynmo-diffusion",
            iterations=50,
            placement=placement,
            cluster="2x8+2x4:a100",
            cluster_events=events,
            repack=True,
            repack_target=4,
            repack_force=True,
        )
        for scenario in ("pruning", "freezing")
        for placement in PLACEMENTS
    ]
    specs += [
        RunSpec(
            scenario="pruning",
            mode=mode,
            num_layers=32,
            pp_stages=stages,
            iterations=30,
            cluster=f"1x{stages}",
            memory_limit="4e9",
        )
        for mode in ("megatron", "dynmo-partition")
        for stages in (2, 8)
    ]
    specs += [
        RunSpec(
            scenario=scenario,
            mode="dynmo-partition",
            num_layers=32,
            pp_stages=8,
            iterations=30,
            schedule=schedule,
            cluster="1x8",
            memory_limit="4e9",
            precision=precision,
            recompute=recompute,
        )
        for scenario in ("pruning", "freezing")
        for schedule in SCHEDULES
        for precision in PRECISIONS
        for recompute in (False, True)
    ]
    specs += [
        RunSpec(
            scenario=scenario,
            mode=mode,
            num_layers=24,
            pp_stages=8,
            dp_ways=2,
            iterations=30,
        )
        for scenario in ("pruning", "freezing")
        for mode in ("megatron", "dynmo-partition")
    ]
    specs += [
        RunSpec(
            scenario="pruning",
            mode=mode,
            iterations=50,
            cluster="2x8+2x4:a100",
            cluster_events=events,
            repack=True,
            repack_target=4,
            repack_force=True,
            memory_limit="auto",
        )
        for mode in ("dynmo-partition", "dynmo-diffusion")
    ]
    return list(dict.fromkeys(specs))  # blocks may share a cell


def digest(record: dict[str, Any]) -> str:
    simulated = {k: v for k, v in record.items() if k not in WALL_CLOCK_FIELDS}
    text = json.dumps(simulated, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def golden_entry(record: RunRecord) -> dict[str, Any]:
    metrics = record.metrics or {}
    return {
        "label": "/".join(
            [record.spec.label, record.spec.schedule]
            + ([f"dp{record.spec.dp_ways}"] if record.spec.dp_ways > 1 else [])
        ),
        "status": record.status,
        "digest": digest(record.to_dict()),
        "total_time_s": metrics.get("total_time_s"),
        "mean_bubble_ratio": metrics.get("mean_bubble_ratio"),
    }


def run_records(backend: str) -> list[RunRecord]:
    """The whole grid's records on one ``ExecutionPolicy`` backend."""
    with SweepRunner(policy=ExecutionPolicy(backend)) as runner:
        return runner.run(golden_specs())


def run_records_sharded(shard_dir: Path) -> list[RunRecord]:
    """The grid through a distributed sweep over ``shard_dir`` (one
    worker, inline, shared result cache), merged back into records."""
    return shard_sweep(golden_specs(), shard_dir, ExecutionPolicy("inline")).records


def golden_entries(records: list[RunRecord]) -> dict[str, dict[str, Any]]:
    """``spec_hash -> entry``, the layout of the goldens file."""
    return {r.spec_hash: golden_entry(r) for r in records}


def load_goldens() -> dict[str, Any]:
    with GOLDENS_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    runs = golden_entries(run_records("inline"))
    GOLDENS_PATH.parent.mkdir(parents=True, exist_ok=True)
    doc = {"sim_version": SIM_VERSION, "runs": runs}
    GOLDENS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    statuses = Counter(entry["status"] for entry in runs.values())
    print(f"wrote {GOLDENS_PATH} ({len(runs)} runs: {dict(statuses)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
