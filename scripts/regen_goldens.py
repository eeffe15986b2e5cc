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
  under both dynmo modes;
- the paper's baseline modes on the scenarios each runs
  (:data:`BASELINE_CELLS`: Tutel on moe, Egeria on freezing, the dense
  baseline on sparse_attention and early_exit, DeepSpeed on pruning and
  moe) over every schedule at 24 layers, 8 stages, 30 iterations;
- pruning and freezing under both dynmo modes at ``dp_ways=2`` on
  ``2x8+2x4:a100``, in all three placements, with the events trace,
  an elastic job of 16 GPUs and re-packing toward 2 stages, both
  compute-gated and forced (a shrinking data-parallel placement that
  the controller re-packs and the cluster events fail, regrow and
  slow).

Two smaller goldens sit beside it: ``tests/goldens/ensemble.json``
holds, for pruning x {megatron, dynmo-partition} x {zb, 1f1b}, moe
under tutel and freezing under egeria at 8 stages and 40 iterations,
each group's ``EnsembleStats`` digest over 8 sampled fault traces next
to its p50/p99 iteration time and final survivability;
``tests/goldens/maxmodel.json`` holds a small
``fig-maxmodel`` table under ``memory_limit="4e9"`` with both ``ok``
and ``oom`` cells; ``tests/goldens/gantt.json`` holds the stdout of
the ``repro gantt`` invocations in :data:`GANTT_ARGVS`, the only
command that prints one iteration's timeline.

Each run is stored as its status and the perfbench digest (SHA-256 of
the canonical record without ``duration_s`` and ``cached``), next to a
few readable numbers so a diff shows what moved.  The header pins
``SIM_VERSION``: regenerate only in a change that means to move
simulated numbers, and say why in its commit.

Usage::

    PYTHONPATH=src python scripts/regen_goldens.py

:func:`run_records` replays the grid on any ``ExecutionPolicy``
backend, and :func:`run_records_sharded` through
:func:`repro.api.shard_sweep`; :func:`ensemble_entries` and
:func:`maxmodel_table` do the same for the two smaller goldens, and
:func:`gantt_outputs` runs the gantt invocations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any

from repro.api import shard_sweep
from repro.cli import main as cli_main
from repro.cluster.events import ClusterEvent, ClusterEventTrace
from repro.experiments.maxmodel import run_fig_maxmodel
from repro.model.cost import PRECISIONS
from repro.orchestrator import (
    ExecutionPolicy,
    RunRecord,
    RunSpec,
    SweepRunner,
    run_ensemble,
)
from repro.orchestrator.spec import SIM_VERSION

GOLDENS_DIR = Path(__file__).resolve().parents[1] / "tests" / "goldens"
GOLDENS_PATH = GOLDENS_DIR / "sweep.json"
ENSEMBLE_PATH = GOLDENS_DIR / "ensemble.json"
MAXMODEL_PATH = GOLDENS_DIR / "maxmodel.json"
GANTT_PATH = GOLDENS_DIR / "gantt.json"
#: sampled fault traces per ensemble group
ENSEMBLE_DRAWS = 8

SCENARIOS = ("pruning", "freezing", "sparse_attention", "early_exit", "moe", "mod")
MODES = ("megatron", "dynmo-partition", "dynmo-diffusion")
SCHEDULES = ("gpipe", "1f1b", "zb")
PLACEMENTS = ("packed", "scattered", "dp-outer")
#: (scenario, mode) for each baseline the paper compares against, on
#: the scenarios it runs
BASELINE_CELLS = (
    ("moe", "tutel"),
    ("freezing", "egeria"),
    ("sparse_attention", "dense-baseline"),
    ("early_exit", "dense-baseline"),
    ("pruning", "deepspeed"),
    ("moe", "deepspeed"),
)

#: ``repro gantt`` argument lists: the four schedules of CI's smoke
#: step, then a small early-exit chart
GANTT_ARGVS = (
    ("gantt", "--schedule", "gpipe"),
    ("gantt", "--schedule", "1f1b"),
    ("gantt", "--schedule", "zb"),
    ("gantt", "--schedule", "zb", "--balanced"),
    ("gantt", "--scenario", "early_exit", "--stages", "4", "--micro", "4",
     "--width", "40"),
)

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
    specs += [
        RunSpec(
            scenario=scenario,
            mode=mode,
            num_layers=24,
            pp_stages=8,
            iterations=30,
            schedule=schedule,
        )
        for scenario, mode in BASELINE_CELLS
        for schedule in SCHEDULES
    ]
    specs += [
        RunSpec(
            scenario=scenario,
            mode=mode,
            pp_stages=8,
            dp_ways=2,
            iterations=50,
            placement=placement,
            cluster="2x8+2x4:a100",
            cluster_events=events,
            repack=True,
            repack_target=2,
            repack_force=force,
            elastic_total_gpus=16,
        )
        for scenario in ("pruning", "freezing")
        for mode in ("dynmo-partition", "dynmo-diffusion")
        for placement in PLACEMENTS
        for force in (False, True)
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


def ensemble_bases() -> list[RunSpec]:
    return [
        RunSpec(
            scenario="pruning",
            mode=mode,
            pp_stages=8,
            iterations=40,
            schedule=schedule,
        )
        for mode in ("megatron", "dynmo-partition")
        for schedule in ("zb", "1f1b")
    ] + [
        RunSpec(scenario=scenario, mode=mode, pp_stages=8, iterations=40)
        for scenario, mode in (("moe", "tutel"), ("freezing", "egeria"))
    ]


def ensemble_entries(backend: str) -> dict[str, dict[str, Any]]:
    """``group label -> entry`` for the ensemble grid on one backend:
    the digest of the group's whole ``EnsembleStats`` next to its p50
    and p99 iteration time and final survivability."""
    result = run_ensemble(ensemble_bases(), ENSEMBLE_DRAWS, ExecutionPolicy(backend))
    return {
        stats.label: {
            "digest": digest(stats.to_dict()),
            "iter_time_p50": stats.iter_time_p50,
            "iter_time_p99": stats.iter_time_p99,
            "survivability_final": stats.survivability[-1][1],
        }
        for stats in result.stats
    }


def maxmodel_table(backend: str) -> list[dict[str, Any]]:
    """A small ``fig-maxmodel`` table whose cells split into ``ok`` and
    ``oom`` (the 2-GPU cluster cannot hold 48 layers under 4 GB)."""
    with SweepRunner(policy=ExecutionPolicy(backend)) as runner:
        return run_fig_maxmodel(
            depths=(24, 48),
            clusters=("1x2", "1x8"),
            iterations=30,
            memory_limit="4e9",
            runner=runner,
        )


def gantt_outputs() -> dict[str, str]:
    """``command line -> stdout`` of each :data:`GANTT_ARGVS` run."""
    outputs = {}
    for argv in GANTT_ARGVS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(list(argv))
        if code != 0:
            raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
        outputs[" ".join(argv)] = out.getvalue()
    return outputs


def load_goldens(path: Path = GOLDENS_PATH) -> dict[str, Any]:
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: Path, key: str, value: Any) -> None:
    doc = {"sim_version": SIM_VERSION, key: value}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    GOLDENS_DIR.mkdir(parents=True, exist_ok=True)
    runs = golden_entries(run_records("inline"))
    _write(GOLDENS_PATH, "runs", runs)
    statuses = Counter(entry["status"] for entry in runs.values())
    print(f"wrote {GOLDENS_PATH} ({len(runs)} runs: {dict(statuses)})")
    groups = ensemble_entries("inline")
    _write(ENSEMBLE_PATH, "groups", groups)
    print(f"wrote {ENSEMBLE_PATH} ({len(groups)} groups x {ENSEMBLE_DRAWS} draws)")
    table = maxmodel_table("inline")
    _write(MAXMODEL_PATH, "rows", table)
    cells = Counter(cell["status"] for row in table for cell in row["cells"])
    print(f"wrote {MAXMODEL_PATH} ({len(table)} clusters: {dict(cells)})")
    charts = gantt_outputs()
    _write(GANTT_PATH, "outputs", charts)
    print(f"wrote {GANTT_PATH} ({len(charts)} charts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
