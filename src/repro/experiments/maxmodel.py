"""fig-maxmodel: largest trainable model depth per cluster shape.

For each cluster spec the driver sweeps model depth under the
per-stage memory model (``memory_limit="auto"``: every placed rank's
own device capacity) and reports the deepest model that trains without
an OOM — optionally *under failures*: a mid-run failure of one stage's
ranks forces the survivors to absorb its layers, so the feasible depth
on a faulty cluster is smaller than on a healthy one.  This is the
capability the paper's elasticity story buys: the table quantifies how
much model a cluster shape can sustain when it cannot assume all GPUs
stay up.

Every cell is a :class:`~repro.orchestrator.RunSpec` executed through
the sweep orchestrator, so cells are cached, deterministic, and OOM
outcomes are first-class ``status="oom"`` records rather than crashes.
"""

from __future__ import annotations

from repro.cluster.events import ClusterEventTrace
from repro.cluster.topology import parse_cluster
from repro.experiments.common import GPT_BY_LAYERS
from repro.orchestrator import RunSpec, SweepRunner, run_specs

#: cluster shapes spanning the paper's small-to-testbed range plus one
#: heterogeneous mix (the 40 GB A100 nodes bound what fits there)
DEFAULT_CLUSTERS = ("1x2", "1x4", "1x8", "2x8+2x4:a100")


def check_maxmodel_depths(depths: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless every depth has a GPT config: the
    cells probe the :data:`GPT_BY_LAYERS` models whatever the scenario,
    so even MoE's 16 widened stages fit the shallowest one."""
    bad = sorted(set(depths) - set(GPT_BY_LAYERS))
    if bad:
        raise ValueError(
            f"no GPT config for depths {bad}; choose from "
            f"{sorted(GPT_BY_LAYERS)}"
        )


def cell_stages(num_gpus: int, depth: int) -> int:
    """Pipeline stages a cell asks for: one per GPU, at most one per
    layer, at most 8.  ``effective_shape`` still widens MoE to 16."""
    return min(num_gpus, depth, 8)


def run_fig_maxmodel(
    scenario: str = "pruning",
    depths: tuple[int, ...] = (24, 32, 40, 48),
    clusters: tuple[str, ...] = DEFAULT_CLUSTERS,
    iterations: int = 60,
    with_failure: bool = True,
    precision: str = "mixed",
    recompute: bool = False,
    memory_limit: str = "auto",
    schedule: str = "zb",
    balance_cost: str = "modeled",
    runner: SweepRunner | None = None,
) -> list[dict]:
    """One row per cluster: the max depth that fits, healthy and faulty.

    ``with_failure`` adds a failure/recovery window on the last
    pipeline stage's rank (the repack → regrow path); a depth counts as
    trainable under failures only if the shrunken pipeline still fits.
    """
    check_maxmodel_depths(depths)
    depths = tuple(sorted(depths))

    specs: list[RunSpec] = []
    cells: list[tuple[str, int, bool]] = []  # (cluster, depth, faulty)
    for cluster in clusters:
        num_gpus = parse_cluster(cluster).num_gpus
        for depth in depths:
            pp = cell_stages(num_gpus, depth)
            base = RunSpec(
                scenario=scenario,
                mode="dynmo-diffusion",
                num_layers=depth,
                pp_stages=pp,
                dp_ways=1,
                iterations=iterations,
                schedule=schedule,
                balance_cost=balance_cost,
                cluster=cluster,
                precision=precision,
                recompute=recompute,
                memory_limit=memory_limit,
            )
            specs.append(base)
            cells.append((cluster, depth, False))
            if with_failure and pp > 1:
                trace = ClusterEventTrace.single_failure_and_recovery(
                    fail_at=max(1, iterations // 3),
                    recover_at=max(2, (2 * iterations) // 3),
                    ranks=(pp - 1,),
                )
                specs.append(base.with_(cluster_events=trace.to_json()))
                cells.append((cluster, depth, True))

    records = run_specs(specs, runner)
    by_cell = {cell: rec for cell, rec in zip(cells, records)}

    rows: list[dict] = []
    for cluster in clusters:
        row: dict = {
            "cluster": cluster,
            "gpus": parse_cluster(cluster).num_gpus,
            "max_layers": 0,
            "max_layers_faulty": 0,
            "cells": [],
        }
        for depth in depths:
            for faulty in (False, True):
                rec = by_cell.get((cluster, depth, faulty))
                if rec is None:
                    continue
                cell = {
                    "layers": depth,
                    "faulty": faulty,
                    "status": rec.status,
                    "peak_gib": (
                        rec.metrics.get("peak_stage_bytes", 0.0) / 1024**3
                        if rec.status == "ok"
                        else max(
                            (
                                r["total_bytes"] / 1024**3
                                for r in rec.metrics.get("stage_reports", [])
                            ),
                            default=0.0,
                        )
                    ),
                }
                row["cells"].append(cell)
                if rec.status == "ok":
                    key = "max_layers_faulty" if faulty else "max_layers"
                    row[key] = max(row[key], depth)
        if not with_failure:
            row.pop("max_layers_faulty")
        rows.append(row)
    return rows
