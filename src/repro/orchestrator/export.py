"""Sweep result export: flat rows, JSON and CSV files.

Every exported row is reproducible-by-construction: it carries the
spec's content hash, the dynamism seed, and every spec field needed to
re-run the exact variant with ``repro sweep``.  JSON keeps the full
records (including convergence histories); CSV flattens to the scalar
metrics for spreadsheets and trend dashboards.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.orchestrator.results import RECORD_SCHEMA_VERSION, RunRecord

#: scalar metrics promoted into flat rows (histories stay JSON-only)
_ROW_METRICS = (
    "tokens_per_s",
    "mean_bubble_ratio",
    "overhead_fraction",
    "overhead_s",
    "layers_moved",
    "average_gpus",
    "final_num_stages",
    "total_time_s",
    "total_tokens",
    "effective_pp_stages",
    "effective_dp_ways",
    "rebalance_every",
    "placement_strategy",
)


def _format_ranks(ranks: Iterable[object]) -> str:
    return "-".join(str(r) for r in ranks)


def record_row(record: RunRecord) -> dict[str, Any]:
    """Flatten one record into a table/CSV row."""
    row: dict[str, Any] = {"spec_hash": record.spec_hash}
    row.update(record.spec.to_dict())
    row["status"] = record.status
    row["cached"] = record.cached
    row["duration_s"] = round(record.duration_s, 4)
    for key in _ROW_METRICS:
        if key in record.metrics:
            row[key] = record.metrics[key]
    # surviving GPU ranks as a compact string so CSV rows stay scalar
    if "final_stage_ranks" in record.metrics:
        row["surviving_ranks"] = _format_ranks(record.metrics["final_stage_ranks"])
    if record.metrics.get("cluster_events_applied"):
        row["events_applied"] = len(record.metrics["cluster_events_applied"])
    if record.error_type:
        row["error_type"] = record.error_type
    return row


def records_to_rows(records: Sequence[RunRecord]) -> list[dict[str, Any]]:
    return [record_row(r) for r in records]


def write_json(
    records: Sequence[RunRecord], path: str | os.PathLike[str]
) -> Path:
    """Full-fidelity export: specs, hashes, metrics, histories."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": RECORD_SCHEMA_VERSION,
        "count": len(records),
        "records": [r.to_dict() for r in records],
    }
    with out.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return out


def write_csv(
    records: Sequence[RunRecord], path: str | os.PathLike[str]
) -> Path:
    """Flat scalar export, one row per run."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = records_to_rows(records)
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with out.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return out
