"""Expected simulated outputs of the benchmark workloads.

A run record is about 12 KB of JSON (convergence histories), and the
benchmark checks hundreds of them, so the committed files under
``expected/`` hold a digest of each record instead of the record:
SHA-256 over its canonical JSON without the wall-clock fields
``duration_s`` and ``cached``.  Ensemble percentile summaries are
digested the same way, with a few headline numbers kept readable.
Equal digests mean bit-identical simulated output.

``python3 perfbench/regen_expected.py`` rewrites the files; do that only
in a change that means to move simulated numbers, and say why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: record fields that change from run to run without the simulation changing
WALL_CLOCK_FIELDS = ("duration_s", "cached")
#: statuses that count as a failed run (``oom`` is an expected verdict)
FAILED_STATUSES = ("error", "timeout", "crashed")


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def record_output(record: dict[str, Any]) -> dict[str, Any]:
    """What the benchmark keeps of one ``RunRecord.to_dict()``."""
    simulated = {k: v for k, v in record.items() if k not in WALL_CLOCK_FIELDS}
    metrics = record.get("metrics") or {}
    return {
        "spec_hash": record["spec_hash"],
        "status": record["status"],
        "digest": digest(simulated),
        "iterations": int(metrics.get("iterations", 0)),
        "events": len(metrics.get("cluster_events_applied", ())),
    }


def ensemble_outputs(result: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Per-group summaries of one ``repro ensemble --json`` file.

    ``num_cached`` is left out: it tells cold from warm, not the result.
    """
    out = {}
    for group in result["groups"]:
        key = f"{group['label']}@{result['seed0']}"
        out[key] = {
            "digest": digest(
                {
                    "n": result["n"],
                    "seed0": result["seed0"],
                    "num_unique": result["num_unique"],
                    "group": group,
                }
            ),
            "tokens_per_s_p50": group["tokens_per_s_p50"],
            "iter_time_p99": group["iter_time_p99"],
        }
    return out


def load_expected(name: str) -> dict[str, Any]:
    path = EXPECTED_DIR / f"{name}.json"
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def write_expected(name: str, expected: dict[str, Any]) -> Path:
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{name}.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
