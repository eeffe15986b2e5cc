"""Frozen simulated outputs: the golden grid must not move.

``tests/goldens/sweep.json`` holds one digest per run of the grid that
``scripts/regen_goldens.py`` defines.  Every backend — inline, batched,
a process pool and a sharded sweep — must reproduce every digest; a
change that means to move simulated numbers bumps ``SIM_VERSION`` and
regenerates the file.  Every inline record also passes the run-level
invariants below.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.experiments.common import parse_memory_limit
from repro.orchestrator.spec import SIM_VERSION

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
import regen_goldens  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    return regen_goldens.load_goldens()


@pytest.fixture(scope="module")
def inline_records():
    return regen_goldens.run_records("inline")


def test_goldens_pin_sim_version(goldens):
    assert goldens["sim_version"] == SIM_VERSION


def test_goldens_hold_ok_and_oom_cells(goldens):
    assert {e["status"] for e in goldens["runs"].values()} == {"ok", "oom"}


@pytest.mark.parametrize("backend", ["inline", "batched", "pool", "sharded"])
def test_goldens_match(backend, goldens, inline_records, tmp_path):
    if backend == "inline":
        records = inline_records
    elif backend == "sharded":
        records = regen_goldens.run_records_sharded(tmp_path)
    else:
        records = regen_goldens.run_records(backend)
    runs = regen_goldens.golden_entries(records)
    moved = {
        h: (goldens["runs"].get(h), runs.get(h))
        for h in sorted(set(goldens["runs"]) | set(runs))
        if goldens["runs"].get(h) != runs.get(h)
    }
    assert not moved, f"{len(moved)} golden run(s) moved: {moved}"


def test_golden_records_hold_run_invariants(inline_records):
    """Bubble ratios lie in [0, 1); an ``ok`` run under a numeric
    memory limit never held more than it; an ``oom`` row names a stage
    that does not fit."""
    assert inline_records
    for rec in inline_records:
        label = rec.spec.label
        if rec.status == "oom":
            reports = rec.metrics["stage_reports"]
            assert any(not r["fits"] for r in reports), label
            assert all(
                r["fits"] == (r["total_bytes"] <= r["capacity_bytes"])
                for r in reports
            ), label
            continue
        assert rec.status == "ok", label
        assert all(0.0 <= b < 1.0 for _, b in rec.metrics["bubble_history"]), label
        assert 0.0 <= rec.metrics["mean_bubble_ratio"] < 1.0, label
        _, limit = parse_memory_limit(rec.spec.memory_limit)
        if limit is not None:
            assert 0 < rec.metrics["peak_stage_bytes"] <= limit, label
