"""Frozen simulated outputs: the golden grid must not move.

``tests/goldens/sweep.json`` holds one digest per run of the grid that
``scripts/regen_goldens.py`` defines.  Every backend that runs specs in
this process must reproduce every digest; a change that means to move
simulated numbers bumps ``SIM_VERSION`` and regenerates the file.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.orchestrator.spec import SIM_VERSION

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
import regen_goldens  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    return regen_goldens.load_goldens()


def test_goldens_pin_sim_version(goldens):
    assert goldens["sim_version"] == SIM_VERSION


def test_goldens_hold_ok_and_oom_cells(goldens):
    assert {e["status"] for e in goldens["runs"].values()} == {"ok", "oom"}


@pytest.mark.parametrize("backend", ["inline", "batched"])
def test_goldens_match(backend, goldens):
    runs = regen_goldens.run_grid(backend)
    moved = {
        h: (goldens["runs"].get(h), runs.get(h))
        for h in sorted(set(goldens["runs"]) | set(runs))
        if goldens["runs"].get(h) != runs.get(h)
    }
    assert not moved, f"{len(moved)} golden run(s) moved: {moved}"
