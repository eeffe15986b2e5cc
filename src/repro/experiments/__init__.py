"""Experiment drivers regenerating the paper's figures and tables."""

from repro.experiments.common import (
    ScenarioSetup,
    build_scenario,
    make_trainer,
    SCENARIOS,
)
from repro.experiments.reporting import ascii_table
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure3 import run_figure3_scenario
from repro.experiments.figure4 import run_figure4_repacking, run_overhead_table
from repro.experiments.maxmodel import run_fig_maxmodel

__all__ = [
    "ScenarioSetup",
    "build_scenario",
    "make_trainer",
    "SCENARIOS",
    "ascii_table",
    "run_figure1",
    "run_figure3_scenario",
    "run_figure4_repacking",
    "run_overhead_table",
    "run_fig_maxmodel",
]
