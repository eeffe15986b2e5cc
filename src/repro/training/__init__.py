"""End-to-end (simulated) training loop gluing all subsystems together."""

from repro.training.config import TrainingConfig
from repro.training.trainer import Trainer, TrainingResult
from repro.training.lockstep import run_trainers_lockstep

__all__ = [
    "TrainingConfig",
    "Trainer",
    "TrainingResult",
    "run_trainers_lockstep",
]
