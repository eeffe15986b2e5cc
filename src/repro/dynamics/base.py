"""Dynamism scheme interface.

A scheme owns no state vector: the caller holds the run's ``(L, 6)``
float64 layer-state array (:func:`~repro.model.cost.fresh_states`) and
the scheme writes its columns in place each iteration.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.model.cost import LayerSpec, fresh_states


class DynamismScheme(ABC):
    """Writes per-layer state columns each iteration.

    ``rebalance_every`` is the paper-recommended DynMo invocation
    frequency for this scheme (Fig. 4 right table): 1 for MoE / sparse
    attention / MoD, hundreds-to-thousands for freezing / early exit /
    pruning.
    """

    name: str = "base"
    rebalance_every: int = 1

    def __init__(self, specs: list[LayerSpec]) -> None:
        if not specs:
            raise ValueError("specs must be non-empty")
        self.specs = specs
        self.block_indices = [i for i, sp in enumerate(specs) if sp.kind == "block"]
        #: bumped by :meth:`advance` whenever a step reports a change;
        #: consumers (the Trainer's memoiser) can skip re-hashing the
        #: state vector while the version is unchanged.
        self.version = 0

    def advance(self, k: int, states: np.ndarray) -> bool:
        """:meth:`step` plus version accounting (what callers that
        memoise on the state vector should invoke)."""
        changed = self.step(k, states)
        if changed:
            self.version += 1
        return changed

    def initial_states(self) -> np.ndarray:
        return fresh_states(len(self.specs))

    @abstractmethod
    def step(self, k: int, states: np.ndarray) -> bool:
        """Advance to iteration ``k``; write state columns in place.

        Returns True when the model or its control flow changed (i.e.
        DynMo should consider this a dynamism event).
        """

    def _check(self, states: np.ndarray) -> None:
        if len(states) != len(self.specs):
            raise ValueError("state/spec length mismatch")


class StaticScheme(DynamismScheme):
    """No dynamism — the control baseline (dense static model)."""

    name = "static"
    rebalance_every = 10**9

    def step(self, k: int, states: np.ndarray) -> bool:
        self._check(states)
        return False
