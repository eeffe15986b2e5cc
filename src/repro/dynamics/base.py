"""Dynamism scheme interface.

A scheme owns no state vector: the caller holds the run's ``(L, 6)``
float64 layer-state array (:func:`~repro.model.cost.fresh_states`) and
the scheme writes its columns in place each iteration.  A step reads
only the scheme's own trajectory, never the plan, the placement or the
cluster, so :class:`ReplayScheme` can record it once for many runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.model.cost import LayerSpec, fresh_states


class DynamismScheme(ABC):
    """Writes per-layer state columns each iteration.

    Every scheme a run steps is one: each scenario's own, the static
    control, the Tutel and Egeria baselines (which wrap a scenario's
    scheme) and :class:`ReplayScheme`.  ``rebalance_every`` is the
    paper-recommended DynMo invocation frequency for this scheme
    (Fig. 4 right table): 1 for MoE / sparse attention / MoD,
    hundreds-to-thousands for freezing / early exit / pruning.
    ``per_iteration_overhead_s`` is simulated time the scheme itself
    adds to every iteration (Egeria's CPU reference model).
    """

    name: str = "base"
    rebalance_every: int = 1
    per_iteration_overhead_s: float = 0.0

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
        DynMo should consider this a dynamism event).  A step that
        returns False writes nothing: the Trainer's fingerprint memo and
        :class:`ReplayScheme` both rest on that.
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


class ReplayScheme(DynamismScheme):
    """Replays the layer-state trajectory of a scheme stepped once.

    The runs of one of the sweep runner's trajectory groups
    (``docs/failure-semantics.md``) step the same states, so they share
    one recording: the constructor steps ``scheme``
    through ``iterations`` iterations and keeps the states after each
    step that reported a change.  :meth:`step` writes those states, and
    :meth:`advance` bumps ``version``, exactly where the recorded step
    reported a change.  Replaying never touches ``scheme`` again.
    """

    name = "replay"

    def __init__(self, scheme: DynamismScheme, iterations: int) -> None:
        super().__init__(scheme.specs)
        self.rebalance_every = scheme.rebalance_every
        self.per_iteration_overhead_s = scheme.per_iteration_overhead_s
        self.iterations = iterations
        states = scheme.initial_states()
        #: iteration -> the states its step left, for each changing step
        self._changes: dict[int, np.ndarray] = {}
        for k in range(iterations):
            if scheme.step(k, states):
                self._changes[k] = states.copy()

    def step(self, k: int, states: np.ndarray) -> bool:
        if not 0 <= k < self.iterations:
            raise ValueError(
                f"iteration {k} lies outside the {self.iterations} recorded"
            )
        recorded = self._changes.get(k)
        if recorded is None:
            return False
        states[:] = recorded
        return True
