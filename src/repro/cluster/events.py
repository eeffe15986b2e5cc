"""Trace-driven cluster dynamism: failures, stragglers, and recovery.

The paper's elasticity story (section 3.4) covers *shrink* — re-packing
onto fewer GPUs once dynamism lowers compute demand.  Real clusters
change under a job in both directions: nodes fail, the scheduler
preempts pods, a thermally-throttled GPU lags for a while, and capacity
*returns*.  This module gives those a first-class representation:

- :class:`ClusterEvent` — one timed change: a permanent rank
  ``failure``, a scheduler ``preemption`` (mechanically a failure, but
  distinguishable in traces and summaries), a transient ``straggler``
  window (per-rank slowdown factor with a duration), or a ``recovery``
  that returns departed ranks to the pool;
- :class:`ClusterEventTrace` — an iteration-sorted event sequence with
  a stable JSON file format and deterministic, seedable generators, so
  a failure scenario is data a sweep can hash, cache and replay.

The Trainer consumes a trace mid-run: failures/preemptions shrink the
placement (``Placement.after_repack``) and re-split the plan, pricing
the migration; recoveries re-admit the released rank groups
(``Placement.after_regrow``); stragglers install per-rank slowdown
factors on the :class:`~repro.pipeline.engine.PipelineEngine` so stage
compute and activation hand-offs slow down for the window's duration.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field

import numpy as np

#: Event kinds understood by the Trainer.
EVENT_KINDS = ("failure", "preemption", "straggler", "recovery")

#: Trace file format version (bump on incompatible changes).
TRACE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ClusterEvent:
    """One timed change to the cluster under a training run.

    ``iteration`` is when the event takes effect (before that
    iteration's pipeline flush).  ``ranks`` are global GPU ranks.
    ``duration`` and ``slowdown`` are only meaningful for stragglers:
    the affected ranks run ``slowdown``× slower (compute and their
    P2P hand-offs) for ``duration`` iterations.
    """

    iteration: int
    kind: str
    ranks: tuple[int, ...]
    duration: int = 0
    slowdown: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; choose from {EVENT_KINDS}"
            )
        if self.iteration < 0:
            raise ValueError(f"event iteration must be >= 0, got {self.iteration}")
        if not self.ranks:
            raise ValueError(f"{self.kind} event needs at least one rank")
        ranks = tuple(int(r) for r in self.ranks)
        if any(r < 0 for r in ranks):
            raise ValueError(f"event ranks must be >= 0, got {ranks}")
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"event names a rank twice: {ranks}")
        object.__setattr__(self, "ranks", ranks)
        if self.kind == "straggler":
            if self.duration <= 0:
                raise ValueError("straggler events need a positive duration")
            if self.slowdown < 1.0:
                raise ValueError(
                    f"straggler slowdown must be >= 1.0 (a factor applied to "
                    f"op times), got {self.slowdown}"
                )
        elif self.duration != 0:
            raise ValueError(f"{self.kind} events carry no duration")

    def to_dict(self) -> dict:
        d = {"iteration": self.iteration, "kind": self.kind, "ranks": list(self.ranks)}
        if self.kind == "straggler":
            d["duration"] = self.duration
            d["slowdown"] = self.slowdown
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ClusterEvent":
        if not isinstance(d, dict):
            raise ValueError(f"cluster event must be an object, got {d!r}")
        ranks = d.get("ranks")
        # a string would silently iterate character-wise; reject every
        # non-list shape with the same clean error
        if not isinstance(ranks, (list, tuple)):
            raise ValueError(
                f"cluster event 'ranks' must be a list of ints, got {ranks!r}"
            )
        try:
            fields = dict(
                iteration=int(d["iteration"]),
                kind=str(d["kind"]),
                ranks=tuple(int(r) for r in ranks),
                duration=int(d.get("duration", 0)),
                slowdown=float(d.get("slowdown", 1.0)),
            )
        except KeyError as exc:
            raise ValueError(f"cluster event missing field {exc.args[0]!r}: {d}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed cluster event {d!r}: {exc}") from None
        return cls(**fields)  # semantic validation raises its own ValueErrors


@dataclass(frozen=True)
class ClusterEventTrace:
    """An iteration-ordered sequence of cluster events.

    Construction sorts events by ``(iteration, kind, ranks)`` so a
    trace's canonical JSON — and therefore a RunSpec's content hash —
    is independent of authoring order.
    """

    events: tuple[ClusterEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.iteration, e.kind, e.ranks))
        )
        object.__setattr__(self, "events", ordered)
        object.__setattr__(self, "_iters", [e.iteration for e in ordered])

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def events_at(self, iteration: int) -> tuple[ClusterEvent, ...]:
        """Events taking effect exactly at ``iteration``."""
        lo = bisect.bisect_left(self._iters, iteration)
        hi = bisect.bisect_right(self._iters, iteration)
        return self.events[lo:hi]

    def max_rank(self) -> int:
        """Highest rank any event names (-1 for an empty trace)."""
        return max((max(e.ranks) for e in self.events), default=-1)

    def summary(self) -> dict[str, int]:
        """Event counts by kind (for logs and CLI output)."""
        out = dict.fromkeys(EVENT_KINDS, 0)
        for e in self.events:
            out[e.kind] += 1
        return out

    # -- JSON format ------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON (stable across dict ordering / authoring order)."""
        payload = {
            "version": TRACE_FORMAT_VERSION,
            "events": [e.to_dict() for e in self.events],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ClusterEventTrace":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"cluster event trace is not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or "events" not in payload:
            raise ValueError(
                "cluster event trace must be an object with an 'events' list"
            )
        version = payload.get("version", TRACE_FORMAT_VERSION)
        if version != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version!r} "
                f"(this build reads version {TRACE_FORMAT_VERSION})"
            )
        events = payload["events"]
        if not isinstance(events, list):
            raise ValueError(
                f"trace 'events' must be a list of event objects, got {events!r}"
            )
        return cls(tuple(ClusterEvent.from_dict(d) for d in events))

    def save(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "ClusterEventTrace":
        with open(path) as fh:
            return cls.from_json(fh.read())

    # -- generators -------------------------------------------------------
    @classmethod
    def generate(
        cls,
        iterations: int,
        num_ranks: int,
        seed: int = 0,
        failure_rate: float = 0.0,
        straggler_rate: float = 0.0,
        preemption_rate: float = 0.0,
        recover_after: int = 0,
        straggler_duration: int = 20,
        straggler_slowdown: float = 2.0,
    ) -> "ClusterEventTrace":
        """Draw a deterministic random trace.

        Rates are per-iteration Bernoulli probabilities of *one* event
        of that kind starting (affecting one uniformly drawn rank).
        ``recover_after > 0`` schedules a ``recovery`` that many
        iterations after each failure/preemption (capped to the last
        iteration), so capacity returns instead of only draining.
        Identical arguments always produce the identical trace.
        """
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        for name, rate in (
            ("failure_rate", failure_rate),
            ("straggler_rate", straggler_rate),
            ("preemption_rate", preemption_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if recover_after < 0:
            raise ValueError(f"recover_after must be >= 0, got {recover_after}")
        if straggler_duration < 1:
            raise ValueError(
                f"straggler_duration must be >= 1, got {straggler_duration}"
            )
        if not straggler_slowdown >= 1.0:
            raise ValueError(
                f"straggler_slowdown must be >= 1, got {straggler_slowdown}"
            )
        rng = np.random.default_rng(seed)
        events: list[ClusterEvent] = []
        departed: set[int] = set()
        recover_at: dict[int, int] = {}  # rank -> iteration it returns
        for k in range(iterations):
            # ranks only rejoin the draw pool strictly after their
            # scheduled recovery has fired — a dead rank must never be
            # drawn for another failure or a straggler window, and the
            # replay applies same-iteration failures *before* recoveries
            for rank, back in list(recover_at.items()):
                if k > back:
                    departed.discard(rank)
                    del recover_at[rank]
            present = [r for r in range(num_ranks) if r not in departed]
            if not present:
                break
            for kind, rate in (
                ("failure", failure_rate),
                ("preemption", preemption_rate),
            ):
                if rate > 0.0 and rng.random() < rate and len(present) > 1:
                    rank = int(present[rng.integers(len(present))])
                    events.append(ClusterEvent(k, kind, (rank,)))
                    departed.add(rank)
                    present.remove(rank)
                    if recover_after > 0:
                        back = min(k + recover_after, iterations - 1)
                        if back > k:
                            events.append(ClusterEvent(back, "recovery", (rank,)))
                            recover_at[rank] = back
            if straggler_rate > 0.0 and rng.random() < straggler_rate and present:
                rank = int(present[rng.integers(len(present))])
                events.append(
                    ClusterEvent(
                        k,
                        "straggler",
                        (rank,),
                        duration=min(straggler_duration, iterations - k),
                        slowdown=straggler_slowdown,
                    )
                )
        return cls(tuple(events))

    @classmethod
    def single_failure_and_recovery(
        cls,
        fail_at: int,
        recover_at: int,
        ranks: tuple[int, ...],
        straggle: tuple[int, ...] = (),
        straggle_at: int | None = None,
        straggle_for: int = 10,
        slowdown: float = 1.5,
    ) -> "ClusterEventTrace":
        """The canonical hand-written scenario: one failure window (and
        optionally one straggler window) on explicit ranks."""
        if recover_at <= fail_at:
            raise ValueError("recover_at must come after fail_at")
        events = [
            ClusterEvent(fail_at, "failure", tuple(ranks)),
            ClusterEvent(recover_at, "recovery", tuple(ranks)),
        ]
        if straggle:
            at = straggle_at if straggle_at is not None else recover_at + 1
            events.append(
                ClusterEvent(
                    at,
                    "straggler",
                    tuple(straggle),
                    duration=straggle_for,
                    slowdown=slowdown,
                )
            )
        return cls(tuple(events))
