"""Lockstep execution of many Trainers with batched iteration simulation.

The batched sweep executor (``ExecutionPolicy(backend="batched")``,
a.k.a. ``repro sweep --jobs 0``) and the ensemble runner run all of a
sweep's pending RunSpecs in one process.  Each run is an independent
Trainer; instead of running them one after another, this driver
advances every run one iteration at a time and hands all of that
iteration's cache misses to one :func:`simulate_many` call
(:mod:`repro.pipeline.batched`), which bins them by the *current*
compiled key ``(schedule, S, M)`` and replays each bin vectorized.

Runs whose stage count changes mid-flight — cluster-event traces,
controller re-packs, elastic shrinks — simply move between bins from
one iteration to the next.  The boundary stitching (migration pricing,
regrow re-admission, straggler windows) happens in each Trainer's own
``_pre_iteration`` hook exactly as in a solo run.

Per-run semantics are untouched: each Trainer executes the exact same
begin / pre-iteration / post-iteration / finish hooks as
:meth:`Trainer.run`, against its own scheme, controller, cache and
accounting, so every ``TrainingResult`` is bit-identical to a solo run.
A run whose own hooks raise keeps that exception as its outcome
without touching the other runs; an exception from the shared
:func:`simulate_many` call becomes the outcome of every run that
missed in that call — there is no scalar re-run.  An expired deadline
converts all still-running runs to :class:`LockstepTimeout`; a set
``stop`` event leaves them without an outcome.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

from repro.pipeline.batched import simulate_many
from repro.training.trainer import Trainer, TrainingResult


class LockstepTimeout(Exception):
    """A lockstep call exceeded its wall-clock budget mid-run."""


def run_trainers_lockstep(
    entries: Sequence[tuple[Trainer, int | None]],
    deadline_s: float | None = None,
    stop: threading.Event | None = None,
) -> list[TrainingResult | BaseException | None]:
    """Run ``(trainer, iterations)`` pairs in lockstep.

    Returns one outcome per entry, in order: a :class:`TrainingResult`,
    or the exception that run raised, or :class:`LockstepTimeout` for
    runs still unfinished when ``deadline_s`` (seconds from call start)
    expires.  Once ``stop`` is set, the driver halts at the next
    iteration boundary and runs still unfinished get ``None``.
    """
    n = len(entries)
    outcomes: list[TrainingResult | BaseException | None] = [None] * n
    states = []
    active: list[int] = []
    for i, (trainer, iterations) in enumerate(entries):
        try:
            states.append(trainer._begin_run(iterations))
            active.append(i)
        except Exception as exc:
            states.append(None)
            outcomes[i] = exc
    t0 = time.monotonic()
    k = 0
    while active:
        expired = deadline_s is not None and time.monotonic() - t0 > deadline_s
        if expired or (stop is not None and stop.is_set()):
            for i in active:
                trainer, _ = entries[i]
                st = states[i]
                if k >= st.iters:
                    # this run completed every iteration and is only
                    # awaiting bookkeeping; finishing it is O(1) and its
                    # outcome must never be overwritten by the others'
                    # timeout or interruption
                    try:
                        outcomes[i] = trainer._finish_run(st)
                    except Exception as exc:
                        outcomes[i] = exc
                elif expired:
                    outcomes[i] = LockstepTimeout(
                        f"lockstep call exceeded {deadline_s:.0f}s budget "
                        f"at iteration {k}"
                    )
            break
        stepping: list[int] = []
        results: dict[int, object] = {}
        misses: list[tuple[int, tuple]] = []
        for i in active:
            trainer, _ = entries[i]
            st = states[i]
            if k >= st.iters:
                try:
                    outcomes[i] = trainer._finish_run(st)
                except Exception as exc:
                    outcomes[i] = exc
                continue
            try:
                trainer._pre_iteration(st, k)
                key = trainer._cache_key()
                res = trainer._cache_lookup(key)
            except Exception as exc:
                outcomes[i] = exc
                continue
            stepping.append(i)
            if res is None:
                misses.append((i, key))
            else:
                results[i] = res
        if misses:
            try:
                sims = simulate_many(
                    [
                        (entries[i][0].engine, entries[i][0].plan, entries[i][0].states)
                        for i, _ in misses
                    ]
                )
            except Exception as exc:
                for i, _ in misses:
                    outcomes[i] = exc
            else:
                for (i, key), res in zip(misses, sims):
                    entries[i][0]._cache_store(key, res)
                    results[i] = res
        still: list[int] = []
        for i in stepping:
            if outcomes[i] is not None:
                continue
            trainer, _ = entries[i]
            try:
                trainer._post_iteration(states[i], k, results[i])
                still.append(i)
            except Exception as exc:
                outcomes[i] = exc
        active = still
        k += 1
    return outcomes
