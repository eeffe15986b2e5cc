"""Per-iteration pricing reference for :meth:`Trainer.run`'s windows.

No command, ``repro.api`` call or sweep backend calls
:func:`run_trainers_lockstep`: every in-process run goes through
:meth:`Trainer.run`, which decides a window of iterations, prices its
cache misses in one batched call and folds them.  This loop instead
advances many Trainers one iteration at a time and hands that
iteration's cache misses across all of them to one
:func:`simulate_many` call (:mod:`repro.pipeline.batched`), right after
deciding it.  Tests and benchmarks compare windowed pricing against it
(``tests/test_trainer.py``, ``tests/test_ensemble.py``,
``tests/test_cluster_events.py``, ``benchmarks/bench_events.py``,
``benchmarks/bench_ensemble.py``).

It stays in ``src/`` only because the end-to-end benchmark's layer
tracer (``perfbench/layers.py``) wraps ``run_trainers_lockstep`` and
this module's ``simulate_many`` by name; the module moves to ``tests/``
with the benchmark change that re-points that tracer.

Each Trainer executes the same begin / decide (``_pre_iteration``) /
fold (``_post_iteration``) / finish hooks as :meth:`Trainer.run`,
against its own scheme, controller, cache and accounting, so every
``TrainingResult`` is bit-identical to a solo run.  Runs whose stage
count changes mid-flight (cluster events, re-packs, elastic shrinks)
move between :func:`simulate_many`'s compiled-key bins from one
iteration to the next.  A run whose own hooks raise keeps that
exception as its outcome without touching the other runs; an exception
from the shared :func:`simulate_many` call becomes the outcome of every
run that missed in that call — there is no scalar re-run.
"""

from __future__ import annotations

from typing import Sequence

from repro.pipeline.batched import simulate_many
from repro.training.trainer import Trainer, TrainingResult


def run_trainers_lockstep(
    entries: Sequence[tuple[Trainer, int | None]],
) -> list[TrainingResult | BaseException]:
    """Run ``(trainer, iterations)`` pairs in lockstep.

    Returns one outcome per entry, in order: a :class:`TrainingResult`,
    or the exception that run raised.
    """
    outcomes: list[TrainingResult | BaseException | None] = [None] * len(entries)
    states = []
    active: list[int] = []
    for i, (trainer, iterations) in enumerate(entries):
        try:
            states.append(trainer._begin_run(iterations))
            active.append(i)
        except Exception as exc:
            states.append(None)
            outcomes[i] = exc
    k = 0
    while active:
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
