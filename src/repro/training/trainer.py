"""The end-to-end training loop (simulated time).

Per iteration:

1. the dynamism scheme advances (maybe mutating layer states);
2. if due, DynMo profiles, rebalances, re-packs and migrates
   (overhead added to the iteration's wall time);
3. the pipeline engine computes the iteration's makespan, busy/idle
   times and bubble ratio under the current plan;
4. throughput and elasticity accounting update.

No decision in steps 1-2 reads a simulated iteration (the controller's
profiling overhead, a share of the previous makespan, is added later),
so :func:`run_group` *decides* a window of iterations for each of its
Trainers with no engine call, *prices* the distinct uncached states of
all of them in one batched call, then *folds* each run's terms and
makespans in iteration order: bit-identical to pricing each iteration
as it is decided.  :meth:`Trainer.run` is its one-Trainer case.
Results are memoised on (plan, placement, straggler state, state
fingerprint), so schemes that change every few hundred iterations
re-simulate only when they change.

A Trainer is the one owner of its run's plan, stage→rank placement and
straggler slowdowns: it hands the controller the plan and placement on
each call and builds a new engine whenever the placement or slowdowns
change, so no engine changes after a pricing call has seen it.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cluster.collectives import CommCostModel
from repro.cluster.events import ClusterEventTrace
from repro.cluster.job_manager import ElasticJobManager
from repro.cluster.memory import PlacementOOMError
from repro.cluster.placement import Placement, make_placement, validate_memory
from repro.core.controller import MIGRATION_OVERLAP, DynMoController, DynMoDecision
from repro.dynamics.base import DynamismScheme
from repro.model.cost import ModelCost
from repro.model.memory import StageMemoryModel
from repro.pipeline.engine import IterationResult, PipelineEngine
from repro.pipeline.migration import diff_plans
from repro.pipeline.plan import PipelinePlan
from repro.training.config import TrainingConfig

#: the job name a run books its GPUs under in an ElasticJobManager
_JOB_NAME = "train"
#: iterations run_group decides per run before one pricing call (the
#: iteration cache's size too)
WINDOW = 512


class RunDeadlineExceeded(RuntimeError):
    """A training run blew its wall-clock budget (monotonic check).

    Raised by :func:`run_group` between iterations when a budget is
    set; the sweep runner maps it to a ``status="timeout"`` record
    exactly like the ``SIGALRM`` path.
    """


class RunInterrupted(RuntimeError):
    """A training run stopped because its ``stop`` event was set.

    Raised by :func:`run_group` at the same points as
    :class:`RunDeadlineExceeded`; the sweep runner lands no record for
    any run of the call, so a journal resume re-runs them.
    """


def states_fingerprint(states: np.ndarray) -> bytes:
    """Stable hash of the ``(L, 6)`` layer-state array (for
    memoisation): its bytes, the layout the cost model prices."""
    return hashlib.blake2b(states.tobytes(), digest_size=16).digest()


@dataclass
class _RunState:
    """Mutable accounting for one in-flight training run.

    Shared between :func:`run_group` and the lockstep driver so both
    execute the identical per-iteration bookkeeping.
    """

    iters: int
    total_time: float = 0.0
    overhead: float = 0.0
    moved: int = 0
    last_iter_time: float = 0.0
    #: decided iterations not yet folded, oldest first: (event migration
    #: costs, controller decision or None, stage count)
    pending: deque = field(default_factory=deque)
    bubbles: list[tuple[int, float]] = field(default_factory=list)
    makespans: list[tuple[int, float]] = field(default_factory=list)
    stages: list[tuple[int, int]] = field(default_factory=list)
    released_history: list[tuple[int, list[int]]] = field(default_factory=list)
    # -- cluster-event state (trace-driven dynamism) ----------------------
    #: open straggler windows: [expires_at_iteration, ranks, slowdown]
    stragglers: list[list] = field(default_factory=list)
    #: ranks currently departed (failed or preempted, not yet recovered)
    failed_ranks: set = field(default_factory=set)
    #: every stage rank group in original pipeline order (seeded from the
    #: run-start placement); positions for regrow are resolved against
    #: this stable frame, so staggered failures cannot skew insert order
    stage_order: list[tuple[int, ...]] = field(default_factory=list)
    #: stage groups removed by events; a recovery re-admits a group —
    #: at its original pipeline position — once none of its ranks is failed
    lost_stages: list[tuple[int, ...]] = field(default_factory=list)
    #: a straggler window opened/closed this iteration: invoke the
    #: controller off-cadence so the partition adapts to the new speeds
    force_rebalance: bool = False
    #: (iteration, kind, ranks) log of applied events
    applied_events: list[tuple[int, str, list[int]]] = field(default_factory=list)
    # -- memory-model accounting ------------------------------------------
    #: largest per-stage resident-byte total seen across validations
    peak_stage_bytes: float = 0.0
    #: balancer moves the controller rejected because a stage would
    #: not fit its ranks' memory
    oom_events: int = 0


@dataclass
class TrainingResult:
    total_time_s: float
    total_tokens: float
    iterations: int
    bubble_history: list[tuple[int, float]] = field(default_factory=list)
    makespan_history: list[tuple[int, float]] = field(default_factory=list)
    stage_count_history: list[tuple[int, int]] = field(default_factory=list)
    overhead_s: float = 0.0
    layers_moved: int = 0
    final_plan: PipelinePlan | None = None
    average_gpus: float = 0.0
    placement_strategy: str = "identity"
    #: replica-0 pipeline chain at run end (the surviving GPU ranks)
    final_stage_ranks: list[int] = field(default_factory=list)
    #: (iteration, global ranks freed) per re-pack event
    released_ranks_history: list[tuple[int, list[int]]] = field(default_factory=list)
    #: (iteration, kind, ranks) per applied cluster event (trace runs)
    cluster_events_applied: list[tuple[int, str, list[int]]] = field(
        default_factory=list
    )
    #: largest per-stage resident-byte total (0.0 without a memory model)
    peak_stage_bytes: float = 0.0
    #: times memory constraints bound behaviour during the run
    oom_events: int = 0

    @property
    def tokens_per_s(self) -> float:
        return self.total_tokens / self.total_time_s if self.total_time_s > 0 else 0.0

    @property
    def mean_bubble_ratio(self) -> float:
        if not self.bubble_history:
            return 0.0
        return float(np.mean([b for _, b in self.bubble_history]))

    @property
    def overhead_fraction(self) -> float:
        return self.overhead_s / self.total_time_s if self.total_time_s > 0 else 0.0


class Trainer:
    def __init__(
        self,
        cfg: TrainingConfig,
        cost: ModelCost,
        scheme: DynamismScheme,
        comm: CommCostModel | None = None,
        controller: DynMoController | None = None,
        initial_plan: PipelinePlan | None = None,
        job_manager: ElasticJobManager | None = None,
        cluster_events: ClusterEventTrace | None = None,
        memory_model: StageMemoryModel | None = None,
        cache: OrderedDict[tuple, IterationResult] | None = None,
    ) -> None:
        self.cfg = cfg
        self.cost = cost
        self.scheme = scheme
        self.comm = comm
        self.controller = controller
        # when set, every placement decision (initial, post-repack,
        # post-regrow) is priced against its ranks' memory, and one
        # that does not fit raises a PlacementOOMError
        self.memory_model = memory_model
        self._last_mem_key: tuple | None = None
        n_layers = len(cost.specs)
        self.plan = initial_plan or PipelinePlan.uniform(n_layers, cfg.pp_stages)
        placement = None
        if comm is not None and cfg.placement_strategy:
            placement = make_placement(
                comm.topology,
                self.plan.num_stages,
                cfg.dp_ways,
                cfg.placement_strategy,
            )
        self.placement = placement
        # the open straggler windows' sorted (rank, factor) pairs, factors
        # of 1.0 dropped: the engine's slowdowns and a cache key's part
        self._slowdown_key: tuple = ()
        self.engine = self._new_engine(placement)
        self.states = scheme.initial_states()
        self.job_manager = job_manager
        self.cluster_events = cluster_events
        if cluster_events:
            limit = (
                placement.topology.num_gpus
                if placement is not None
                else self.plan.num_stages
            )
            if cluster_events.max_rank() >= limit:
                raise ValueError(
                    f"cluster event trace names rank {cluster_events.max_rank()}, "
                    f"but only ranks [0, {limit}) exist here"
                )
        if job_manager is not None:
            job_manager.request(_JOB_NAME, cfg.total_gpus, iteration=0)
        # Bounded LRU of iteration results: long elastic runs that
        # alternate between a handful of plans never thrash (the old
        # clear-everything-at-512 wiped the hot entries too).  Runs may
        # share one when their cost model, comm topology, schedule,
        # micro-batch count and DP ways are equal: its keys name only
        # the plan, placement, stragglers and states.
        self._cache: OrderedDict[tuple, IterationResult] = (
            OrderedDict() if cache is None else cache
        )
        self._cache_capacity = WINDOW
        # states_fingerprint memo, invalidated by the scheme's version
        # counter: schemes that change every few hundred iterations
        # (pruning, freezing, early exit) skip the per-iteration hash.
        self._fp: bytes | None = None
        self._fp_version: int | None = None

    # -- internals ---------------------------------------------------------
    def _new_engine(self, placement: Placement | None, slowdown_key: tuple = ()) -> PipelineEngine:
        return PipelineEngine(
            self.cost,
            self.comm,
            schedule=self.cfg.schedule,
            num_micro=self.cfg.micro_batches,
            dp_ways=self.cfg.dp_ways,
            placement=placement,
            rank_slowdowns=dict(slowdown_key),
        )

    def _states_key(self) -> bytes:
        if self.scheme.version != self._fp_version:
            self._fp = states_fingerprint(self.states)
            self._fp_version = self.scheme.version
        return self._fp

    def _cache_key(self) -> tuple:
        grid = self.placement.grid if self.placement is not None else None
        return (self.plan.boundaries, grid, self._slowdown_key, self._states_key())

    def _cache_lookup(self, key: tuple) -> IterationResult | None:
        res = self._cache.get(key)
        if res is not None:
            self._cache.move_to_end(key)
        return res

    def _cache_store(self, key: tuple, res: IterationResult) -> None:
        if len(self._cache) >= self._cache_capacity:
            self._cache.popitem(last=False)
        self._cache[key] = res

    # -- memory validation ---------------------------------------------------
    def _validate_memory(self, st: _RunState, context: str) -> None:
        """Price the current plan against its placed ranks' memory.

        Throttled on (plan, placement, states) identity so steady-state
        iterations pay one tuple comparison, not a re-pricing.  A stage
        that does not fit raises :class:`PlacementOOMError` with every
        stage's report.
        """
        model = self.memory_model
        if model is None:
            return
        key = (
            self.plan.boundaries,
            self.placement.grid if self.placement is not None else None,
            self._states_key(),
        )
        if key == self._last_mem_key:
            return
        topology = self.comm.topology if self.comm is not None else None
        totals = model.plan_stage_bytes(self.plan, self.states)
        caps = model.stage_capacities(len(totals), self.placement, topology)
        if not all(t <= c for t, c in zip(totals, caps)):
            raise PlacementOOMError(
                context,
                validate_memory(
                    model, self.plan, self.states, self.placement, topology
                ),
            )
        # record the peak only for plans that are accepted: a rejected
        # split never becomes resident memory
        peak = float(max(totals, default=0))
        if peak > st.peak_stage_bytes:
            st.peak_stage_bytes = peak
        self._last_mem_key = key

    def tokens_per_iteration(self) -> float:
        return float(
            self.cfg.micro_batch
            * self.cfg.seq_len
            * self.cfg.micro_batches
            * self.cfg.dp_ways
        )

    # -- stepwise run protocol ----------------------------------------------
    # begin / decide (_pre_iteration) / fold (_post_iteration) / finish
    # hooks, shared by run_group (a window of every run decided per
    # pricing call) and the lockstep pricing reference (one iteration of
    # many Trainers per call).

    def _begin_run(self, iterations: int | None) -> _RunState:
        st = _RunState(
            iters=iterations if iterations is not None else self.cfg.iterations
        )
        self._validate_memory(st, "initial placement")
        return st

    def _pre_iteration(self, st: _RunState, k: int) -> None:
        """Decide iteration k (events, dynamism, controller, memory) with
        no engine call; queue its terms for :meth:`_post_iteration`."""
        migrations = self._apply_cluster_events(st, k) if self.cluster_events else ()
        self.scheme.advance(k, self.states)

        decision: DynMoDecision | None = None
        force = st.force_rebalance
        st.force_rebalance = False
        if self.controller is not None and (
            force
            or self.controller.should_invoke(k, self.scheme.rebalance_every)
        ):
            decision = self.controller.rebalance(
                k, self.plan, self.states, self.placement
            )
            if decision.repacked:
                if self.job_manager is not None:
                    released = self.plan.num_stages - decision.plan.num_stages
                    if released > 0:
                        self.job_manager.release(
                            _JOB_NAME, released * self.cfg.dp_ways, iteration=k
                        )
                if decision.placement is not None:
                    self.placement = decision.placement
                    self.engine = self._new_engine(self.placement, self._slowdown_key)
                    st.released_history.append((k, list(decision.released_ranks)))
            self.plan = decision.plan
            st.moved += decision.layers_moved
            if decision.oom_rejected:
                st.oom_events += 1
        # covers controller decisions, event-driven shrink (after_repack)
        # and regrow (after_regrow), and dynamism state changes alike
        self._validate_memory(st, f"iteration {k}")
        st.pending.append((migrations, decision, self.plan.num_stages))

    # -- cluster-event handling ----------------------------------------------
    # A trace-driven run reacts to a changing cluster mid-flight:
    # failures/preemptions shrink the placement onto the surviving rank
    # groups (repack), recoveries re-admit released groups (regrow), and
    # straggler windows change the per-rank slowdown factors the engine
    # is built with.
    # Every transition prices its layer migration like a controller
    # repack would, so elasticity overhead stays honest.

    def _apply_cluster_events(self, st: _RunState, k: int) -> list[float]:
        """Apply iteration k's events; return their migration costs."""
        migrations: list[float] = []
        if not st.stage_order and self.placement is not None:
            # seed the stable pipeline frame before anything (events or
            # controller re-packs) can mutate the placement
            st.stage_order = [tuple(row) for row in self.placement.grid]
        changed = False
        for window in list(st.stragglers):
            if k >= window[0]:
                st.stragglers.remove(window)
                changed = True
                st.force_rebalance = True
        for ev in self.cluster_events.events_at(k):
            st.applied_events.append((k, ev.kind, list(ev.ranks)))
            if ev.kind == "straggler":
                # a window naming only departed ranks is a no-op (it
                # must not pollute the slowdown key and thrash the cache)
                live = tuple(r for r in ev.ranks if r not in st.failed_ranks)
                if live:
                    st.stragglers.append([k + ev.duration, live, ev.slowdown])
                    changed = True
                    st.force_rebalance = True
            elif ev.kind in ("failure", "preemption"):
                migrations += self._apply_departure(st, k, ev.ranks)
            else:  # recovery
                migrations += self._apply_recovery(st, k, ev.ranks)
        # a failed rank's open straggler windows die with it: the rank
        # left the placement, so its slowdown prices nothing and a stale
        # key would fragment the iteration cache (and its later expiry
        # would force a rebalance for a no-op change)
        for window in list(st.stragglers):
            live = tuple(r for r in window[1] if r not in st.failed_ranks)
            if live != window[1]:
                changed = True
                if live:
                    window[1] = live
                else:
                    st.stragglers.remove(window)
        if changed:
            slow: dict[int, float] = {}
            for _, ranks, factor in st.stragglers:
                for r in ranks:
                    slow[r] = max(slow.get(r, 1.0), factor)
            self._slowdown_key = tuple(sorted(p for p in slow.items() if p[1] != 1.0))
            self.engine = self._new_engine(self.placement, self._slowdown_key)
        return migrations

    def _require_event_placement(self, kind: str) -> Placement:
        if self.placement is None:
            raise ValueError(
                f"{kind} events need an explicit stage→rank placement; "
                "construct the Trainer with a comm model and a "
                "placement_strategy (stragglers alone work without one)"
            )
        return self.placement

    def _apply_departure(self, st: _RunState, k: int, ranks: tuple[int, ...]) -> list[float]:
        """Shrink onto the surviving stages; return the migration costs."""
        placement = self._require_event_placement("failure/preemption")
        dead = {r for r in ranks if r not in st.failed_ranks}
        st.failed_ranks.update(ranks)
        if not dead:
            return []
        hit = [
            s
            for s in range(placement.num_stages)
            if dead.intersection(placement.dp_group(s))
        ]
        if not hit:
            return []  # spare ranks died; nothing placed on them
        surviving = [s for s in range(placement.num_stages) if s not in hit]
        if not surviving:
            raise RuntimeError(
                f"cluster event at iteration {k} killed every pipeline stage"
            )
        for s in hit:
            st.lost_stages.append(placement.dp_group(s))
        released = [r for s in hit for r in placement.dp_group(s)]
        cost = self._transition(st, k, placement.after_repack(surviving), released)
        if self.job_manager is not None:
            self.job_manager.release(_JOB_NAME, len(released), iteration=k)
        return [cost]

    def _apply_recovery(self, st: _RunState, k: int, ranks: tuple[int, ...]) -> list[float]:
        """Regrow the healthy lost stages; return the migration costs."""
        placement = self._require_event_placement("recovery")
        st.failed_ranks.difference_update(ranks)
        # a lost stage group regrows once every rank in it is healthy
        # again (a failure may have killed one replica of a DP group;
        # the group's survivors were released with it and return here)
        order = {group: i for i, group in enumerate(st.stage_order)}
        ready = sorted(
            (
                group
                for group in st.lost_stages
                if not st.failed_ranks.intersection(group)
            ),
            key=lambda g: order.get(g, len(order)),
        )
        if not ready:
            return []
        regrown = placement
        readmitted: list[int] = []
        for group in ready:
            if regrown.num_stages >= self.plan.num_layers:
                break  # a pipeline cannot outgrow its layer count
            # original position = how many currently-placed groups come
            # before this one in the run-start pipeline order (stable
            # across staggered failures and interleaved re-packs)
            rank_of = order.get(group, len(order))
            pos = sum(
                1 for row in regrown.grid if order.get(tuple(row), -1) < rank_of
            )
            regrown = regrown.after_regrow([(pos, group)])
            st.lost_stages.remove(group)
            readmitted.extend(group)
        if not readmitted:
            return []
        cost = self._transition(st, k, regrown, released=[])
        if self.job_manager is not None:
            self.job_manager.request(_JOB_NAME, len(readmitted), iteration=k)
        return [cost]

    def _transition(
        self, st: _RunState, k: int, new_placement: Placement, released: list[int]
    ) -> float:
        """Re-split the plan over the new stage count; return the move's cost."""
        old_plan, old_placement = self.plan, self.placement
        new_plan = PipelinePlan.uniform(
            old_plan.num_layers, new_placement.num_stages
        )
        migration = diff_plans(old_plan, new_plan, self.cost, self.states)
        cost = migration.cost_seconds(
            self.comm,
            overlap=MIGRATION_OVERLAP,
            src_placement=old_placement,
            dst_placement=new_placement,
        )
        self.plan = new_plan
        self.placement = new_placement
        self.engine = self._new_engine(new_placement, self._slowdown_key)
        st.moved += migration.num_layers_moved
        if released:
            st.released_history.append((k, released))
        # the re-split partition is contiguous-uniform; let the
        # controller re-optimise it on its next (forced) invocation
        st.force_rebalance = True
        return cost

    def _post_iteration(self, st: _RunState, k: int, res: IterationResult) -> None:
        """Fold iteration k: charge its decided terms, in the order they
        arose, then its makespan."""
        migrations, decision, num_stages = st.pending.popleft()
        for cost in migrations:
            st.overhead += cost
            st.total_time += cost
        st.total_time += self.scheme.per_iteration_overhead_s
        if decision is not None:
            cost = decision.overhead_s(st.last_iter_time)
            st.overhead += cost
            st.total_time += cost
        st.last_iter_time = res.makespan
        st.total_time += res.makespan
        if k % self.cfg.record_every == 0 or k == st.iters - 1:
            st.bubbles.append((k, res.bubble_ratio()))
            st.makespans.append((k, res.makespan))
            st.stages.append((k, num_stages))

    def _finish_run(self, st: _RunState) -> TrainingResult:
        tokens = self.tokens_per_iteration() * st.iters
        avg_gpus = (
            self.job_manager.average_gpus(_JOB_NAME, st.iters)
            if self.job_manager is not None
            else float(self.cfg.total_gpus)
        )
        return TrainingResult(
            total_time_s=st.total_time,
            total_tokens=tokens,
            iterations=st.iters,
            bubble_history=st.bubbles,
            makespan_history=st.makespans,
            stage_count_history=st.stages,
            overhead_s=st.overhead,
            layers_moved=st.moved,
            final_plan=self.plan,
            average_gpus=avg_gpus,
            placement_strategy=(
                self.placement.strategy if self.placement is not None else "identity"
            ),
            final_stage_ranks=(
                list(self.placement.stage_ranks())
                if self.placement is not None
                else list(range(self.plan.num_stages))
            ),
            released_ranks_history=st.released_history,
            cluster_events_applied=st.applied_events,
            peak_stage_bytes=st.peak_stage_bytes,
            oom_events=st.oom_events,
        )

    # -- pricing --------------------------------------------------------------
    def prewarm(
        self,
        lanes: dict[tuple, tuple[PipelinePlan, np.ndarray, Placement | None]],
        priced: dict[tuple, IterationResult],
    ) -> int:
        """Price a window's cache misses in one batched call; return the
        number of lanes.

        ``lanes`` maps each uncached key to the plan, states copy and
        placement it was decided under, by this Trainer or by another
        that shares its iteration cache (:func:`run_group`).  Results go
        to the cache and to ``priced``, the map the fold reads (an
        eviction cannot lose one).  A key's (placement grid, slowdown
        key) is its segment: this Trainer's live one runs on its engine,
        each other on one engine snapshot with the same inputs.  An
        exception from the batched call is the outcome of every run
        that needed a lane; nothing is re-run scalar.
        """
        if not lanes:
            return 0
        # cache keys are (plan, placement grid, slowdown key, states)
        engines = {self._cache_key()[1:3]: self.engine}
        requests = []
        for key, (plan, states, placement) in lanes.items():
            engine = engines.get(key[1:3])
            if engine is None:
                engine = engines[key[1:3]] = self._new_engine(placement, key[2])
            requests.append((engine, plan, states))
        # looked up at call time, so a wrapper installed on the module
        # attribute (profilers, tests) sees this call
        from repro.pipeline.batched import simulate_many

        for key, res in zip(lanes, simulate_many(requests)):
            self._cache_store(key, res)
            priced[key] = res
        return len(lanes)

    # -- main loop ----------------------------------------------------------
    def run(
        self,
        iterations: int | None = None,
        deadline_s: float | None = None,
        stop: threading.Event | None = None,
    ) -> TrainingResult:
        """Run the training loop: :func:`run_group` with this Trainer
        alone, which decides :data:`WINDOW` iterations, prices them with
        :meth:`prewarm`, folds them, and repeats.

        ``deadline_s`` bounds the run's *wall-clock* time with a
        monotonic-clock check between iterations (while deciding and
        while folding), raising :class:`RunDeadlineExceeded` when the
        budget is spent.  This is the signal-free timeout path: it works
        off the main thread and on platforms without ``SIGALRM``, where
        the sweep runner cannot arm an alarm.  Once ``stop`` is set, the
        same check raises :class:`RunInterrupted`.  Simulated time is
        unaffected.
        """
        member = GroupMember(self)
        run_group([member], iterations, deadline_s, stop)
        if isinstance(member.outcome, Exception):
            raise member.outcome
        return member.outcome


@dataclass(eq=False)
class GroupMember:
    """One Trainer in a :func:`run_group` call.

    ``clock`` is the wall time charged to the run, which the caller may
    start at its build time: :func:`run_group` adds the run's own begin,
    decide, fold and finish time and its lanes' share of each pricing
    call.  ``outcome`` is the run's :class:`TrainingResult`, or the
    exception that ended it.
    """

    trainer: Trainer
    clock: float = 0.0
    outcome: TrainingResult | Exception | None = None
    st: _RunState | None = field(default=None, init=False, repr=False)
    #: the cache key of each decided iteration not yet folded
    keys: list[tuple] = field(default_factory=list, init=False, repr=False)
    #: lanes this run added to the pending pricing call
    owned: int = field(default=0, init=False, repr=False)
    #: whether this run reads a lane of the pending pricing call
    needs: bool = field(default=False, init=False, repr=False)


class _Clock:
    """Charges wall time to the member that runs, and stops a member
    whose budget is spent or whose group is asked to stop.

    The monotonic clock is read only when the running member changes
    and at budget checks, so a run alone reads it at its start, at each
    check and at its end.
    """

    def __init__(self, budget_s: float | None, stop: threading.Event | None) -> None:
        self.budget_s, self.stop = budget_s, stop
        self.running: GroupMember | None = None
        self.since = 0.0

    def switch(self, m: GroupMember | None) -> None:
        """Charge the running member up to now; ``m`` runs from now
        (None: no member does)."""
        if m is self.running:
            return
        now = time.monotonic()
        if self.running is not None:
            self.running.clock += now - self.since
        self.running, self.since = m, now

    def share(self, owners: list[GroupMember], lanes: int) -> None:
        """Split the time since the last switch, when no member ran,
        among ``owners`` by the lanes each added."""
        now = time.monotonic()
        for m in owners:
            m.clock += (now - self.since) * m.owned / lanes
        self.since = now

    def check(self, m: GroupMember, k: int) -> None:
        """Stop the running member ``m`` before iteration k once the
        stop event is set or its budget is spent (its clock stops
        there)."""
        if self.stop is not None and self.stop.is_set():
            raise RunInterrupted(f"stopped at iteration {k}/{m.st.iters}")
        if self.budget_s is None:
            return
        now = time.monotonic()
        if m.clock + now - self.since > self.budget_s:
            m.clock += now - self.since
            self.running, self.since = None, now
            raise RunDeadlineExceeded(
                f"exceeded {self.budget_s:g}s budget (monotonic "
                f"deadline check at iteration {k}/{m.st.iters})"
            )


def run_group(
    members: Sequence[GroupMember],
    iterations: int | None = None,
    budget_s: float | None = None,
    stop: threading.Event | None = None,
) -> None:
    """Run every member's Trainer to its outcome, window by window.

    Each window of :data:`WINDOW` iterations takes three steps:

    1. each live member decides the window (``_pre_iteration``), in
       member order, against the shared iteration cache;
    2. the union of their misses, deduplicated by cache key, is priced
       in one :meth:`Trainer.prewarm` call on the first live member;
    3. each member folds the window, in member order.

    When the union reaches :data:`WINDOW` lanes after a member decides,
    it is priced at once and the members decided so far fold, so no
    call holds more than two windows' lanes.  The Trainers must share
    one iteration cache, which promises that they price alike: one cost
    model, comm model, schedule, micro-batch count and DP ways.  Each
    outcome is the one the run alone would reach.

    A member whose own begin, decide, fold or finish raises keeps that
    exception as its outcome and leaves; an exception from a pricing
    call is the outcome of every member that needed a lane of it.
    ``budget_s`` bounds each member's ``clock``, checked between
    iterations (:class:`RunDeadlineExceeded`).  Once ``stop`` is set,
    the same check raises :class:`RunInterrupted` out of the call, and
    no member has an outcome.
    """
    if any(m.trainer._cache is not members[0].trainer._cache for m in members):
        raise ValueError("run_group's Trainers must share one iteration cache")
    clock = _Clock(budget_s, stop)
    live: list[GroupMember] = []
    for m in members:
        clock.switch(m)
        try:
            m.st = m.trainer._begin_run(iterations)
            live.append(m)
        except Exception as exc:
            m.outcome = exc
    end = max((m.st.iters for m in live), default=0)
    for lo in range(0, end, WINDOW):
        lanes: dict[tuple, tuple] = {}
        priced: dict[tuple, IterationResult] = {}
        decided: list[GroupMember] = []
        for m in live:
            if lo < m.st.iters:
                _decide(m, lo, lanes, priced, clock)
                decided.append(m)
            if len(lanes) >= WINDOW:
                _price_and_fold(live, decided, lanes, priced, lo, clock)
                lanes, priced, decided = {}, {}, []
        _price_and_fold(live, decided, lanes, priced, lo, clock)
        live = [m for m in live if m.outcome is None]
    for m in live:
        clock.switch(m)
        try:
            m.outcome = m.trainer._finish_run(m.st)
        except Exception as exc:
            m.outcome = exc
        m.st = None
    clock.switch(None)


def _decide(
    m: GroupMember,
    lo: int,
    lanes: dict[tuple, tuple],
    priced: dict[tuple, IterationResult],
    clock: _Clock,
) -> None:
    """Decide m's window from iteration ``lo``: queue each iteration's
    key, serve cache hits into ``priced`` and add misses to ``lanes``."""
    trainer, st, keys = m.trainer, m.st, m.keys
    owned, needs = 0, False
    clock.switch(m)
    try:
        for k in range(lo, min(lo + WINDOW, st.iters)):
            clock.check(m, k)
            trainer._pre_iteration(st, k)
            key = trainer._cache_key()
            keys.append(key)
            if key in priced:
                continue
            if key in lanes:
                needs = True
                continue
            res = trainer._cache_lookup(key)
            if res is None:
                lanes[key] = (trainer.plan, trainer.states.copy(), trainer.placement)
                owned += 1
                needs = True
            else:
                priced[key] = res
        m.owned, m.needs = owned, needs
    except RunInterrupted:
        raise
    except Exception as exc:
        m.outcome = exc


def _price_and_fold(
    live: list[GroupMember],
    decided: list[GroupMember],
    lanes: dict[tuple, tuple],
    priced: dict[tuple, IterationResult],
    lo: int,
    clock: _Clock,
) -> None:
    """Price ``lanes`` in one call, charging each member its lanes'
    share, then fold every member of ``decided`` still running."""
    if any(m.needs and m.outcome is None for m in decided):
        owners = [m for m in decided if m.owned]
        clock.switch(owners[0] if len(owners) == 1 else None)
        pricer = next(m for m in live if m.outcome is None)
        try:
            pricer.trainer.prewarm(lanes, priced)
        except Exception as exc:
            for m in decided:
                if m.needs and m.outcome is None:
                    m.outcome = exc
        if len(owners) > 1:
            clock.share(owners, len(lanes))
    for m in decided:
        if m.outcome is None:
            _fold(m, lo, priced, clock)
        m.keys.clear()
        m.owned, m.needs = 0, False


def _fold(
    m: GroupMember, lo: int, priced: dict[tuple, IterationResult], clock: _Clock
) -> None:
    """Fold m's decided window from iteration ``lo``."""
    trainer, st = m.trainer, m.st
    clock.switch(m)
    try:
        for k, key in enumerate(m.keys, lo):
            clock.check(m, k)
            trainer._post_iteration(st, k, priced[key])
    except RunInterrupted:
        raise
    except Exception as exc:
        m.outcome = exc
