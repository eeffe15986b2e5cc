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
so :meth:`Trainer.run` *decides* a window of iterations with no engine
call, *prices* its distinct uncached states in one batched call, then
*folds* the terms and makespans in iteration order: bit-identical to
pricing each iteration as it is decided.  Results are memoised on
(plan, placement, straggler state, state fingerprint), so schemes that
change every few hundred iterations re-simulate only when they change.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.collectives import CommCostModel
from repro.cluster.events import ClusterEventTrace
from repro.cluster.job_manager import ElasticJobManager
from repro.cluster.memory import PlacementOOMError
from repro.cluster.placement import Placement, make_placement, validate_memory
from repro.core.controller import MIGRATION_OVERLAP, DynMoController, DynMoDecision
from repro.dynamics.base import DynamismScheme
from repro.model.cost import LayerState, ModelCost, state_matrix
from repro.model.memory import StageMemoryModel
from repro.pipeline.engine import IterationResult, PipelineEngine
from repro.pipeline.migration import diff_plans
from repro.pipeline.plan import PipelinePlan
from repro.training.config import TrainingConfig

#: the job name a run books its GPUs under in an ElasticJobManager
_JOB_NAME = "train"
#: iterations Trainer.run decides before one pricing call (the iteration
#: cache's size too)
WINDOW = 512


class RunDeadlineExceeded(RuntimeError):
    """A training run blew its wall-clock budget (monotonic check).

    Raised by :meth:`Trainer.run` between iterations when
    ``deadline_s`` is set; the sweep runner maps it to a
    ``status="timeout"`` record exactly like the ``SIGALRM`` path.
    """


class RunInterrupted(RuntimeError):
    """A training run stopped because its ``stop`` event was set.

    Raised by :meth:`Trainer.run` at the same points as
    :class:`RunDeadlineExceeded`; the sweep runner lands no record for
    the run, so a journal resume re-runs it.
    """


def states_fingerprint(states: list[LayerState]) -> bytes:
    """Stable hash of the dynamism state vector (for memoisation): the
    bytes of its :func:`~repro.model.cost.state_matrix`, the layout the
    cost model prices."""
    return hashlib.blake2b(state_matrix([states]).tobytes(), digest_size=16).digest()


@dataclass
class _RunState:
    """Mutable accounting for one in-flight training run.

    Shared between :meth:`Trainer.run` and the lockstep driver so both
    execute the identical per-iteration bookkeeping.
    """

    iters: int
    advance: "callable | None" = None
    scheme_overhead: float = 0.0
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
        placement: Placement | None = None,
        cluster_events: ClusterEventTrace | None = None,
        memory_model: StageMemoryModel | None = None,
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
        if placement is None and comm is not None and cfg.placement_strategy:
            placement = make_placement(
                comm.topology,
                self.plan.num_stages,
                cfg.dp_ways,
                cfg.placement_strategy,
            )
        self.placement = placement
        if controller is not None and controller.placement is None:
            controller.placement = placement
        if (
            controller is not None
            and controller.memory_model is None
            and memory_model is not None
        ):
            controller.memory_model = memory_model
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
        # canonical straggler state folded into the iteration-cache key
        self._slowdown_key: tuple = ()
        if job_manager is not None:
            job_manager.request(_JOB_NAME, cfg.total_gpus, iteration=0)
        # Bounded LRU of iteration results: long elastic runs that
        # alternate between a handful of plans never thrash (the old
        # clear-everything-at-512 wiped the hot entries too).
        self._cache: OrderedDict[tuple, IterationResult] = OrderedDict()
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
        version = getattr(self.scheme, "version", None)
        if version is None or version != self._fp_version or self._fp is None:
            self._fp = states_fingerprint(self.states)
            self._fp_version = version
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
    # hooks, shared by run() (a window decided per pricing call) and the
    # lockstep pricing reference (one iteration of many Trainers per call).

    def _begin_run(self, iterations: int | None) -> _RunState:
        st = _RunState(
            iters=iterations if iterations is not None else self.cfg.iterations
        )
        # baselines like Egeria carry their own per-iteration cost
        # (CPU reference-model maintenance that grows with depth)
        if hasattr(self.scheme, "per_iteration_overhead_s"):
            st.scheme_overhead = float(self.scheme.per_iteration_overhead_s())
        # duck-typed baselines (Egeria/Tutel wrappers) only provide
        # step(); without a version counter the fingerprint memo just
        # recomputes every iteration, as before
        st.advance = getattr(self.scheme, "advance", self.scheme.step)
        self._validate_memory(st, "initial placement")
        return st

    def _pre_iteration(self, st: _RunState, k: int) -> None:
        """Decide iteration k (events, dynamism, controller, memory) with
        no engine call; queue its terms for :meth:`_post_iteration`."""
        migrations = self._apply_cluster_events(st, k) if self.cluster_events else ()
        st.advance(k, self.states)

        decision: DynMoDecision | None = None
        force = st.force_rebalance
        st.force_rebalance = False
        if self.controller is not None and (
            force
            or self.controller.should_invoke(k, self.scheme.rebalance_every)
        ):
            decision = self.controller.rebalance(k, self.plan, self.states)
            if decision.repacked:
                if self.job_manager is not None:
                    released = self.plan.num_stages - decision.plan.num_stages
                    if released > 0:
                        self.job_manager.release(
                            _JOB_NAME, released * self.cfg.dp_ways, iteration=k
                        )
                if decision.placement is not None:
                    self.placement = decision.placement
                    self.engine.placement = decision.placement
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
    # straggler windows install per-rank slowdown factors on the engine.
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
            self.engine.set_rank_slowdowns(slow)
            self._slowdown_key = tuple(sorted(self.engine.rank_slowdowns.items()))
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
        self.engine.placement = new_placement
        if self.controller is not None:
            self.controller.placement = new_placement
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
        st.total_time += st.scheme_overhead
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
        lanes: dict[tuple, tuple[PipelinePlan, list[LayerState], Placement | None]],
        priced: dict[tuple, IterationResult],
    ) -> int:
        """Price a window's cache misses in one batched call; return the
        number of lanes.

        ``lanes`` maps each uncached key to the plan, states copy and
        placement it was decided under.  Results go to the cache and to
        ``priced``, the map the fold reads (an eviction cannot lose
        one).  A key's (placement grid, slowdown key) is its segment:
        the live one runs on this Trainer's engine, each other on one
        engine snapshot with the same inputs.  An exception from the
        batched call is the run's outcome; nothing is re-run scalar.
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
        """Run the training loop: decide :data:`WINDOW` iterations, price
        them with :meth:`prewarm`, fold them, repeat.

        ``deadline_s`` bounds the run's *wall-clock* time with a
        monotonic-clock check between iterations (while deciding and
        while folding), raising :class:`RunDeadlineExceeded` when the
        budget is spent.  This is the signal-free timeout path: it works
        off the main thread and on platforms without ``SIGALRM``, where
        the sweep runner cannot arm an alarm.  Once ``stop`` is set, the
        same check raises :class:`RunInterrupted`.  Simulated time is
        unaffected.
        """
        start = time.monotonic() if deadline_s is not None else 0.0
        st = self._begin_run(iterations)

        def check_limits(k: int) -> None:
            if stop is not None and stop.is_set():
                raise RunInterrupted(f"stopped at iteration {k}/{st.iters}")
            if deadline_s is not None and time.monotonic() - start > deadline_s:
                raise RunDeadlineExceeded(
                    f"exceeded {deadline_s:g}s budget (monotonic "
                    f"deadline check at iteration {k}/{st.iters})"
                )

        for lo in range(0, st.iters, WINDOW):
            keys: list[tuple] = []
            lanes: dict[tuple, tuple] = {}
            priced: dict[tuple, IterationResult] = {}
            for k in range(lo, min(lo + WINDOW, st.iters)):
                check_limits(k)
                self._pre_iteration(st, k)
                key = self._cache_key()
                keys.append(key)
                if key in priced or key in lanes:
                    continue
                res = self._cache_lookup(key)
                if res is None:
                    lanes[key] = (self.plan, [s.copy() for s in self.states], self.placement)
                else:
                    priced[key] = res
            self.prewarm(lanes, priced)
            for k, key in enumerate(keys, lo):
                check_limits(k)
                self._post_iteration(st, k, priced[key])
        return self._finish_run(st)
