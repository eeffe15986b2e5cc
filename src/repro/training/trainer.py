"""The end-to-end training loop (simulated time).

Per iteration:

1. the dynamism scheme advances (maybe mutating layer states);
2. if due, DynMo profiles, rebalances, re-packs and migrates
   (overhead added to the iteration's wall time);
3. the pipeline engine computes the iteration's makespan, busy/idle
   times and bubble ratio under the current plan;
4. throughput and elasticity accounting update.

Iteration results are memoised on (plan, state-fingerprint): schemes
that only change every few hundred iterations (pruning, freezing,
early exit) re-simulate only when something changed, which keeps a
10,000-iteration run fast.
"""

from __future__ import annotations

import copy
import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.collectives import CommCostModel
from repro.cluster.events import ClusterEventTrace
from repro.cluster.job_manager import ElasticJobManager
from repro.cluster.memory import PlacementOOMError
from repro.cluster.placement import Placement, make_placement, validate_memory
from repro.core.controller import DynMoController
from repro.dynamics.base import DynamismScheme, StaticScheme
from repro.model.cost import LayerState, ModelCost, state_matrix
from repro.model.memory import StageMemoryModel
from repro.pipeline.engine import IterationResult, PipelineEngine
from repro.pipeline.migration import diff_plans
from repro.pipeline.plan import PipelinePlan
from repro.training.config import TrainingConfig


class RunDeadlineExceeded(RuntimeError):
    """A training run blew its wall-clock budget (monotonic check).

    Raised by :meth:`Trainer.run` between iterations when
    ``deadline_s`` is set; the sweep runner maps it to a
    ``status="timeout"`` record exactly like the ``SIGALRM`` path.
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
        job_name: str = "train",
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
        self.engine = PipelineEngine(
            cost,
            comm,
            schedule=cfg.schedule,
            num_micro=cfg.micro_batches,
            dp_ways=cfg.dp_ways,
            placement=placement,
        )
        self.states = scheme.initial_states()
        self.job_manager = job_manager
        self.job_name = job_name
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
        # migration pricing for event-driven shrink/regrow transitions
        # follows the controller's overlap model when one is attached
        self._event_overlap = (
            controller.config.migration_overlap if controller is not None else 0.7
        )
        # canonical straggler state folded into the iteration-cache key
        self._slowdown_key: tuple = ()
        if job_manager is not None:
            job_manager.request(job_name, cfg.total_gpus, iteration=0)
        # Bounded LRU of iteration results: long elastic runs that
        # alternate between a handful of plans never thrash (the old
        # clear-everything-at-512 wiped the hot entries too).
        self._cache: OrderedDict[tuple, IterationResult] = OrderedDict()
        self._cache_capacity = 512
        # states_fingerprint memo, invalidated by the scheme's version
        # counter: schemes that change every few hundred iterations
        # (pruning, freezing, early exit) skip the per-iteration hash.
        self._fp: bytes | None = None
        self._fp_version: int | None = None

    # -- internals ---------------------------------------------------------
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

    def _iteration_result(self) -> IterationResult:
        key = self._cache_key()
        res = self._cache_lookup(key)
        if res is None:
            res = self.engine.run_iteration(self.plan, self.states)
            self._cache_store(key, res)
        return res

    def tokens_per_iteration(self) -> float:
        return float(
            self.cfg.micro_batch
            * self.cfg.seq_len
            * self.cfg.micro_batches
            * self.cfg.dp_ways
        )

    # -- stepwise run protocol ----------------------------------------------
    # run() is decomposed into begin / pre-iteration / post-iteration /
    # finish hooks so a lockstep driver (repro.training.lockstep) can
    # interleave many Trainers and simulate their cache misses in one
    # vectorized batch per iteration.  run() itself is the single-run
    # composition of the same hooks.

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
        """Apply cluster events, advance dynamism and (when due) the
        DynMo controller."""
        if self.cluster_events:
            self._apply_cluster_events(st, k)
        st.advance(k, self.states)
        st.total_time += st.scheme_overhead

        force = st.force_rebalance
        st.force_rebalance = False
        if self.controller is not None and (
            force
            or self.controller.should_invoke(k, self.scheme.rebalance_every)
        ):
            decision = self.controller.rebalance(
                k, self.plan, self.states, iter_time_hint=st.last_iter_time
            )
            if decision.repacked:
                if self.job_manager is not None:
                    released = self.plan.num_stages - decision.plan.num_stages
                    if released > 0:
                        self.job_manager.release(
                            self.job_name, released * self.cfg.dp_ways, iteration=k
                        )
                if decision.placement is not None:
                    self.placement = decision.placement
                    self.engine.placement = decision.placement
                    st.released_history.append((k, list(decision.released_ranks)))
            self.plan = decision.plan
            st.overhead += decision.overhead_s
            st.total_time += decision.overhead_s
            st.moved += decision.layers_moved
            if decision.oom_rejected:
                st.oom_events += 1
        # covers controller decisions, event-driven shrink (after_repack)
        # and regrow (after_regrow), and dynamism state changes alike
        self._validate_memory(st, f"iteration {k}")

    # -- cluster-event handling ----------------------------------------------
    # A trace-driven run reacts to a changing cluster mid-flight:
    # failures/preemptions shrink the placement onto the surviving rank
    # groups (repack), recoveries re-admit released groups (regrow), and
    # straggler windows install per-rank slowdown factors on the engine.
    # Every transition prices its layer migration like a controller
    # repack would, so elasticity overhead stays honest.

    def _apply_cluster_events(self, st: _RunState, k: int) -> None:
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
                self._apply_departure(st, k, ev.ranks)
            else:  # recovery
                self._apply_recovery(st, k, ev.ranks)
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

    def _require_event_placement(self, kind: str) -> Placement:
        if self.placement is None:
            raise ValueError(
                f"{kind} events need an explicit stage→rank placement; "
                "construct the Trainer with a comm model and a "
                "placement_strategy (stragglers alone work without one)"
            )
        return self.placement

    def _apply_departure(self, st: _RunState, k: int, ranks: tuple[int, ...]) -> None:
        placement = self._require_event_placement("failure/preemption")
        dead = {r for r in ranks if r not in st.failed_ranks}
        st.failed_ranks.update(ranks)
        if not dead:
            return
        hit = [
            s
            for s in range(placement.num_stages)
            if dead.intersection(placement.dp_group(s))
        ]
        if not hit:
            return  # spare ranks died; nothing placed on them
        surviving = [s for s in range(placement.num_stages) if s not in hit]
        if not surviving:
            raise RuntimeError(
                f"cluster event at iteration {k} killed every pipeline stage"
            )
        for s in hit:
            st.lost_stages.append(placement.dp_group(s))
        released = [r for s in hit for r in placement.dp_group(s)]
        self._transition(st, k, placement.after_repack(surviving), released)
        if self.job_manager is not None:
            self.job_manager.release(self.job_name, len(released), iteration=k)

    def _apply_recovery(self, st: _RunState, k: int, ranks: tuple[int, ...]) -> None:
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
            return
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
            return
        self._transition(st, k, regrown, released=[])
        if self.job_manager is not None:
            self.job_manager.request(self.job_name, len(readmitted), iteration=k)

    def _transition(
        self, st: _RunState, k: int, new_placement: Placement, released: list[int]
    ) -> None:
        """Re-split the plan over the new stage count and price the move."""
        old_plan, old_placement = self.plan, self.placement
        new_plan = PipelinePlan.uniform(
            old_plan.num_layers, new_placement.num_stages
        )
        migration = diff_plans(old_plan, new_plan, self.cost, self.states)
        cost = migration.cost_seconds(
            self.comm,
            overlap=self._event_overlap,
            src_placement=old_placement,
            dst_placement=new_placement,
        )
        self.plan = new_plan
        self.placement = new_placement
        self.engine.placement = new_placement
        if self.controller is not None:
            self.controller.placement = new_placement
        st.overhead += cost
        st.total_time += cost
        st.moved += migration.num_layers_moved
        if released:
            st.released_history.append((k, released))
        # the re-split partition is contiguous-uniform; let the
        # controller re-optimise it on its next (forced) invocation
        st.force_rebalance = True

    def _post_iteration(self, st: _RunState, k: int, res: IterationResult) -> None:
        st.last_iter_time = res.makespan
        st.total_time += res.makespan
        if k % self.cfg.record_every == 0 or k == st.iters - 1:
            st.bubbles.append((k, res.bubble_ratio()))
            st.makespans.append((k, res.makespan))
            st.stages.append((k, self.plan.num_stages))

    def _finish_run(self, st: _RunState) -> TrainingResult:
        tokens = self.tokens_per_iteration() * st.iters
        avg_gpus = (
            self.job_manager.average_gpus(self.job_name, st.iters)
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

    # -- batched fast path ---------------------------------------------------
    def prewarm(self, iterations: int | None = None) -> int:
        """Pre-simulate every distinct iteration the run will visit.

        A *scout* — a shadow Trainer over deep copies of the scheme and
        states — replays the next ``iterations`` steps (dynamism, cluster
        events, memory validation) without any engine call and collects
        one scenario per distinct iteration-cache key.  One
        :func:`~repro.pipeline.batched.simulate_many` call then seeds
        this run's cache, so the real run hits it on every iteration.

        A trace-driven run is *piecewise static*: between cluster events
        and straggler expiries the placement, plan and slowdown map are
        fixed.  Lanes are priced on this Trainer's own engine until the
        scout's placement or slowdown key first changes, then on a
        frozen engine snapshot per segment — the same inputs the live
        engine prices that segment with, so results are bit-identical.

        Only valid for controller-less runs (a controller may change the
        plan based on results).  Returns the number of scenarios
        batch-simulated; schemes that cannot be deep-copied are skipped
        (returns 0).  The replay is deterministic, so an error it raises
        is the one the run would raise at the same iteration.
        """
        if self.controller is not None or not self.engine.can_batch:
            return 0
        if not self.cluster_events and isinstance(self.scheme, StaticScheme):
            # static control runs never leave their initial state; skip
            # the scout instead of discovering one lone fingerprint
            return 0
        try:
            scheme = copy.deepcopy(self.scheme)
            states = copy.deepcopy(self.states)
        except (TypeError, copy.Error):
            return 0
        shadow = Trainer(
            self.cfg,
            self.cost,
            scheme,
            comm=self.comm,
            initial_plan=self.plan,
            placement=self.placement,
            cluster_events=self.cluster_events,
            memory_model=self.memory_model,
        )
        shadow.states = states
        st = shadow._begin_run(
            iterations if iterations is not None else self.cfg.iterations
        )
        # cache keys are (plan, placement grid, slowdown key, states):
        # key[1:3] names the engine a lane must be priced on
        engine, segment = self.engine, self._cache_key()[1:3]
        seen: set[tuple] = set()
        todo: list[tuple[tuple, PipelineEngine, PipelinePlan, list[LayerState]]] = []
        for k in range(st.iters):
            shadow._pre_iteration(st, k)
            key = shadow._cache_key()
            if key in seen:
                continue
            seen.add(key)
            if self._cache_lookup(key) is not None:
                continue
            if key[1:3] != segment:
                segment = key[1:3]
                engine = PipelineEngine(
                    self.cost,
                    self.comm,
                    schedule=self.cfg.schedule,
                    num_micro=self.cfg.micro_batches,
                    dp_ways=self.cfg.dp_ways,
                    placement=shadow.placement,
                    rank_slowdowns=dict(shadow.engine.rank_slowdowns),
                )
            todo.append((key, engine, shadow.plan, [s.copy() for s in shadow.states]))
            if len(todo) >= self._cache_capacity:
                break
        if len(todo) < 2:  # nothing to amortise
            return 0
        # looked up at call time, so a wrapper installed on the module
        # attribute (profilers, tests) sees this call
        from repro.pipeline.batched import simulate_many

        results = simulate_many([(eng, plan, sts) for _, eng, plan, sts in todo])
        for (key, *_), res in zip(todo, results):
            self._cache_store(key, res)
        return len(todo)

    # -- main loop ----------------------------------------------------------
    def run(
        self,
        iterations: int | None = None,
        prewarm: bool | None = None,
        deadline_s: float | None = None,
    ) -> TrainingResult:
        """Run the training loop.

        ``prewarm=None`` (auto) runs the :meth:`prewarm` scout when no
        controller is attached — bit-identical results, one vectorized
        engine call instead of one scalar call per distinct state.

        ``deadline_s`` bounds the run's *wall-clock* time with a
        monotonic-clock check between iterations, raising
        :class:`RunDeadlineExceeded` when the budget is spent.  This is
        the signal-free timeout path: it works off the main thread and
        on platforms without ``SIGALRM``, where the sweep runner cannot
        arm an alarm.  Simulated time is unaffected.
        """
        start = time.monotonic() if deadline_s is not None else 0.0
        st = self._begin_run(iterations)
        if prewarm is None:
            prewarm = self.controller is None and st.iters > 1
        if prewarm:
            self.prewarm(st.iters)
        for k in range(st.iters):
            if (
                deadline_s is not None
                and time.monotonic() - start > deadline_s
            ):
                raise RunDeadlineExceeded(
                    f"exceeded {deadline_s:.0f}s budget (monotonic "
                    f"deadline check at iteration {k}/{st.iters})"
                )
            self._pre_iteration(st, k)
            self._post_iteration(st, k, self._iteration_result())
        return self._finish_run(st)
