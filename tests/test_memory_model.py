"""Tests for the per-stage memory model and memory-aware placement.

Covers the accounting authority (`StageMemoryModel`), schedule-aware
in-flight counts, the one per-stage capacity rule, placement validation
over heterogeneous capacities, per-destination re-packing (Algorithm 2
with per-rank ``max_mem``), Trainer OOM errors, orchestrated
``status="oom"`` records and their cache-soundness, and differential
goldens proving the memory knobs never change timing.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.cluster.memory import PlacementOOMError
from repro.cluster.placement import make_placement, validate_memory
from repro.cluster.topology import GPU_MODELS, parse_cluster
from repro.core.balancers.base import LoadBalancer
from repro.core.balancers.partition import partition_balanced
from repro.core.repack import first_fit_repack, repack_plan
from repro.experiments.common import build_scenario, make_trainer, parse_memory_limit
from repro.model.config import gpt_24
from repro.model.cost import (
    FROZEN,
    OPTIMIZER_STATES,
    PRECISIONS,
    SPARSITY,
    TOKEN_FRACTION,
    ModelCost,
    build_layer_specs,
    fresh_states,
)
from repro.model.memory import SCHEDULES, StageMemoryModel
from repro.orchestrator import ResultCache, RunSpec, execute_spec
from repro.pipeline import PipelinePlan

import cost_oracle

GIB = 1024**3


@pytest.fixture
def specs():
    return build_layer_specs(gpt_24())


@pytest.fixture
def cost(specs):
    return ModelCost(specs)


def _varied_states(n):
    states = fresh_states(n)
    states[2, SPARSITY] = 0.5
    states[3, FROZEN] = True
    states[4, TOKEN_FRACTION] = 0.7
    return states


class TestAccounting:
    def test_mixed_matches_legacy_integer_for_integer(self, specs, cost):
        """precision="mixed" must reproduce the scalar layer_memory
        exactly — this is what keeps default-knob runs bit-identical."""
        states = _varied_states(len(specs))
        model = StageMemoryModel(cost, schedule="zb", num_micro=32)
        for infl in (1, 3, 8):
            assert model.layer_bytes(states, infl) == [
                cost_oracle.layer_memory(cost, sp, stt, infl)
                for sp, stt in zip(specs, cost_oracle.rows(states))
            ]

    def test_full_precision_regime(self, specs):
        cost = ModelCost(specs, precision="full")
        states = _varied_states(len(specs))
        got = cost.layer_bytes(states[None], 1, "full")[:, 0]
        mixed = cost.layer_bytes(states[None], 1)[:, 0]
        for li, (sp, stt) in enumerate(zip(specs, cost_oracle.rows(states))):
            w, m, g, o, a = got[:, li].tolist()
            assert m == 0  # no fp32 master copy
            active = sp.param_count * (1.0 - stt.sparsity)
            if stt.sparsity > 0:
                assert w == int(active * 8)  # fp32 CSR values + index
            else:
                assert w == sp.param_count * 4
            if stt.frozen:
                assert g == 0 and o == 0
            else:
                assert g == int(active * 4)
                assert o == int(active * 4 * OPTIMIZER_STATES)
            # fp32 activations: 2x the bf16 mixed figure
            assert a == pytest.approx(2 * mixed[4, li], abs=4)
        # the memory model prices the cost's own precision
        model = StageMemoryModel(cost)
        assert model.layer_bytes(states, 1) == got.sum(axis=0).tolist()

    def test_in_flight_counts(self, cost):
        m_gpipe = StageMemoryModel(cost, schedule="gpipe", num_micro=16)
        m_zb = StageMemoryModel(cost, schedule="zb", num_micro=16)
        m_1f1b = StageMemoryModel(cost, schedule="1f1b", num_micro=16)
        for s in range(8):
            assert m_gpipe.in_flight(s, 8) == 16
            assert m_zb.in_flight(s, 8) == max(1, min(16, 8 - s))
            assert m_1f1b.in_flight(s, 8) == m_zb.in_flight(s, 8)
        assert m_zb.worst_in_flight(8) == 8
        assert m_gpipe.worst_in_flight(8) == 16

    def test_recompute_holds_one_micro_batch(self, specs):
        model = StageMemoryModel(
            ModelCost(specs, activation_recompute=True),
            schedule="gpipe",
            num_micro=32,
        )
        assert all(model.in_flight(s, 8) == 1 for s in range(8))

    def test_knob_validation(self, cost):
        with pytest.raises(ValueError):
            StageMemoryModel(cost, schedule="interleaved")
        with pytest.raises(ValueError):
            StageMemoryModel(cost, num_micro=0)
        with pytest.raises(ValueError):
            ModelCost(cost.specs, precision="fp8")
        with pytest.raises(ValueError):
            StageMemoryModel(cost, limit_bytes=0)
        with pytest.raises(ValueError):
            StageMemoryModel(cost).in_flight(9, 8)
        assert set(SCHEDULES) == {"gpipe", "1f1b", "zb"}
        assert set(PRECISIONS) == {"mixed", "full"}

    def test_layer_bytes_follow_state_changes(self, specs, cost):
        model = StageMemoryModel(cost)
        states = _varied_states(len(specs))
        first = model.layer_bytes(states, 4)
        assert model.layer_bytes(states, 4) == first
        states[2, SPARSITY] = 0.9  # same array, new value
        assert model.layer_bytes(states, 4) != first

    def test_stage_bytes_sum_layers_at_stage_in_flight(self, specs, cost):
        model = StageMemoryModel(cost, schedule="1f1b", num_micro=8)
        states = _varied_states(len(specs))
        plan = PipelinePlan.uniform(len(specs), 4)
        totals = model.plan_stage_bytes(plan, states)
        reports = model.stage_reports(plan, states, [float("inf")] * 4)
        for s, (total, rep) in enumerate(zip(totals, reports)):
            per_layer = model.layer_bytes(states, model.in_flight(s, 4))
            assert total == rep.total_bytes == sum(
                per_layer[li] for li in plan.stage_layers(s)
            )
            assert rep.in_flight == model.in_flight(s, 4)


class TestGPURegistry:
    def test_models_present(self):
        assert GPU_MODELS["a100"].memory_bytes == 40 * GIB
        assert GPU_MODELS["a100-80g"].memory_bytes == 80 * GIB
        assert GPU_MODELS["h100"].memory_bytes == 80 * GIB

    def test_unknown_model_lists_known_names(self):
        with pytest.raises(ValueError, match="a100-80g"):
            parse_cluster("1x4:tpu")


class TestValidateMemory:
    def test_heterogeneous_per_stage_capacity(self, specs, cost):
        """Per-node capacity, never the cluster-wide minimum: the stage
        on the H100 node gets 80 GiB even though an A100 node exists."""
        topo = parse_cluster("1x2+1x2:a100")
        placement = make_placement(topo, num_stages=4, dp_ways=1)
        plan = PipelinePlan.uniform(len(specs), 4)
        model = StageMemoryModel(cost, schedule="zb", num_micro=8)
        reports = validate_memory(
            model, plan, fresh_states(len(specs)), placement=placement
        )
        caps = [r.capacity_bytes for r in reports]
        assert caps[0] == caps[1] == 80 * GIB  # H100 node
        assert caps[2] == caps[3] == 40 * GIB  # A100 node
        assert all(r.ranks for r in reports)
        assert all(r.fits for r in reports)

    def test_limit_clips_capacity(self, specs, cost):
        topo = parse_cluster("1x4")
        placement = make_placement(topo, num_stages=4, dp_ways=1)
        plan = PipelinePlan.uniform(len(specs), 4)
        model = StageMemoryModel(cost, limit_bytes=1 * GIB)
        reports = validate_memory(
            model, plan, fresh_states(len(specs)), placement=placement
        )
        assert all(r.capacity_bytes == 1 * GIB for r in reports)

    def test_stage_count_mismatch_raises(self, specs, cost):
        topo = parse_cluster("1x4")
        placement = make_placement(topo, num_stages=4, dp_ways=1)
        plan = PipelinePlan.uniform(len(specs), 2)
        with pytest.raises(ValueError, match="stages"):
            validate_memory(
                StageMemoryModel(cost), plan, fresh_states(len(specs)),
                placement=placement,
            )

    def test_one_capacity_rule(self, specs, cost):
        """Placed ranks, else the cluster minimum, else unbounded; each
        clipped by the limit."""
        topo = parse_cluster("1x2+1x2:a100")
        placement = make_placement(topo, num_stages=4, dp_ways=1)
        model = StageMemoryModel(cost, limit_bytes=60 * GIB)
        assert model.stage_capacities(4, placement, topo) == [
            60.0 * GIB, 60.0 * GIB, 40.0 * GIB, 40.0 * GIB
        ]
        assert model.stage_capacities(4, None, topo) == [40.0 * GIB] * 4
        assert model.stage_capacities(2) == [60.0 * GIB] * 2
        assert StageMemoryModel(cost).stage_capacities(2) == [float("inf")] * 2
        with pytest.raises(ValueError, match="stages"):
            model.stage_capacities(2, placement)

    def test_report_serialisation(self, specs, cost):
        plan = PipelinePlan.uniform(len(specs), 2)
        model = StageMemoryModel(cost)
        (rep, _) = validate_memory(model, plan, fresh_states(len(specs)))
        d = rep.as_dict()
        assert d["total_bytes"] == rep.total_bytes
        assert d["fits"] is True


class TestPerDestinationRepack:
    def test_scalar_broadcasts(self):
        a = first_fit_repack([10.0, 10.0], [1, 1], max_mem=25.0)
        b = first_fit_repack([10.0, 10.0], [1, 1], max_mem=[25.0, 25.0])
        assert a.active_workers == b.active_workers

    def test_destination_capacity_binds(self):
        """The merge guard prices the *destination* rank's capacity —
        a big source can merge into a big destination even when a small
        rank exists (the pre-fix scalar min would have refused)."""
        # dst 1 small: 30+30 !< 50 -> no merge
        res = first_fit_repack([30.0, 30.0], [1, 1], max_mem=[100.0, 50.0])
        assert res.num_active == 2
        # dst 1 big: 30+30 < 100 -> merge
        res = first_fit_repack([30.0, 30.0], [1, 1], max_mem=[50.0, 100.0])
        assert res.num_active == 1
        assert res.active_workers == [0, 1]

    def test_hetero_2x8_2x4_a100_regression(self, specs, cost):
        """Regression for the scalar-capacity bug on '2x8+2x4:a100':
        stages placed on 80 GiB H100 ranks may absorb merges that the
        40 GiB A100 ranks cannot — a single scalar (min) capacity
        would forbid the H100 merges, a single scalar (max) would OOM
        the A100s."""
        topo = parse_cluster("2x8+2x4:a100")
        placement = make_placement(
            topo, num_stages=8, dp_ways=1, strategy="scattered"
        )
        caps = [float(c) for c in placement.stage_capacities()]
        assert 40.0 * GIB in caps and 80.0 * GIB in caps
        plan = PipelinePlan.uniform(len(specs), 8)
        # 30 GiB per stage: fits everywhere, pairwise-merges only on H100
        mem = np.full(8, 30.0 * GIB)
        new_plan, result = repack_plan(plan, mem, caps, target_num_workers=1)
        assert 1 <= result.num_active < 8
        for worker, (m, active) in enumerate(
            zip(result.mem_usage, result.active_workers)
        ):
            if active:
                assert m <= caps[worker]
        # the scalar min-capacity would have refused every merge
        scalar = repack_plan(plan, mem, min(caps), target_num_workers=1)[1]
        assert scalar.num_active == 8

    def test_vector_validation(self):
        with pytest.raises(ValueError, match="capacities"):
            first_fit_repack([1.0, 1.0], [1, 1], max_mem=[10.0])
        with pytest.raises(ValueError):
            first_fit_repack([1.0, 1.0], [1, 1], max_mem=[10.0, 0.0])

    def test_plan_feasible_vector(self):
        plan = PipelinePlan.uniform(8, 4)
        mem = np.ones(8)
        assert LoadBalancer.plan_feasible(plan, mem, np.full(4, 2.0))
        caps = np.array([2.0, 2.0, 2.0, 1.0])
        assert not LoadBalancer.plan_feasible(plan, mem, caps)
        with pytest.raises(ValueError):
            LoadBalancer.plan_feasible(plan, mem, np.ones(3))
        assert LoadBalancer.scalar_capacity(caps) == 1.0
        assert LoadBalancer.scalar_capacity(None) is None
        assert LoadBalancer.scalar_capacity(7.0) == 7.0


class TestHypothesisProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        mem=st.lists(st.floats(1.0, 40.0), min_size=2, max_size=10),
        data=st.data(),
    )
    def test_repack_never_overflows_destination(self, mem, data):
        """Whenever every worker starts within its own capacity, no
        greedy merge may push an active worker past it."""
        caps = data.draw(
            st.lists(
                st.floats(1.0, 120.0),
                min_size=len(mem),
                max_size=len(mem),
            )
        )
        caps = [max(c, m + 0.5) for c, m in zip(caps, mem)]
        res = first_fit_repack(mem, [1] * len(mem), caps)
        for worker, (m, active) in enumerate(
            zip(res.mem_usage, res.active_workers)
        ):
            if active:
                assert m <= caps[worker] + 1e-9

    @settings(
        max_examples=30,
        deadline=None,
        # specs/cost are read-only model descriptions; sharing them
        # across generated examples is sound
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_surviving_placements_still_validate(self, specs, cost, data):
        """A placement that shrinks (after_repack) and regrows
        (after_regrow) under the memory model keeps producing plans
        that validate against the survivors' own capacities."""
        topo = parse_cluster("1x4+1x4:a100")
        placement = make_placement(topo, num_stages=8, dp_ways=1)
        model = StageMemoryModel(cost, schedule="zb", num_micro=8)
        states = fresh_states(len(specs))
        surviving = sorted(
            data.draw(
                st.sets(st.integers(0, 7), min_size=1, max_size=7)
            )
        )
        shrunk = placement.after_repack(list(surviving))
        n = shrunk.num_stages
        mem = np.asarray(
            model.layer_bytes(states, model.worst_in_flight(n)), dtype=float
        )
        cap = float(min(shrunk.stage_capacities()))
        try:
            plan = partition_balanced(mem, min(n, len(mem)), mem, cap)
        except ValueError:
            return  # genuinely infeasible shrink: nothing to validate
        if plan.num_stages != n:
            return
        reports = validate_memory(model, plan, states, placement=shrunk)
        assert all(r.fits for r in reports)
        # regrow back to the full placement round-trips exactly
        dropped = [s for s in range(8) if s not in surviving]
        if dropped:
            regrown = shrunk.after_regrow(
                [(s, placement.dp_group(s)) for s in dropped]
            )
            assert regrown == placement


class TestParseMemoryLimit:
    def test_values(self):
        assert parse_memory_limit(None) == (False, None)
        assert parse_memory_limit("") == (False, None)
        assert parse_memory_limit("auto") == (True, None)
        assert parse_memory_limit("40e9") == (True, 40e9)
        assert parse_memory_limit(1.5e9) == (True, 1.5e9)
        with pytest.raises(ValueError):
            parse_memory_limit("-1")
        with pytest.raises(ValueError):
            parse_memory_limit("lots")


class TestTrainerOOM:
    def test_initial_placement_raises(self):
        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        trainer = make_trainer(
            setup, "megatron", iterations=10, memory_limit=1e6
        )
        with pytest.raises(PlacementOOMError) as exc_info:
            trainer.run()
        err = exc_info.value
        assert err.context == "initial placement"
        assert err.reports and not all(r.fits for r in err.reports)
        assert "GiB" in str(err)

    def test_oom_error_pickles(self):
        import pickle

        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        trainer = make_trainer(
            setup, "megatron", iterations=10, memory_limit=1e6
        )
        try:
            trainer.run()
        except PlacementOOMError as exc:
            clone = pickle.loads(pickle.dumps(exc))
            assert clone.context == exc.context
            assert len(clone.reports) == len(exc.reports)
        else:  # pragma: no cover - guarded by the test above
            pytest.fail("expected PlacementOOMError")

    def test_healthy_run_records_peak(self):
        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        res = make_trainer(
            setup, "dynmo-partition", iterations=10, memory_limit="auto"
        ).run()
        assert res.peak_stage_bytes > 0
        assert res.oom_events == 0

    def test_default_knobs_record_nothing(self):
        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        res = make_trainer(setup, "dynmo-partition", iterations=10).run()
        assert res.peak_stage_bytes == 0.0
        assert res.oom_events == 0


def _spec(**kw):
    base = dict(
        scenario="pruning",
        mode="dynmo-partition",
        num_layers=24,
        pp_stages=4,
        dp_ways=1,
        iterations=15,
    )
    base.update(kw)
    return RunSpec(**base)


class TestOrchestratedOOM:
    def test_execute_spec_oom_record(self):
        rec = execute_spec(_spec(memory_limit="1e6"))
        assert rec.status == "oom"
        assert rec.error_type == "PlacementOOMError"
        assert rec.metrics["oom_context"] == "initial placement"
        assert rec.metrics["stage_reports"]
        assert any(
            not r["fits"] for r in rec.metrics["stage_reports"]
        )

    def test_oom_is_deterministic_and_cacheable(self, tmp_path):
        spec = _spec(memory_limit="1e6")
        a = execute_spec(spec)
        b = execute_spec(spec)
        assert a.to_dict()["metrics"] == b.to_dict()["metrics"]
        cache = ResultCache(tmp_path)
        cache.put(a)
        served = cache.get(spec)
        assert served is not None and served.cached
        assert served.status == "oom"

    def test_failed_runs_stay_uncacheable(self, tmp_path):
        rec = execute_spec(_spec(num_layers=24))
        rec.status = "error"
        cache = ResultCache(tmp_path)
        cache.put(rec)
        assert cache.get(rec.spec) is None

    def test_memory_knobs_hash_and_label(self):
        base = _spec()
        assert base.precision == "mixed" and base.memory_limit == ""
        for variant in (
            _spec(precision="full"),
            _spec(recompute=True),
            _spec(memory_limit="auto"),
        ):
            assert variant.spec_hash != base.spec_hash
        assert "full" in _spec(precision="full").label
        assert "recompute" in _spec(recompute=True).label
        assert "mem-auto" in _spec(memory_limit="auto").label
        assert "full" not in base.label

    @pytest.mark.parametrize("scenario", ["pruning", "freezing"])
    def test_partition_keeps_plan_when_no_split_fits(self, scenario):
        """The balancer's per-layer bytes use the stage-0 in-flight
        count for every stage, so no split fits them here; the run must
        keep its (fitting) plan instead of ending as an ``error`` row."""
        spec = _spec(
            scenario=scenario,
            num_layers=32,
            pp_stages=8,
            iterations=30,
            cluster="1x8",
            memory_limit="4e9",
            precision="full",
        )
        rec = execute_spec(spec)
        assert rec.status == "ok", rec.error
        assert 0 < rec.metrics["peak_stage_bytes"] <= 4e9

    def test_ok_run_reports_memory_metrics(self):
        rec = execute_spec(_spec(memory_limit="auto"))
        assert rec.status == "ok"
        assert rec.metrics["peak_stage_bytes"] > 0
        assert rec.metrics["oom_events"] == 0


class TestDifferentialGoldens:
    def test_memory_knobs_do_not_change_timing(self):
        """precision/enforcement affect byte accounting only: a run
        that fits produces the exact timing of the unenforced run."""
        plain = execute_spec(_spec())
        limited = execute_spec(_spec(memory_limit="auto"))
        full = execute_spec(_spec(precision="full", memory_limit="auto"))
        for key in ("tokens_per_s", "mean_bubble_ratio", "total_time_s"):
            assert plain.metrics[key] == limited.metrics[key]
            assert plain.metrics[key] == full.metrics[key]

    def test_determinism_across_processes(self):
        spec = _spec(memory_limit="auto")
        a, b = execute_spec(spec), execute_spec(spec)
        assert a.metrics == b.metrics


class TestFacade:
    def test_api_exports(self):
        assert repro.StageMemoryModel is StageMemoryModel
        assert repro.PlacementOOMError is PlacementOOMError
        assert repro.StageMemoryReport.__name__ == "StageMemoryReport"
        for name in (
            "StageMemoryModel", "StageMemoryReport", "PlacementOOMError"
        ):
            assert name in repro.api.__all__
            assert name in repro.__all__
