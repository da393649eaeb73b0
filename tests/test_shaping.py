"""Integration tests for the shaping facade (run_policy, WorkloadShaper)."""

import numpy as np
import pytest

from repro.core.capacity import CapacityPlanner
from repro.exceptions import ConfigurationError
from repro.record import RunRecord
from repro.shaping import RunConfig, WorkloadShaper, run_policy

POLICIES = ("fcfs", "split", "fairqueue", "wf2q", "miser")


@pytest.fixture(scope="module")
def workload():
    gen = np.random.default_rng(3)
    floor = gen.uniform(0.0, 20.0, 500)
    burst = 9.0 + gen.uniform(0.0, 0.4, 250)
    from repro.core.workload import Workload

    return Workload(np.sort(np.concatenate([floor, burst])), name="itest")


@pytest.fixture(scope="module")
def plan(workload):
    return CapacityPlanner(workload, 0.1).plan(0.9)


class TestRunPolicy:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_request_served_once(self, workload, plan, policy):
        result = run_policy(workload, policy, plan.cmin, plan.delta_c, plan.delta)
        assert len(result.overall) == len(workload)

    @pytest.mark.parametrize("policy", ("split", "fairqueue", "wf2q", "miser"))
    def test_shaped_policies_hit_target(self, workload, plan, policy):
        """Decomposition-based policies achieve ~90% within delta while
        FCFS at the same capacity falls short (the paper's Figure 6)."""
        result = run_policy(workload, policy, plan.cmin, plan.delta_c, plan.delta)
        assert result.fraction_within() >= 0.86

    def test_fcfs_below_target(self, workload, plan):
        fcfs = run_policy(workload, "fcfs", plan.cmin, plan.delta_c, plan.delta)
        shaped = run_policy(workload, "split", plan.cmin, plan.delta_c, plan.delta)
        assert fcfs.fraction_within() < shaped.fraction_within()

    @pytest.mark.parametrize("policy", ("split", "fairqueue", "wf2q", "miser"))
    def test_classification_counts(self, workload, plan, policy):
        result = run_policy(workload, policy, plan.cmin, plan.delta_c, plan.delta)
        assert len(result.primary) + len(result.overflow) == len(workload)
        # The online classifier admits roughly the planned fraction.
        assert len(result.primary) / len(workload) >= 0.85

    def test_split_primary_never_misses(self, workload, plan):
        result = run_policy(workload, "split", plan.cmin, plan.delta_c, plan.delta)
        assert result.primary_misses == 0

    def test_fcfs_has_no_classes(self, workload, plan):
        result = run_policy(workload, "fcfs", plan.cmin, plan.delta_c, plan.delta)
        assert len(result.primary) == 0
        assert len(result.overflow) == 0

    def test_binned_fractions(self, workload, plan):
        result = run_policy(workload, "miser", plan.cmin, plan.delta_c, plan.delta)
        bins = result.overall.binned_fractions([0.05, 0.1, 0.5, 1.0])
        values = list(bins.values())
        assert values[:-1] == sorted(values[:-1])  # cumulative
        assert values[-1] == pytest.approx(1.0 - values[-2], abs=1e-9)

    def test_rate_recording(self, workload, plan):
        result = run_policy(
            workload,
            "miser",
            config=RunConfig(plan.cmin, plan.delta_c, plan.delta, record_rates=1.0),
        )
        starts, rates = result.completion_series
        assert rates.sum() * 1.0 == pytest.approx(len(workload))

    def test_rate_recording_rejected_for_split(self, workload, plan):
        with pytest.raises(ConfigurationError, match="single-server"):
            run_policy(
                workload,
                "split",
                config=RunConfig(plan.cmin, plan.delta_c, plan.delta, record_rates=1.0),
            )

    def test_unknown_policy(self, workload, plan):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            run_policy(workload, "lifo", plan.cmin, plan.delta_c, plan.delta)

    def test_bad_configuration(self, workload):
        with pytest.raises(ConfigurationError):
            run_policy(workload, "fcfs", 0.0, 1.0, 0.1)

    def test_total_capacity(self, workload, plan):
        result = run_policy(workload, "fcfs", plan.cmin, plan.delta_c, plan.delta)
        assert result.total_capacity == plan.cmin + plan.delta_c


class TestWorkloadShaper:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadShaper(delta=0.0, fraction=0.9)
        with pytest.raises(ConfigurationError):
            WorkloadShaper(delta=0.1, fraction=0.0)

    def test_default_delta_c(self):
        shaper = WorkloadShaper(delta=0.01, fraction=0.9)
        assert shaper.delta_c == pytest.approx(100.0)

    def test_plan_matches_planner(self, workload):
        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        plan = shaper.plan(workload)
        assert plan.cmin == CapacityPlanner(workload, 0.1).min_capacity(0.9)

    def test_decompose_uses_planned_capacity(self, workload):
        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        decomposition = shaper.decompose(workload)
        assert decomposition.fraction_admitted >= 0.9

    def test_shape_end_to_end(self, workload):
        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        outcome = shaper.shape(workload, policies=("miser", "fcfs"))
        assert isinstance(outcome.run("miser"), RunRecord)
        assert outcome.decomposition.fraction_admitted >= 0.9
        with pytest.raises(ConfigurationError, match="not simulated"):
            outcome.run("split")


class TestPlannerCache:
    def test_planner_memoized_for_live_workload(self, workload):
        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        assert shaper.planner(workload) is shaper.planner(workload)

    def test_cache_does_not_grow_across_many_workloads(self):
        import gc

        from repro.core.workload import Workload
        from repro.shaping import PLANNER_CACHE_SIZE

        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        for i in range(10 * PLANNER_CACHE_SIZE):
            workload = Workload([0.1, 0.2 + i * 1e-6], name=f"w{i}")
            shaper.planner(workload)
        gc.collect()
        # The shaper itself pins at most PLANNER_CACHE_SIZE planners;
        # with no outside references the weak cache shrinks to the LRU.
        assert len(shaper._planner_lru) == PLANNER_CACHE_SIZE
        assert len(shaper._planners) <= PLANNER_CACHE_SIZE

    def test_recent_planners_stay_cached_without_external_refs(self):
        import gc

        from repro.core.workload import Workload

        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        workload = Workload([0.1, 0.2], name="pinned")
        first = shaper.planner(workload)
        gc.collect()
        # Still in the LRU keepalive: same object comes back.
        assert shaper.planner(workload) is first


class TestRunTelemetry:
    def test_disabled_by_default(self, workload, plan):
        result = run_policy(workload, "miser", plan.cmin, plan.delta_c, 0.1)
        assert result.telemetry is None

    def test_metrics_and_samples_attached(self, workload, plan):
        from repro.obs import MetricsRegistry, depth_reconciles

        registry = MetricsRegistry()
        result = run_policy(
            workload,
            "miser",
            config=RunConfig(
                plan.cmin, plan.delta_c, 0.1, metrics=registry, sample_interval=1.0
            ),
        )
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.registry is registry
        assert telemetry.meta["policy"] == "miser"
        assert telemetry.meta["requests"] == len(workload)
        assert depth_reconciles(telemetry.samples)
        assert registry.value("driver.completions") == len(workload)
