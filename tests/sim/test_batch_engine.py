"""Columnar batch engine: parity with the event loop, selection, edges.

The batch engine's contract is *bit-identical samples* — not "close":
every parity assertion here uses exact equality.  Satellite edge cases
(zero-gap arrival batches, the negative-time guard, epoch-boundary
carry) are parametrized over both engines where applicable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.exceptions import ConfigurationError, SimulationError
from repro.perf import engines
from repro.shaping import RunConfig, run_policy
from repro.sim import batch
from repro.sim.stats import ResponseTimeCollector
from repro.traces.synthetic import poisson_workload

ENGINES = ("scalar", "batch")

#: One bursty trace with zero-gap batches and exact timestamp ties.
ZERO_GAP = Workload(
    [0.0, 0.0, 0.0, 0.01, 0.01, 0.5, 0.5, 0.5, 0.5, 1.0, 2.0, 2.0],
    name="zero-gap",
)

#: Overloaded config: cmin=200 admits floor(200*0.05)=10 outstanding.
CONFIG = dict(cmin=200.0, delta_c=40.0, delta=0.05)


def run_both(workload, policy, **config):
    scalar = run_policy(workload, policy, config=RunConfig(**config, engine="scalar"))
    columnar = run_policy(workload, policy, config=RunConfig(**config, engine="batch"))
    return scalar, columnar


# ---------------------------------------------------------------------------
# run_policy parity
# ---------------------------------------------------------------------------


class TestRunPolicyParity:
    @pytest.mark.parametrize("policy", batch.SUPPORTED_POLICIES)
    def test_zero_gap_batches_bit_identical(self, policy):
        scalar, columnar = run_both(ZERO_GAP, policy, **CONFIG)
        assert columnar.engine == "batch"
        assert scalar.engine == "scalar"
        assert columnar.overall.samples.tolist() == scalar.overall.samples.tolist()
        assert columnar.primary.samples.tolist() == scalar.primary.samples.tolist()
        assert columnar.overflow.samples.tolist() == scalar.overflow.samples.tolist()
        assert columnar.primary_misses == scalar.primary_misses

    @pytest.mark.parametrize("policy", batch.SUPPORTED_POLICIES)
    def test_poisson_trace_bit_identical(self, policy):
        workload = poisson_workload(rate=400.0, duration=3.0, seed=7)
        scalar, columnar = run_both(workload, policy, **CONFIG)
        assert columnar.overall.samples.tolist() == scalar.overall.samples.tolist()
        assert columnar.primary_misses == scalar.primary_misses
        assert columnar.fraction_within() == scalar.fraction_within()

    def test_empty_workload(self):
        scalar, columnar = run_both(Workload([], name="empty"), "fcfs", **CONFIG)
        assert columnar.overall.samples.tolist() == []
        assert scalar.overall.samples.tolist() == []

    def test_single_arrival_at_zero(self):
        scalar, columnar = run_both(Workload([0.0]), "split", **CONFIG)
        assert columnar.overall.samples.tolist() == scalar.overall.samples.tolist()


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


class TestEngineSelection:
    @pytest.fixture(autouse=True)
    def _clean_registry(self, monkeypatch):
        monkeypatch.delenv(engines.ENGINE_ENV_VAR, raising=False)
        monkeypatch.setattr(engines.REGISTRY, "_override", None)

    def test_defaults_to_auto(self):
        assert engines.active_engine() == "auto"

    def test_auto_takes_batch_path_when_eligible(self):
        result = run_policy(ZERO_GAP, "fcfs", **CONFIG)
        assert result.engine == "batch"

    def test_env_var_selects_engine(self, monkeypatch):
        monkeypatch.setenv(engines.ENGINE_ENV_VAR, "scalar")
        assert engines.active_engine() == "scalar"
        result = run_policy(ZERO_GAP, "fcfs", **CONFIG)
        assert result.engine == "scalar"

    def test_env_var_rejects_nonsense(self, monkeypatch):
        monkeypatch.setenv(engines.ENGINE_ENV_VAR, "quantum")
        with pytest.raises(ConfigurationError, match="unknown execution engine"):
            engines.active_engine()

    def test_set_engine_and_restore(self):
        engines.set_engine("scalar")
        try:
            assert engines.active_engine() == "scalar"
        finally:
            engines.set_engine(None)
        assert engines.active_engine() == "auto"

    def test_set_engine_validates_eagerly(self):
        with pytest.raises(ConfigurationError):
            engines.set_engine("quantum")
        assert engines.active_engine() == "auto"

    def test_use_engine_restores_on_exit(self):
        with engines.use_engine("batch"):
            assert engines.active_engine() == "batch"
        assert engines.active_engine() == "auto"

    def test_argument_beats_override(self):
        with engines.use_engine("batch"):
            result = run_policy(ZERO_GAP, "fcfs", config=RunConfig(**CONFIG, engine="scalar"))
        assert result.engine == "scalar"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(engines.ENGINE_ENV_VAR, "scalar")
        with engines.use_engine("batch"):
            assert engines.active_engine() == "batch"

    def test_available_engines(self):
        assert engines.available_engines() == ("scalar", "batch")


# ---------------------------------------------------------------------------
# Eligibility and fallback
# ---------------------------------------------------------------------------


class TestEligibility:
    @pytest.mark.parametrize("policy", ("fairqueue", "wf2q", "drr", "miser", "edf"))
    def test_auto_falls_back_for_other_policies(self, policy):
        result = run_policy(ZERO_GAP, policy, **CONFIG)
        assert result.engine == "scalar"

    def test_auto_falls_back_when_observed(self):
        from repro.obs import MetricsRegistry

        result = run_policy(
            ZERO_GAP, "fcfs", config=RunConfig(**CONFIG, metrics=MetricsRegistry())
        )
        assert result.engine == "scalar"
        assert result.telemetry is not None

    def test_auto_falls_back_for_sampler(self):
        result = run_policy(ZERO_GAP, "split", config=RunConfig(**CONFIG, sample_interval=0.5))
        assert result.engine == "scalar"

    def test_auto_falls_back_for_rate_recording(self):
        result = run_policy(ZERO_GAP, "fcfs", config=RunConfig(**CONFIG, record_rates=0.1))
        assert result.engine == "scalar"
        assert result.completion_series is not None

    def test_forced_batch_rejects_ineligible_policy(self):
        with pytest.raises(ConfigurationError, match="cannot run this configuration"):
            run_policy(ZERO_GAP, "miser", config=RunConfig(**CONFIG, engine="batch"))

    def test_forced_batch_rejects_observability(self):
        with pytest.raises(ConfigurationError, match="cannot run this configuration"):
            run_policy(
                ZERO_GAP,
                "fcfs",
                config=RunConfig(**CONFIG, engine="batch", sample_interval=0.5),
            )

    def test_unknown_policy_still_rejected_under_batch(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            run_policy(ZERO_GAP, "lifo", config=RunConfig(**CONFIG, engine="batch"))

    def test_supports_reports_reasons(self):
        ok, reason = batch.supports("fcfs")
        assert ok and reason == "eligible"
        assert not batch.supports("edf")[0]
        assert not batch.supports("fcfs", metrics=object())[0]
        assert not batch.supports("split", sample_interval=1.0)[0]
        assert not batch.supports("fcfs", record_rates=0.1)[0]


# ---------------------------------------------------------------------------
# Columnar kernels
# ---------------------------------------------------------------------------


class TestColumnarKernels:
    def test_fcfs_matches_closed_form_lindley(self):
        """Same recurrence as the closed form, up to reassociation."""
        arrivals = poisson_workload(rate=300.0, duration=2.0, seed=3).arrivals
        service = 1.0 / 250.0
        completions = batch.fcfs_completions(arrivals, 250.0)
        n = arrivals.size
        closed = service * (np.arange(n) + 1.0) + np.maximum.accumulate(
            arrivals - service * np.arange(n)
        )
        np.testing.assert_allclose(completions, closed, rtol=0, atol=1e-9)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ConfigurationError, match="negative arrival"):
            batch.fcfs_completions(np.array([-1.0, 0.0]), 10.0)
        with pytest.raises(ConfigurationError, match="negative arrival"):
            batch.run_batch(np.array([-0.5]), "split", 10.0, 5.0, 1.0)

    def test_non_1d_rejected(self):
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            batch.fcfs_completions(np.zeros((2, 2)), 10.0)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            batch.fcfs_completions(np.array([0.0]), 0.0)
        with pytest.raises(ConfigurationError, match="overflow capacity"):
            batch.split_columns(np.array([0.0]), 10.0, 0.0, 1.0)

    def test_epoch_boundary_carry(self, monkeypatch):
        """Finish times carry across epochs: shrinking EPOCH to force
        many sweeps must not change a single bit."""
        arrivals = poisson_workload(rate=500.0, duration=1.0, seed=11).arrivals
        reference = batch.fcfs_completions(arrivals, 300.0)
        ref_cols = batch.split_columns(arrivals, 300.0, 60.0, 0.02)
        monkeypatch.setattr(batch, "EPOCH", 7)
        np.testing.assert_array_equal(
            batch.fcfs_completions(arrivals, 300.0), reference
        )
        small = batch.split_columns(arrivals, 300.0, 60.0, 0.02)
        np.testing.assert_array_equal(small.admitted, ref_cols.admitted)
        np.testing.assert_array_equal(small.q1_completions, ref_cols.q1_completions)
        np.testing.assert_array_equal(small.q2_completions, ref_cols.q2_completions)

    def test_run_batch_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="no batch kernel"):
            batch.run_batch(np.array([0.0]), "edf", 10.0, 5.0, 1.0)


class TestFarm:
    @pytest.mark.parametrize("units", (1, 3, 4))
    def test_matches_event_driven_farm(self, units):
        from repro.sched.fcfs import FCFSScheduler
        from repro.server.driver import DeviceDriver
        from repro.server.farm import constant_rate_farm
        from repro.sim.engine import Simulator
        from repro.sim.source import WorkloadSource

        workload = poisson_workload(rate=120.0, duration=2.0, seed=5)
        sim = Simulator()
        farm = constant_rate_farm(sim, 100.0, units)
        driver = DeviceDriver(sim, farm, FCFSScheduler())
        WorkloadSource(sim, workload, driver).start()
        sim.run()
        event = np.full(len(workload), np.nan)
        for request in driver.completed:
            event[request.index] = request.completion
        columnar = batch.farm_fcfs_completions(workload.arrivals, units, 100.0)
        np.testing.assert_array_equal(columnar, event)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="units"):
            batch.farm_fcfs_completions(np.array([0.0]), 0, 10.0)
        with pytest.raises(ConfigurationError, match="capacity"):
            batch.farm_fcfs_completions(np.array([0.0]), 2, -1.0)

    def test_one_unit_degenerates_to_fcfs(self):
        arrivals = ZERO_GAP.arrivals
        np.testing.assert_array_equal(
            batch.farm_fcfs_completions(arrivals, 1, 50.0),
            batch.fcfs_completions(arrivals, 50.0),
        )


# ---------------------------------------------------------------------------
# Streaming aggregation
# ---------------------------------------------------------------------------


class TestStreaming:
    def test_fcfs_stream_matches_run_batch(self):
        workload = poisson_workload(rate=400.0, duration=2.0, seed=9)
        run = batch.run_batch(workload.arrivals, "fcfs", **CONFIG)
        summary = batch.fcfs_stream(
            batch.chunked(workload.arrivals, 13),
            CONFIG["cmin"] + CONFIG["delta_c"],
            bound=CONFIG["delta"],
        )
        assert summary.count == len(workload)
        assert summary.stats.min == run.overall.min()
        assert summary.stats.max == run.overall.max()
        assert summary.stats.mean == pytest.approx(run.overall.mean(), rel=1e-12)
        within = int(np.count_nonzero(run.overall <= CONFIG["delta"] + 1e-12))
        assert summary.within == within
        assert summary.fraction_within == within / len(workload)

    def test_split_stream_matches_split_columns(self):
        workload = poisson_workload(rate=400.0, duration=2.0, seed=13)
        cols = batch.split_columns(
            workload.arrivals, CONFIG["cmin"], CONFIG["delta_c"], CONFIG["delta"]
        )
        q1, q2 = batch.split_stream(
            batch.chunked(workload.arrivals, 17),
            CONFIG["cmin"],
            CONFIG["delta_c"],
            CONFIG["delta"],
        )
        assert q1.count == int(cols.admitted.sum())
        assert q2.count == int((~cols.admitted).sum())
        q1_resp = cols.q1_completions - workload.arrivals[cols.admitted]
        q2_resp = cols.q2_completions - workload.arrivals[~cols.admitted]
        assert q1.stats.max == q1_resp.max()
        assert q2.stats.max == q2_resp.max()

    def test_empty_stream(self):
        summary = batch.fcfs_stream(iter(()), 10.0, bound=1.0)
        assert summary.count == 0
        assert np.isnan(summary.fraction_within)

    def test_chunked_validation(self):
        with pytest.raises(ConfigurationError, match="chunk size"):
            list(batch.chunked(np.array([0.0]), 0))


# ---------------------------------------------------------------------------
# Collector array ingestion
# ---------------------------------------------------------------------------


class TestExtendArray:
    def test_samples_bit_identical_to_scalar_adds(self):
        values = np.abs(np.random.default_rng(2).normal(0.05, 0.02, 257))
        loop = ResponseTimeCollector("loop")
        for v in values.tolist():
            loop.add(v)
        bulk = ResponseTimeCollector("bulk")
        bulk.extend_array(values)
        assert bulk.samples.tolist() == loop.samples.tolist()
        assert bulk.stats.count == loop.stats.count
        assert bulk.stats.min == loop.stats.min
        assert bulk.stats.max == loop.stats.max

    def test_negative_response_rejected(self):
        collector = ResponseTimeCollector("guard")
        with pytest.raises(SimulationError, match="negative"):
            collector.extend_array(np.array([0.1, -0.2]))

    def test_empty_array_is_noop(self):
        collector = ResponseTimeCollector("empty")
        collector.extend_array(np.empty(0))
        assert collector.samples.tolist() == []
