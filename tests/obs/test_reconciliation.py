"""End-to-end telemetry checks: traces reconcile with run results.

The acceptance bar for the observability layer: the JSONL trace written
by an instrumented run must agree with the ``RunRecord`` computed
from the same simulation — sampled queue depths match the counters at
every tick, and the final counters match the result's totals.
"""

import pytest

from repro.obs import MetricsRegistry, depth_reconciles, read_jsonl
from repro.shaping import RunConfig, run_policy


@pytest.fixture(scope="module")
def workload():
    from repro.traces.library import websearch

    return websearch(duration=6.0, seed=23)


def run_observed(workload, policy, delta_c=25.0):
    registry = MetricsRegistry()
    result = run_policy(
        workload,
        policy,
        config=RunConfig(
            120.0, delta_c, 0.05, metrics=registry, sample_interval=0.25
        ),
    )
    return registry, result


class TestSingleServerReconciliation:
    @pytest.mark.parametrize("policy", ["fcfs", "fairqueue", "wf2q", "miser"])
    def test_depth_reconciles_at_every_sample(self, workload, policy):
        registry, result = run_observed(workload, policy)
        samples = result.telemetry.samples
        assert len(samples) > 10
        assert depth_reconciles(samples)

    @pytest.mark.parametrize("policy", ["fcfs", "fairqueue", "wf2q", "miser"])
    def test_final_counters_match_result(self, workload, policy):
        registry, result = run_observed(workload, policy)
        n = len(workload)
        assert registry.value("driver.arrivals") == n
        assert registry.value("driver.dispatches") == n
        assert registry.value("driver.completions") == n
        assert registry.value("driver.completions") == len(result.overall)
        assert registry.value("driver.deadline_misses") == result.primary_misses
        name = f"sched.{policy}.deadline_misses"
        assert registry.value(name) == result.primary_misses

    def test_scheduler_counters_split_by_class(self, workload):
        registry, result = run_observed(workload, "miser")
        arr = registry.value("sched.miser.arrivals")
        assert arr == len(workload)
        assert (
            registry.value("sched.miser.arrivals_q1")
            + registry.value("sched.miser.arrivals_q2")
            == arr
        )
        assert registry.value("sched.miser.arrivals_q1") == len(result.primary)
        assert registry.value("sched.miser.arrivals_q2") == len(result.overflow)

    def test_final_sample_shows_drained_system(self, workload):
        registry, result = run_observed(workload, "miser")
        last = result.telemetry.samples[-1]
        assert last["queue_depth"] == 0
        assert last["completions"] == len(workload)


class TestSplitReconciliation:
    def test_both_drivers_reconcile(self, workload):
        registry, result = run_observed(workload, "split", delta_c=40.0)
        samples = result.telemetry.samples
        assert depth_reconciles(samples, prefix="q1_")
        assert depth_reconciles(samples, prefix="q2_")

    def test_routing_counters_partition_the_stream(self, workload):
        registry, result = run_observed(workload, "split", delta_c=40.0)
        q1 = registry.value("split.routed_q1")
        q2 = registry.value("split.routed_q2")
        assert q1 + q2 == len(workload)
        assert registry.value("q1.driver.arrivals") == q1
        assert registry.value("q2.driver.arrivals") == q2


class TestJsonlTrace:
    def test_exported_trace_reconciles_with_result(self, workload, tmp_path):
        registry, result = run_observed(workload, "miser")
        path = tmp_path / "run.jsonl"
        result.telemetry.export(path)
        records = read_jsonl(path)

        meta = [r for r in records if r["type"] == "meta"]
        assert len(meta) == 1
        assert meta[0]["policy"] == "miser"
        assert meta[0]["requests"] == len(workload)

        samples = [r for r in records if r["type"] == "sample"]
        assert depth_reconciles(samples)

        by_name = {r["name"]: r for r in records if r["type"] == "metric"}
        assert by_name["driver.completions"]["value"] == len(result.overall)
        assert (
            by_name["driver.deadline_misses"]["value"] == result.primary_misses
        )

    def test_cli_metrics_flag(self, workload, tmp_path, capsys):
        from repro.experiments.runner import main

        path = tmp_path / "cli.jsonl"
        code = main(
            [
                "--metrics",
                str(path),
                "--duration",
                "4",
                "--metrics-interval",
                "0.5",
            ]
        )
        assert code == 0
        records = read_jsonl(path)
        samples = [r for r in records if r["type"] == "sample"]
        assert depth_reconciles(samples)
        by_name = {r["name"]: r for r in records if r["type"] == "metric"}
        assert (
            by_name["driver.arrivals"]["value"]
            == by_name["driver.completions"]["value"]
        )
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "driver.arrivals" in out

    def test_cli_summarize_flag(self, workload, tmp_path, capsys):
        from repro.experiments.runner import main

        registry, result = run_observed(workload, "miser")
        path = tmp_path / "run.jsonl"
        result.telemetry.export(path)
        assert main(["--summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sched.miser.slack_dispatches" in out


class TestUnobservedRuns:
    def test_no_telemetry_by_default(self, workload):
        result = run_policy(workload, "miser", cmin=120.0, delta_c=25.0, delta=0.05)
        assert result.telemetry is None

    def test_sampling_without_registry(self, workload):
        result = run_policy(
            workload, "miser", config=RunConfig(120.0, 25.0, 0.05, sample_interval=0.5)
        )
        telemetry = result.telemetry
        assert telemetry is not None
        assert len(telemetry.samples) > 5
        # No registry: counter columns are absent, state probes present.
        assert "arrivals" not in telemetry.samples[0]
        assert "queue_depth" in telemetry.samples[0]


class TestTelemetryOnEveryPath:
    """Chaos and serving runs carry the same exportable telemetry as
    ``run_policy``: one ``RunRecord.telemetry``, one horizon rule."""

    @pytest.mark.parametrize("policy", ["fairqueue", "miser"])
    def test_fault_armed_runs_export_reconciling_traces(
        self, workload, policy, tmp_path
    ):
        from repro.faults import chaos_recipe, run_resilient
        from repro.obs import summarize_file
        from repro.serve import ServiceHarness

        schedule, retry, adaptive = chaos_recipe(
            policy, 0.05, 1, workload.duration
        )
        faults = dict(retry=retry, adaptive=adaptive, sample_interval=0.25)
        resilient = run_resilient(
            workload, policy, 120.0, 25.0, 0.05,
            schedule=schedule, metrics=MetricsRegistry(), **faults,
        )
        served = ServiceHarness(
            policy, 120.0, 25.0, 0.05,
            faults=schedule, metrics=MetricsRegistry(), **faults,
        ).replay(workload, chunks=3)
        for name, record in (("resilient", resilient), ("served", served)):
            telemetry = record.telemetry
            assert telemetry.meta["requests"] == len(workload)
            assert depth_reconciles(telemetry.samples), name
            path = tmp_path / f"{name}.jsonl"
            lines = telemetry.export(path)
            assert len(list(read_jsonl(path))) == lines
            assert policy in summarize_file(str(path))
        # Both fault-armed: ticks run 20 intervals past the last fault.
        assert len(served.telemetry.samples) == len(resilient.telemetry.samples)

    @pytest.mark.parametrize("aqm", [None, "codel"])
    def test_crash_requeues_and_sheds_reconcile(self, workload, aqm):
        """A crash puts its in-service request back in the queue with no
        new arrival, and the shaper sheds queued requests with no
        dispatch: the identity counts both (and, with a window armed,
        timeouts that withdraw a request from the device queue)."""
        from repro.faults import chaos_recipe, run_resilient

        schedule, retry, adaptive = chaos_recipe(
            "fairqueue", 0.05, 3, workload.duration
        )
        assert schedule.crashes
        record = run_resilient(
            workload, "fairqueue", 120.0, 25.0, 0.05,
            schedule=schedule, retry=retry, adaptive=adaptive, seed=3,
            sample_interval=0.25, metrics=MetricsRegistry(), aqm=aqm,
        )
        samples = record.telemetry.samples
        assert samples[-1]["reentries"] > 0
        assert depth_reconciles(samples)

    def test_sheds_reconcile(self, workload):
        """A shaper that sheds the overflow backlog on degrade: shed
        requests leave the queue without a dispatch."""
        from repro.faults import AdaptiveShaper, ControllerConfig
        from repro.obs import Sampler, attach_standard_probes
        from repro.sched.registry import make_scheduler
        from repro.server.constant_rate import constant_rate_server
        from repro.server.driver import DeviceDriver
        from repro.sim.engine import Simulator
        from repro.sim.source import WorkloadSource

        sim = Simulator()
        driver = DeviceDriver(
            sim,
            constant_rate_server(sim, 60.0),  # under-delivers the plan
            make_scheduler("miser", 120.0, 25.0, 0.05),
            metrics=MetricsRegistry(),
        )
        sampler = Sampler(sim, 0.25)
        attach_standard_probes(sampler, driver)
        sampler.install(until=workload.duration)
        AdaptiveShaper(
            driver, config=ControllerConfig(trip_ticks=1, shed_backlog=0)
        ).install(sampler)
        WorkloadSource(sim, workload, driver).start()
        sim.run()
        sampler.sample_now()
        assert sampler.records[-1]["shed"] > 0
        assert depth_reconciles(sampler.records)

    def test_preemptions_reconcile(self, workload):
        """A preempted request re-enters the scheduler: srpt's trace on
        a sized workload reconciles too."""
        from repro.workload.sizes import ExponentialDemand, attach_demands

        sized = attach_demands(workload, ExponentialDemand(), seed=5)
        registry, result = run_observed(sized, "srpt")
        assert registry.value("driver.preemptions") > 0
        assert depth_reconciles(result.telemetry.samples)
