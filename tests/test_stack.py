"""build_stack: one builder, one topology protocol, validated once."""

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.faults import FaultSchedule, FaultableServer, RetryPolicy, run_resilient
from repro.sched.registry import ALL_POLICIES, TOPOLOGY_POLICIES
from repro.serve import ServiceHarness
from repro.sim.engine import Simulator
from repro.sim.source import WorkloadSource
from repro.stack import FaultPlan, RunConfig, build_stack

CMIN, DELTA_C, DELTA = 30.0, 10.0, 0.2
CONFIG = RunConfig(CMIN, DELTA_C, DELTA)
ARMED = FaultPlan(schedule=FaultSchedule(), retry=RetryPolicy())


@pytest.fixture(scope="module")
def workload():
    gen = np.random.default_rng(5)
    return Workload(np.sort(gen.uniform(0.0, 10.0, 300)), name="stack")


class TestTopologyProtocol:
    @pytest.mark.parametrize("faults", [None, ARMED], ids=["healthy", "armed"])
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_protocol(self, workload, policy, faults):
        sim = Simulator()
        system = build_stack(sim, policy, CONFIG, faults)
        drivers = system.drivers
        assert len(drivers) == (2 if policy in TOPOLOGY_POLICIES else 1)
        assert system.loop_driver is drivers[0]
        assert system.demotion_target is drivers[-1]
        assert system.servers == [u for d in drivers for u in d.servers]
        assert len(system.servers) >= len(drivers)
        armed = all(isinstance(s, FaultableServer) for s in system.servers)
        assert armed == (faults is not None)
        assert all(d.retry is (None if faults is None else ARMED.retry) for d in drivers)
        WorkloadSource(sim, workload, system).start()
        sim.run()
        assert system.demotions == sum(d.demotions for d in drivers) == 0
        assert system.failovers == 0
        assert len(system.completed) == len(workload)
        assert system.fault_ledger() == {
            "completed": len(workload), "dropped": 0, "shed": 0
        }

    def test_scheduler_decorator_wraps_single_server_only(self):
        wrapped = []

        def wrap(scheduler):
            wrapped.append(scheduler)
            return scheduler

        driver = build_stack(Simulator(), "miser", CONFIG, wrap_scheduler=wrap)
        assert wrapped == [driver.scheduler]
        build_stack(Simulator(), "split", CONFIG, wrap_scheduler=wrap)
        assert len(wrapped) == 1

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            build_stack(Simulator(), "lifo", CONFIG)

    def test_rate_recording_is_single_server_only(self):
        config = RunConfig(CMIN, DELTA_C, DELTA, record_rates=1.0)
        with pytest.raises(ConfigurationError, match="single-server"):
            build_stack(Simulator(), "splitfarm", config)


class TestAqmSharedNeedsAqm:
    """``aqm_shared`` without a window policy is a configuration error at
    every entry point, not a silently ignored flag."""

    def test_run_resilient(self, workload):
        with pytest.raises(ConfigurationError, match="aqm_shared requires"):
            run_resilient(workload, "split", CMIN, DELTA_C, DELTA, aqm_shared=True)

    def test_service_harness(self):
        with pytest.raises(ConfigurationError, match="aqm_shared requires"):
            ServiceHarness("split", CMIN, DELTA_C, DELTA, aqm_shared=True)

    def test_with_a_window_both_run(self, workload):
        resilient = run_resilient(
            workload, "split", CMIN, DELTA_C, DELTA, aqm="static", aqm_shared=True
        )
        served = ServiceHarness(
            "split", CMIN, DELTA_C, DELTA, aqm="static", aqm_shared=True
        ).replay(workload)
        assert list(resilient.overall.samples) == list(served.overall.samples)
