"""Structural failover: crashed units in farms and the split topology."""

from repro.core.request import QoSClass, Request
from repro.core.workload import Workload
from repro.faults import FaultableServer, RetryPolicy
from repro.sched.fcfs import FCFSScheduler
from repro.server.cluster import SplitSystem
from repro.server.constant_rate import ConstantRateModel
from repro.server.driver import DeviceDriver
from repro.server.farm import ServerFarm
from repro.sim.engine import Simulator
from repro.sim.source import WorkloadSource


class TestFaultableFarm:
    def _farm(self, sim, units=3, rate=10.0):
        return ServerFarm(
            sim,
            [ConstantRateModel(rate) for _ in range(units)],
            name="farm",
            unit_factory=FaultableServer,
        )

    def test_down_unit_diverts_dispatch(self):
        """With one unit crashed the farm keeps serving on the others."""
        sim = Simulator()
        farm = self._farm(sim)
        driver = DeviceDriver(sim, farm, FCFSScheduler(), retry=RetryPolicy())
        farm.units[0].crash()
        assert farm.available == 2
        workload = Workload([0.0, 0.01, 0.02, 0.03], name="divert")
        WorkloadSource(sim, workload, driver).start()
        sim.run()
        assert len(driver.completed) == 4
        assert farm.units[0].completed == 0  # the down unit served nothing

    def test_all_units_down_queues_until_repair(self):
        sim = Simulator()
        farm = self._farm(sim, units=2)
        driver = DeviceDriver(sim, farm, FCFSScheduler(), retry=RetryPolicy())
        for unit in farm.units:
            unit.crash()
        assert farm.busy  # down == busy to the driver
        workload = Workload([0.0, 0.1], name="wait")
        sim.schedule(1.0, farm.units[0].recover)
        WorkloadSource(sim, workload, driver).start()
        sim.run()
        assert len(driver.completed) == 2
        assert all(r.completion > 1.0 for r in driver.completed)

    def test_unit_crash_requeue_propagates_to_driver(self):
        sim = Simulator()
        farm = self._farm(sim, units=2, rate=1.0)
        driver = DeviceDriver(sim, farm, FCFSScheduler(), retry=RetryPolicy())
        workload = Workload([0.0], name="one")
        sim.schedule(0.2, farm.units[0].crash)
        sim.schedule(0.5, farm.units[0].recover)
        WorkloadSource(sim, workload, driver).start()
        sim.run()
        assert len(driver.completed) == 1
        request = driver.completed[0]
        assert request.retries == 1  # interrupted once, finished elsewhere
        assert farm.units[0].requeues == 1

    def test_plain_farm_exposes_no_fault_hooks(self):
        """Without faultable units the farm must not grow fault hooks —
        the driver's hasattr wiring stays off and behavior is unchanged."""
        sim = Simulator()
        farm = ServerFarm(sim, [ConstantRateModel(10.0)], name="plain")
        assert not hasattr(farm, "on_requeue")
        assert not hasattr(farm, "on_loss")
        assert not hasattr(farm, "on_recovery")


class TestSplitFailover:
    def _system(self, sim, retry=None):
        return SplitSystem(
            sim, cmin=10.0, delta_c=5.0, delta=0.5,
            unit_factory=FaultableServer, retry=retry,
        )

    def test_primary_down_fails_over_demoted(self):
        """A Q1 arrival facing a dead primary server is demoted (slot
        released) and served by the overflow server."""
        sim = Simulator()
        system = self._system(sim, retry=RetryPolicy())
        system.servers[0].crash()
        request = Request(arrival=0.0)
        sim.schedule(0.0, lambda: system.on_arrival(request))
        sim.run()
        assert system.failovers == 1
        assert request.qos_class is QoSClass.OVERFLOW
        assert request.completion is not None
        assert system.classifier.len_q1 == 0
        assert system.overflow_driver.completed == [request]

    def test_overflow_down_borrows_primary(self):
        sim = Simulator()
        system = self._system(sim, retry=RetryPolicy())
        system.servers[1].crash()
        # Fill the classifier's Q1 budget so the next arrival is overflow.
        first = Request(arrival=0.0, index=0)
        sim.schedule(0.0, lambda: system.on_arrival(first))
        extra = [Request(arrival=0.0, index=1 + i) for i in range(20)]
        for r in extra:
            sim.schedule(0.0, lambda r=r: system.on_arrival(r))
        sim.run()
        done = system.completed
        assert len(done) == 21
        assert system.failovers > 0
        # Everything ran on the primary server; the dead one served nothing.
        assert system.overflow_driver.completed == []

    def test_no_failover_keeps_per_driver_collectors(self):
        """by_class returns the original per-driver collectors when no
        failover happened — the bit-identical healthy path."""
        sim = Simulator()
        system = self._system(sim)
        request = Request(arrival=0.0)
        sim.schedule(0.0, lambda: system.on_arrival(request))
        sim.run()
        assert system.failovers == 0
        by_class = system.by_class
        assert by_class[QoSClass.PRIMARY] is system.primary_driver.by_class[
            QoSClass.PRIMARY
        ]
        assert by_class[QoSClass.OVERFLOW] is system.overflow_driver.by_class[
            QoSClass.OVERFLOW
        ]

    def test_both_down_waits_for_repair(self):
        sim = Simulator()
        system = self._system(sim, retry=RetryPolicy())
        for server in system.servers:
            server.crash()
        request = Request(arrival=0.0)
        sim.schedule(0.0, lambda: system.on_arrival(request))
        sim.schedule(2.0, system.servers[0].recover)
        sim.run()
        assert system.failovers == 0  # no live alternative at arrival
        assert request.completion is not None
        assert request.completion > 2.0
