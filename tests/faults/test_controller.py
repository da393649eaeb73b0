"""Adaptive shaper: hysteresis, actuation, and restoration."""

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import AdaptiveShaper, ControllerConfig
from repro.obs.registry import MetricsRegistry
from repro.sched.registry import make_scheduler
from repro.server.constant_rate import constant_rate_server
from repro.server.driver import DeviceDriver
from repro.sim.engine import Simulator

CMIN, DELTA_C, DELTA = 10.0, 2.0, 0.5


def _shaper(config=None, metrics=None):
    sim = Simulator()
    scheduler = make_scheduler("miser", CMIN, DELTA_C, DELTA)
    driver = DeviceDriver(
        sim, constant_rate_server(sim, CMIN + DELTA_C), scheduler
    )
    shaper = AdaptiveShaper(driver, config=config, metrics=metrics)
    return driver, shaper


def _feed(driver, completed=0, missed=0):
    """Advance the driver's always-on tallies as if requests finished."""
    driver.q1_completed += completed
    driver.q1_missed += missed


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(enter_miss_rate=0.0)
        with pytest.raises(ConfigurationError, match="hysteresis"):
            ControllerConfig(enter_miss_rate=0.1, exit_miss_rate=0.1)
        with pytest.raises(ConfigurationError):
            ControllerConfig(trip_ticks=0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(shrink=1.0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(min_limit=-1)
        with pytest.raises(ConfigurationError):
            ControllerConfig(shed_backlog=-1)

    def test_fcfs_rejected(self):
        sim = Simulator()
        driver = DeviceDriver(
            sim,
            constant_rate_server(sim, CMIN),
            make_scheduler("fcfs", CMIN, DELTA_C, DELTA),
        )
        with pytest.raises(ConfigurationError, match="classifier"):
            AdaptiveShaper(driver)


class TestHysteresis:
    def test_single_bad_window_does_not_trip(self):
        driver, shaper = _shaper(ControllerConfig(trip_ticks=2))
        planned = shaper.classifier.planned_limit
        _feed(driver, completed=10, missed=5)
        shaper.tick()
        assert shaper.classifier.limit == planned
        assert not shaper.degraded

    def test_consecutive_bad_windows_trip(self):
        driver, shaper = _shaper(ControllerConfig(trip_ticks=2, shrink=0.5))
        planned = shaper.classifier.planned_limit
        for _ in range(2):
            _feed(driver, completed=10, missed=5)
            shaper.tick()
        assert shaper.degraded
        assert shaper.degrades == 1
        assert shaper.classifier.limit == max(1, int(planned * 0.5))

    def test_interrupted_streak_resets(self):
        driver, shaper = _shaper(ControllerConfig(trip_ticks=2))
        _feed(driver, completed=10, missed=5)
        shaper.tick()
        _feed(driver, completed=10, missed=0)  # clean window in between
        shaper.tick()
        _feed(driver, completed=10, missed=5)
        shaper.tick()
        assert not shaper.degraded

    def test_dead_band_holds_mode(self):
        config = ControllerConfig(
            enter_miss_rate=0.2, exit_miss_rate=0.02, trip_ticks=1, clear_ticks=1
        )
        driver, shaper = _shaper(config)
        _feed(driver, completed=10, missed=5)
        shaper.tick()
        assert shaper.degraded
        # 10% miss rate: between exit (2%) and enter (20%) — no change.
        _feed(driver, completed=10, missed=1)
        shaper.tick()
        assert shaper.degraded
        assert shaper.recoveries == 0

    def test_recovery_restores_planned_limit(self):
        config = ControllerConfig(trip_ticks=1, clear_ticks=3)
        driver, shaper = _shaper(config)
        planned = shaper.classifier.planned_limit
        _feed(driver, completed=10, missed=5)
        shaper.tick()
        assert shaper.classifier.limit < planned
        for i in range(3):
            _feed(driver, completed=10, missed=0)
            shaper.tick()
            if i < 2:
                assert shaper.classifier.limit < planned
        assert shaper.classifier.limit == planned
        assert not shaper.degraded
        assert shaper.recoveries == 1

    def test_recovery_restores_a_reprovisioned_plan(self):
        """The classifier owns the plan: after a scale-up, recovery
        restores the new bound, not the one in force when the shaper
        was built."""
        config = ControllerConfig(trip_ticks=1, clear_ticks=1)
        driver, shaper = _shaper(config)
        built_with = shaper.classifier.planned_limit
        shaper.classifier.reprovision(4 * CMIN)
        planned = shaper.classifier.planned_limit
        assert planned > built_with
        _feed(driver, completed=10, missed=5)
        shaper.tick()
        assert shaper.classifier.limit < planned
        _feed(driver, completed=10, missed=0)
        shaper.tick()
        assert shaper.recoveries == 1
        assert shaper.classifier.limit == planned

    def test_geometric_shrink_floors_at_min_limit(self):
        config = ControllerConfig(trip_ticks=1, shrink=0.5, min_limit=1)
        driver, shaper = _shaper(config)
        for _ in range(20):
            _feed(driver, completed=10, missed=10)
            shaper.tick()
        assert shaper.classifier.limit == 1
        # No-op degrades (already at the floor) are not counted.
        assert shaper.degrades < 20

    def test_crash_detected_without_completions(self):
        """Backlog plus zero completions reads as a fully missed window."""
        driver, shaper = _shaper(ControllerConfig(trip_ticks=1))
        from repro.core.request import Request

        driver.scheduler.on_arrival(Request(arrival=0.0))
        driver.scheduler.on_arrival(Request(arrival=0.0))
        shaper.tick()
        assert shaper.degraded

    def test_idle_is_healthy(self):
        driver, shaper = _shaper(ControllerConfig(trip_ticks=1))
        shaper.tick()
        assert not shaper.degraded


class TestActuation:
    def test_shed_backlog(self):
        config = ControllerConfig(trip_ticks=1, shed_backlog=0)
        driver, shaper = _shaper(config)
        from repro.core.request import QoSClass, Request

        overflow = Request(arrival=0.0)
        overflow.classify(QoSClass.OVERFLOW)
        driver.scheduler.on_requeue(overflow)
        _feed(driver, completed=10, missed=5)
        shaper.tick()
        assert driver.shed == [overflow]
        assert driver.fault_ledger()["shed"] == 1

    def test_metrics_emitted(self):
        registry = MetricsRegistry()
        driver, shaper = _shaper(
            ControllerConfig(trip_ticks=1, clear_ticks=1), metrics=registry
        )
        _feed(driver, completed=10, missed=5)
        shaper.tick()
        _feed(driver, completed=10, missed=0)
        shaper.tick()
        assert registry.value("faults.ctl.degrades") == 1
        assert registry.value("faults.ctl.recoveries") == 1
        assert registry.value("faults.ctl.limit") == shaper.classifier.planned_limit
