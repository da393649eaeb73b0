"""Failure-injection tests: brownouts, latency spikes, and recovery."""

import numpy as np
import pytest

from repro.analysis.response import windowed_compliance
from repro.core.request import QoSClass, Request
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.sched.registry import make_scheduler
from repro.server.base import Server
from repro.server.constant_rate import ConstantRateModel
from repro.server.degraded import Brownout, DegradedModel, FlakyModel
from repro.server.driver import DeviceDriver
from repro.sim.engine import Simulator
from repro.sim.source import WorkloadSource


class TestBrownout:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Brownout(start=2.0, end=1.0, factor=2.0)
        with pytest.raises(ConfigurationError):
            Brownout(start=0.0, end=1.0, factor=1.0)

    def test_negative_start_rejected(self):
        """The simulation clock starts at 0; a window reaching back
        before that used to silently inflate degraded_fraction."""
        with pytest.raises(ConfigurationError, match="t=0"):
            Brownout(start=-1.0, end=1.0, factor=2.0)

    def test_active_window(self):
        b = Brownout(start=1.0, end=2.0, factor=2.0)
        assert not b.active(0.5)
        assert b.active(1.0)
        assert b.active(1.999)
        assert not b.active(2.0)


class TestDegradedModel:
    def _model(self, sim, factor=3.0):
        return DegradedModel(
            sim,
            ConstantRateModel(10.0),
            [Brownout(start=1.0, end=2.0, factor=factor)],
        )

    def test_needs_windows(self):
        with pytest.raises(ConfigurationError):
            DegradedModel(Simulator(), ConstantRateModel(10.0), [])

    def test_overlap_rejected(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            DegradedModel(
                Simulator(),
                ConstantRateModel(10.0),
                [Brownout(0.0, 2.0, 2.0), Brownout(1.0, 3.0, 2.0)],
            )

    def test_inflation_only_inside_window(self):
        sim = Simulator()
        model = self._model(sim)
        request = Request(arrival=0.0)
        assert model.service_time(request) == pytest.approx(0.1)
        sim.schedule(1.5, lambda: None)
        sim.run()
        assert model.service_time(request) == pytest.approx(0.3)

    def test_degraded_fraction(self):
        sim = Simulator()
        model = self._model(sim)
        assert model.degraded_fraction(10.0) == pytest.approx(0.1)
        assert model.degraded_fraction(0.0) == 0.0

    def test_degraded_fraction_clips_to_horizon(self):
        """A window straddling the horizon counts only its inside part;
        one entirely beyond it counts nothing."""
        sim = Simulator()
        model = DegradedModel(
            sim,
            ConstantRateModel(10.0),
            [Brownout(1.0, 3.0, 2.0), Brownout(5.0, 7.0, 2.0)],
        )
        assert model.degraded_fraction(2.0) == pytest.approx(0.5)
        assert model.degraded_fraction(4.0) == pytest.approx(0.5)
        assert model.degraded_fraction(6.0) == pytest.approx(0.5)
        assert model.degraded_fraction(10.0) == pytest.approx(0.4)


class TestFlakyModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlakyModel(ConstantRateModel(10.0), 2.0, 5.0)
        with pytest.raises(ConfigurationError):
            FlakyModel(ConstantRateModel(10.0), 0.1, 1.0)

    def test_spike_rate(self):
        model = FlakyModel(ConstantRateModel(10.0), 0.25, 10.0, seed=0)
        request = Request(arrival=0.0)
        samples = [model.service_time(request) for _ in range(2000)]
        spikes = sum(1 for s in samples if s > 0.5)
        assert spikes == model.spikes_injected
        assert 0.18 < spikes / 2000 < 0.32

    def test_never_spikes_at_zero_probability(self):
        model = FlakyModel(ConstantRateModel(10.0), 0.0, 10.0, seed=0)
        request = Request(arrival=0.0)
        assert all(
            model.service_time(request) == pytest.approx(0.1) for _ in range(100)
        )

    def test_seed_reproducibility(self):
        """Same seed -> same spike sequence; different seeds -> different
        (the old shared-literal seeding collapsed every model onto one
        stream)."""
        request = Request(arrival=0.0)

        def draws(seed):
            model = FlakyModel(ConstantRateModel(10.0), 0.3, 10.0, seed=seed)
            return [model.service_time(request) for _ in range(200)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)
        # None is an alias for the default deterministic stream.
        assert draws(None) == draws(0)


class TestShapingUnderBrownout:
    @pytest.fixture(scope="class")
    def run(self):
        """Steady 40-IOPS workload on a 60-IOPS server that browns out to
        a third of its speed during [8, 12)."""
        gen = np.random.default_rng(4)
        workload = Workload(np.sort(gen.uniform(0.0, 30.0, 1200)), name="steady")

        def simulate(policy):
            sim = Simulator()
            model = DegradedModel(
                sim, ConstantRateModel(60.0), [Brownout(8.0, 12.0, 3.0)]
            )
            driver = DeviceDriver(
                sim,
                Server(sim, model, name="brownout"),
                make_scheduler(policy, 50.0, 10.0, 0.2),
            )
            WorkloadSource(sim, workload, driver).start()
            sim.run()
            return driver

        return simulate

    def test_all_served_despite_brownout(self, run):
        driver = run("miser")
        assert len(driver.completed) == 1200

    def test_violations_confined_to_brownout(self, run):
        """Compliance collapses only in (and right after) the injected
        window; the system recovers on its own."""
        driver = run("miser")
        starts, totals, fractions = windowed_compliance(
            [r.arrival for r in driver.completed],
            [r.response_time for r in driver.completed],
            0.2,
        )
        violations = starts[fractions < 0.8]
        assert violations.size, "a 3x brownout must cause some violations"
        # All violated windows start within the brownout or its drain.
        for start in violations:
            assert 7.0 <= start <= 16.0, start
        # Steady state before and after is compliant.
        assert np.mean(fractions[totals > 0] >= 0.8) > 0.7

    def test_shaped_recovers_like_fcfs(self, run):
        """Work conservation: the shaped policy drains the brownout
        backlog in the same total time as FCFS."""
        miser = run("miser")
        fcfs = run("fcfs")
        assert max(r.completion for r in miser.completed) == pytest.approx(
            max(r.completion for r in fcfs.completed)
        )

    def test_primary_protected_relative_to_overflow(self, run):
        """During the brownout the guaranteed class is still served ahead
        of the overflow class."""
        driver = run("miser")
        primary = [
            r.response_time
            for r in driver.completed
            if r.qos_class is QoSClass.PRIMARY and 8.0 <= r.arrival < 12.0
        ]
        overflow = [
            r.response_time
            for r in driver.completed
            if r.qos_class is QoSClass.OVERFLOW and 8.0 <= r.arrival < 12.0
        ]
        if primary and overflow:
            assert np.mean(primary) < np.mean(overflow)
