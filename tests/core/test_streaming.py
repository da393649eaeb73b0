"""Streaming capacity estimation: a shadow autoscaler replaying a trace.

Online ``Cmin`` estimation over a sliding window is the provisioning
loop's decision half run offline: :meth:`Autoscaler.replay` feeds the
arrival column and ticks at data-driven instants, and each decision's
``recommended`` is the live estimate.
"""

import numpy as np
import pytest

from repro.core.capacity import CapacityPlanner
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.serve import Autoscaler, AutoscalerConfig


def _estimator(delta, fraction=0.9, window=60.0, interval=5.0) -> Autoscaler:
    return Autoscaler(
        None,
        delta,
        AutoscalerConfig(interval=interval, window=window, fraction=fraction),
    )


class TestValidation:
    def test_parameters(self):
        with pytest.raises(ConfigurationError):
            _estimator(delta=0.0)
        with pytest.raises(ConfigurationError):
            _estimator(delta=0.1, fraction=0.0)
        with pytest.raises(ConfigurationError):
            _estimator(delta=0.1, window=0.0)
        with pytest.raises(ConfigurationError):
            _estimator(delta=0.1, interval=0.0)
        with pytest.raises(ConfigurationError, match="align"):
            _estimator(delta=0.1).replay([1.0, 2.0], demands=[1.0])

    def test_rejects_time_travel(self):
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            _estimator(delta=0.1).replay([5.0, 4.0])


class TestReplanning:
    def test_replans_on_interval(self):
        scaler = _estimator(delta=0.1, window=20.0, interval=5.0)
        decisions = scaler.replay(np.arange(0.0, 20.0, 0.5))
        assert decisions == scaler.decisions
        assert len(decisions) >= 3
        times = [d.time for d in decisions]
        assert times[0] == 5.0
        assert all(b - a >= 5.0 - 1e-9 for a, b in zip(times, times[1:]))

    def test_no_snapshot_between_intervals(self):
        scaler = _estimator(delta=0.1, window=20.0, interval=5.0)
        assert scaler.replay([1.0]) == []
        assert scaler.decisions == []

    def test_estimate_matches_offline_on_window(self, rng):
        """A window covering the whole stream reproduces the offline plan."""
        arrivals = np.sort(rng.uniform(0.0, 10.0, 300))
        scaler = _estimator(delta=0.1, fraction=0.9, window=100.0, interval=10.0)
        # The trailing 10.0 forces the final tick.
        decisions = scaler.replay(np.append(arrivals, 10.0))
        offline = CapacityPlanner(Workload(arrivals), 0.1).min_capacity(0.9)
        assert decisions[-1].recommended == pytest.approx(offline, rel=0.1)

    def test_window_eviction(self):
        scaler = _estimator(delta=0.1, window=5.0, interval=5.0)
        decisions = scaler.replay(np.arange(0.0, 30.0, 0.1))
        assert decisions[-1].observed <= 51


class TestDriftTracking:
    def test_estimate_follows_rate_change(self, rng):
        """Rate quadruples at t=30: the estimate ramps up after the shift
        and the early estimates stay low."""
        slow = np.sort(rng.uniform(0.0, 30.0, 300))  # 10 IOPS
        fast = np.sort(rng.uniform(30.0, 60.0, 1200))  # 40 IOPS
        scaler = _estimator(delta=0.2, fraction=0.9, window=10.0, interval=2.0)
        decisions = scaler.replay(np.concatenate([slow, fast]))
        times = np.array([d.time for d in decisions])
        estimates = np.array([d.recommended for d in decisions])
        early = estimates[times < 28.0].mean()
        late = estimates[times > 45.0].mean()
        assert late > 2.0 * early

    def test_high_water_mark(self, rng):
        arrivals = np.sort(rng.uniform(0.0, 20.0, 500))
        scaler = _estimator(delta=0.1, window=10.0, interval=2.0)
        estimates = [d.recommended for d in scaler.replay(arrivals)]
        high_water = max(estimates)
        assert high_water > min(estimates)
        assert all(e <= high_water for e in estimates)

    def test_empty_series(self):
        scaler = _estimator(delta=0.1)
        assert scaler.replay(np.array([])) == []
        assert max((d.recommended for d in scaler.decisions), default=0.0) == 0.0
