"""Autoscaler properties: the provisioning loop must be safe to close.

Hypothesis (ci-derandomized via ``tests/conftest.py``) certifies the
three safety properties the module docstring promises:

* re-provisioning is *monotone* in the observed window at worst-case
  fraction (more load never recommends less capacity);
* recommendations never drop below the ``Cmin`` floor;
* the trip/clear hysteresis never oscillates on a constant trace.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.request import Request
from repro.exceptions import ConfigurationError
from repro.serve import Autoscaler, AutoscalerConfig, ServiceHarness
from repro.traces.synthetic import poisson_workload

DELTA = 0.5

#: Millisecond-grid arrival instants (exact enough for stable replans).
arrival_lists = st.lists(
    st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False).map(
        lambda t: round(t * 1000.0) / 1000.0
    ),
    min_size=1,
    max_size=40,
)


def _scaler(**overrides) -> Autoscaler:
    config = AutoscalerConfig(
        interval=1.0,
        window=1e6,
        cmin_floor=overrides.pop("cmin_floor", 0.01),
        fraction=overrides.pop("fraction", 1.0),
        deadband=overrides.pop("deadband", 0.05),
        trip_epochs=overrides.pop("trip_epochs", 2),
        mode=overrides.pop("mode", "active"),
    )
    return Autoscaler(None, DELTA, config=config, **overrides)


def _observe(scaler: Autoscaler, arrivals) -> None:
    for i, arrival in enumerate(sorted(arrivals)):
        scaler.observe(Request(arrival=float(arrival), index=i))


class TestRecommendationProperties:
    @given(base=arrival_lists, extra=arrival_lists)
    def test_monotone_in_window_load(self, base, extra):
        light = _scaler()
        heavy = _scaler()
        _observe(light, base)
        _observe(heavy, base + extra)
        # At fraction=1.0 a superset of arrivals can only need more
        # capacity: the recommendation is monotone in the window.
        assert heavy.recommend(60.0) >= light.recommend(60.0)

    @given(
        arrivals=arrival_lists,
        floor=st.floats(0.5, 20.0, allow_nan=False, allow_infinity=False),
    )
    def test_never_below_the_cmin_floor(self, arrivals, floor):
        scaler = _scaler(cmin_floor=floor)
        assert scaler.recommend(60.0) == floor  # empty window -> floor
        _observe(scaler, arrivals)
        assert scaler.recommend(60.0) >= floor

    @given(
        arrivals=arrival_lists,
        deadband=st.floats(0.0, 0.2, allow_nan=False, allow_infinity=False),
        trip_epochs=st.integers(1, 3),
    )
    def test_hysteresis_never_oscillates_on_a_constant_trace(
        self, arrivals, deadband, trip_epochs
    ):
        scaler = _scaler(deadband=deadband, trip_epochs=trip_epochs)
        _observe(scaler, arrivals)
        for epoch in range(1, 16):
            scaler.tick(float(epoch))
        provisions = [d.provisioned for d in scaler.decisions]
        transitions = sum(
            1 for a, b in zip(provisions, provisions[1:]) if a != b
        )
        # A constant window may move the provision once (floor -> plan);
        # after that the loop must hold steady forever.
        assert transitions <= 1
        assert scaler.actuations <= 1
        if scaler.actuations:
            assert provisions[-1] == scaler.decisions[-1].recommended


class TestHysteresisMechanics:
    def test_trip_count_delays_actuation(self):
        scaler = _scaler(trip_epochs=3)
        _observe(scaler, np.zeros(30))  # a storm far above the floor
        first, second, third = (scaler.tick(float(t)) for t in (1, 2, 3))
        assert [first.actuated, second.actuated, third.actuated] == [
            False,
            False,
            True,
        ]
        assert first.provisioned == scaler.config.cmin_floor
        assert third.provisioned == third.recommended

    def test_in_band_recommendations_clear_the_streak(self):
        scaler = _scaler(trip_epochs=2, deadband=10.0, cmin_floor=10.0)
        _observe(scaler, np.zeros(30))
        for epoch in range(1, 6):
            decision = scaler.tick(float(epoch))
            assert not decision.actuated  # a huge deadband absorbs all
        assert scaler.actuations == 0

    def test_off_mode_never_actuates(self):
        """"Off" is ``autoscaler=None``: no loop, so the plan never
        moves; there is no separate ``mode="off"``."""
        with pytest.raises(ConfigurationError, match="mode"):
            AutoscalerConfig(mode="off")
        harness = ServiceHarness("split", 2.0, 2.0, DELTA)
        limit = harness.classifier.limit
        harness.replay(poisson_workload(40.0, duration=20.0, seed=9))
        assert harness.autoscaler is None
        assert harness.classifier.limit == limit

    def test_eviction_shrinks_the_window(self):
        scaler = Autoscaler(
            None,
            DELTA,
            config=AutoscalerConfig(
                interval=1.0, window=5.0, cmin_floor=0.01
            ),
        )
        _observe(scaler, [0.0, 1.0, 2.0])
        workload = scaler.window_workload(now=5.5)
        assert workload is not None and len(workload) == 2
        assert scaler.window_workload(now=100.0) is None


class TestActiveMode:
    def test_actuation_reprovisions_the_live_classifier(self):
        workload = poisson_workload(40.0, duration=20.0, seed=9)
        harness = ServiceHarness(
            "split",
            2.0,
            2.0,
            DELTA,
            autoscaler=AutoscalerConfig(
                interval=1.0,
                window=10.0,
                cmin_floor=2.0,
                trip_epochs=2,
                mode="active",
            ),
        )
        assert harness.classifier.limit == math.floor(2.0 * DELTA + 1e-9)
        harness.replay(workload)
        scaler = harness.autoscaler
        assert scaler.actuations >= 1
        assert scaler.provisioned > 2.0
        # The live admission bound moved with the provision.
        assert harness.classifier.limit == math.floor(
            scaler.provisioned * DELTA + 1e-9
        )

    def test_shadow_mode_never_touches_the_classifier(self):
        workload = poisson_workload(40.0, duration=20.0, seed=9)
        harness = ServiceHarness(
            "split",
            2.0,
            2.0,
            DELTA,
            autoscaler=AutoscalerConfig(
                interval=1.0,
                window=10.0,
                cmin_floor=2.0,
                trip_epochs=2,
                mode="shadow",
            ),
        )
        limit = harness.classifier.limit
        harness.replay(workload)
        assert harness.autoscaler.actuations >= 1  # it *would* scale
        assert harness.classifier.limit == limit  # but touched nothing

    def test_active_mode_without_classifier_is_rejected(self):
        with pytest.raises(ConfigurationError, match="shadow"):
            ServiceHarness(
                "fcfs",
                2.0,
                2.0,
                DELTA,
                autoscaler=AutoscalerConfig(mode="active"),
            )


class TestDigitalTwin:
    def test_empty_window_short_circuits(self):
        scaler = _scaler()
        verdict = scaler.what_if(10.0, now=0.0)
        assert verdict == {
            "requests": 0,
            "admitted": 0,
            "primary_misses": 0,
            "q1_compliance": 1.0,
            "mean_response": 0.0,
        }

    def test_ample_capacity_admits_everything(self):
        scaler = _scaler()
        _observe(scaler, poisson_workload(5.0, duration=10.0, seed=3).arrivals)
        observed = len(scaler._window)
        verdict = scaler.what_if(1000.0, now=10.0)
        assert verdict["requests"] == observed
        assert verdict["admitted"] == observed
        assert verdict["q1_compliance"] == 1.0
        assert verdict["primary_misses"] == 0

    def test_capacity_moves_the_twin_verdict(self):
        scaler = _scaler()
        _observe(scaler, np.repeat(np.arange(10.0), 8))
        starved = scaler.what_if(2.0, now=10.0)
        provisioned = scaler.what_if(50.0, now=10.0)
        assert provisioned["admitted"] > starved["admitted"]
        assert provisioned["mean_response"] < starved["mean_response"]
        with pytest.raises(ConfigurationError, match="capacity"):
            scaler.what_if(0.0, now=10.0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("interval", 0.0, "interval"),
            ("window", -1.0, "interval and window"),
            ("cmin_floor", 0.0, "cmin_floor"),
            ("fraction", 1.5, "fraction"),
            ("deadband", -0.1, "deadband"),
            ("trip_epochs", 0, "trip_epochs"),
            ("mode", "chaotic", "mode"),
        ],
    )
    def test_bad_config_rejected(self, field, value, match):
        with pytest.raises(ConfigurationError, match=match):
            AutoscalerConfig(**{field: value})

    def test_bad_scaler_parameters(self):
        with pytest.raises(ConfigurationError, match="delta"):
            Autoscaler(None, 0.0)
        with pytest.raises(ConfigurationError, match="delta_c"):
            Autoscaler(None, DELTA, delta_c=-1.0)
