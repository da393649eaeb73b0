"""Adaptive shaping: close the loop from observed degradation to maxQ1.

The paper's ``C·δ`` admission bound is sound only while the server
actually delivers rate ``C``.  When the substrate browns out, keeping
the planned bound admits guaranteed requests that cannot possibly meet
their deadlines; when it recovers, a shrunken bound wastes guaranteed
throughput.  The :class:`AdaptiveShaper` watches the driver's always-on
primary-class tallies and the server's busy time from the obs sampler's
tick cadence and moves the classifier's limit with hysteresis:

* **degrade** — after ``trip_ticks`` consecutive windows whose ``Q1``
  deadline-miss rate exceeds ``enter_miss_rate`` (or with a backlog and
  nothing completing — a crash), halve the limit (geometric, floored at
  ``min_limit``) and optionally shed the overflow backlog down to
  ``shed_backlog``;
* **recover** — after ``clear_ticks`` consecutive clean windows (miss
  rate below ``exit_miss_rate``), restore the planned ``C·δ`` bound in
  one step.

The plan has one owner, the classifier: recovery restores
``classifier.planned_limit`` as it stands at that moment, so a plan an
active :class:`~repro.serve.autoscaler.Autoscaler` re-provisioned
meanwhile is the one restored.

The asymmetric thresholds and consecutive-window requirements are the
hysteresis: a single bad (or good) sample never flips the mode, so the
controller cannot oscillate on sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError
from ..obs.registry import NULL_REGISTRY, MetricsRegistry
from ..obs.sampler import Sampler
from ..sched.classifier import OnlineRTTClassifier
from ..server.driver import DeviceDriver


@dataclass(frozen=True)
class ControllerConfig:
    """Hysteresis and actuation knobs for :class:`AdaptiveShaper`."""

    #: Window miss rate at or above which a window counts as *bad*.
    enter_miss_rate: float = 0.10
    #: Window miss rate at or below which a window counts as *clean*.
    exit_miss_rate: float = 0.02
    #: Consecutive bad windows before (each) degrade action.
    trip_ticks: int = 2
    #: Consecutive clean windows before the planned bound is restored.
    clear_ticks: int = 5
    #: Multiplier applied to the limit per degrade action.
    shrink: float = 0.5
    #: Floor for the adaptive limit (0 closes Q1 entirely).
    min_limit: int = 1
    #: When set, a degrade action sheds the overflow queue down to this
    #: many requests (None disables shedding).
    shed_backlog: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.enter_miss_rate <= 1.0:
            raise ConfigurationError(
                f"enter_miss_rate must be in (0, 1], got {self.enter_miss_rate}"
            )
        if not 0.0 <= self.exit_miss_rate < self.enter_miss_rate:
            raise ConfigurationError(
                "exit_miss_rate must be in [0, enter_miss_rate): hysteresis "
                f"needs a gap, got {self.exit_miss_rate} vs {self.enter_miss_rate}"
            )
        if self.trip_ticks < 1 or self.clear_ticks < 1:
            raise ConfigurationError("trip_ticks and clear_ticks must be >= 1")
        if not 0.0 < self.shrink < 1.0:
            raise ConfigurationError(
                f"shrink must be in (0, 1), got {self.shrink}"
            )
        if self.min_limit < 0:
            raise ConfigurationError(
                f"min_limit must be >= 0, got {self.min_limit}"
            )
        if self.shed_backlog is not None and self.shed_backlog < 0:
            raise ConfigurationError(
                f"shed_backlog must be >= 0 or None, got {self.shed_backlog}"
            )


class AdaptiveShaper:
    """Feedback controller from miss rate to the RTT admission bound.

    Parameters
    ----------
    driver:
        The device driver whose primary-class tallies feed the loop (and
        whose scheduler is shed on degrade).
    classifier:
        The online classifier actuated; defaults to ``driver.classifier``.
    config:
        Hysteresis/actuation knobs.
    metrics:
        Optional registry for ``faults.ctl.*`` counters and the
        ``faults.ctl.limit`` gauge.
    shed_from:
        Driver whose scheduler holds the sheddable ``Q2`` backlog;
        defaults to ``driver``.  The split topology passes its overflow
        driver here while the loop's inputs come from the primary one.
    """

    def __init__(
        self,
        driver: DeviceDriver,
        classifier: OnlineRTTClassifier | None = None,
        config: ControllerConfig | None = None,
        metrics: MetricsRegistry | None = None,
        shed_from: DeviceDriver | None = None,
    ):
        self.driver = driver
        self.shed_from = shed_from if shed_from is not None else driver
        self.classifier = classifier if classifier is not None else driver.classifier
        if self.classifier is None:
            raise ConfigurationError(
                "adaptive shaping needs a classifier (FCFS has no admission "
                "bound to actuate)"
            )
        self.config = config if config is not None else ControllerConfig()
        self.degraded = False
        self.degrades = 0
        self.recoveries = 0
        self._bad_streak = 0
        self._clean_streak = 0
        self._last_completed = driver.q1_completed
        self._last_missed = driver.q1_missed
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_degrades = metrics.counter("faults.ctl.degrades")
        self._m_recoveries = metrics.counter("faults.ctl.recoveries")
        self._g_limit = metrics.gauge("faults.ctl.limit")
        self._g_limit.set(self.classifier.limit)

    def install(self, sampler: Sampler) -> "AdaptiveShaper":
        """Ride ``sampler``'s tick cadence; returns self for chaining."""
        sampler.add_tick_hook(self.tick)
        return self

    # ------------------------------------------------------------------

    def window_miss_rate(self) -> float:
        """Miss rate of the window since the previous tick (consumes it)."""
        completed = self.driver.q1_completed
        missed = self.driver.q1_missed
        d_completed = completed - self._last_completed
        d_missed = missed - self._last_missed
        self._last_completed = completed
        self._last_missed = missed
        if d_completed > 0:
            return d_missed / d_completed
        # Nothing completed: a backlogged system going nowhere (crash,
        # hard brownout) is fully degraded; an idle one is healthy.
        return 1.0 if self.driver.scheduler.pending() > 0 else 0.0

    def tick(self, record: dict | None = None) -> None:
        """One control-loop step (sampler tick hook)."""
        miss_rate = self.window_miss_rate()
        if miss_rate >= self.config.enter_miss_rate:
            self._bad_streak += 1
            self._clean_streak = 0
            if self._bad_streak >= self.config.trip_ticks:
                self._degrade()
                self._bad_streak = 0
        elif miss_rate <= self.config.exit_miss_rate:
            self._clean_streak += 1
            self._bad_streak = 0
            if self.degraded and self._clean_streak >= self.config.clear_ticks:
                self._recover()
        else:
            # Dead band between the thresholds: streaks decay, mode holds.
            self._bad_streak = 0
            self._clean_streak = 0

    def _degrade(self) -> None:
        self.degraded = True
        before = self.classifier.limit
        shrunk = int(before * self.config.shrink)
        self.classifier.set_limit(max(self.config.min_limit, shrunk))
        self._g_limit.set(self.classifier.limit)
        shed_count = 0
        if self.config.shed_backlog is not None:
            shed = self.shed_from.scheduler.shed_overflow(self.config.shed_backlog)
            if shed:
                shed_count = len(shed)
                self.shed_from.record_shed(shed)
        # Only count actions that changed something: once the limit sits
        # at the floor (and there is nothing to shed), further bad
        # windows keep the mode degraded but are not new actions.
        if self.classifier.limit != before or shed_count:
            self.degrades += 1
            self._m_degrades.inc()

    def _recover(self) -> None:
        self.degraded = False
        self.recoveries += 1
        self._m_recoveries.inc()
        self._clean_streak = 0
        self.classifier.set_limit(self.classifier.planned_limit)
        self._g_limit.set(self.classifier.limit)
