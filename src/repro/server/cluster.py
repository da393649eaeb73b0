"""Split topology: overflow offloaded to a separate physical server.

The paper's ``Split`` recombiner sends ``Q1`` to the main server (capacity
``Cmin``) and ``Q2`` to a dedicated secondary server (capacity
``delta_C``) — in the spirit of Everest-style write off-loading.  The two
servers cannot share capacity: if one idles while the other is backlogged,
that capacity is wasted, which is exactly the effect Section 4.3 measures
against FairQueue and Miser.

Fault tolerance: when built with crash-capable units (``unit_factory``
producing :class:`~repro.faults.server.FaultableServer`), the front end
fails over — an arrival whose dedicated server is down is routed to the
surviving server (a ``Q1`` arrival is demoted to ``Q2`` first, releasing
its admission slot, since the overflow server carries no guarantee).
Routing decisions and failovers are surfaced as ``split.*`` counters.

:class:`TwoDriverTopology` is the front-end-plus-two-drivers skeleton
this module shares with :class:`~repro.server.sizesplit.SizeSplitSystem`:
the classifier, the windows, and every end-of-run view aggregated over
``drivers``.
"""

from __future__ import annotations

from typing import Callable

from ..core.request import QoSClass, Request
from ..exceptions import ConfigurationError
from ..obs.registry import NULL_REGISTRY, MetricsRegistry
from ..sched.classifier import OnlineRTTClassifier
from ..sched.fcfs import FCFSScheduler
from ..sim.engine import Simulator
from ..sim.stats import ResponseTimeCollector
from .aqm import make_window
from .base import Server
from .constant_rate import ConstantRateModel
from .driver import DeviceDriver

#: Unit constructor ``(sim, model, name=...) -> Server`` — the convention
#: of :class:`~repro.server.farm.ServerFarm`'s ``unit_factory``.
UnitFactory = Callable[..., Server]


class TwoDriverTopology:
    """A classifying front end over two :class:`DeviceDriver` s.

    Subclasses build ``drivers`` — the loop driver (whose primary-class
    tallies feed the adaptive controller) first, the demotion target
    (where demoted and sheddable overflow work lands) second — and route
    arrivals in ``on_arrival``.  Everything else, the reporting surface
    matching :class:`DeviceDriver`'s included, is defined here once.
    """

    #: Driver names: metric prefixes (``<label>.driver``), window
    #: snapshot keys, and sampler probe prefixes.
    labels: tuple[str, str]
    #: Arrivals routed away from their dedicated server (Split only).
    failovers = 0

    def __init__(
        self,
        sim: Simulator,
        cmin: float,
        delta: float,
        metrics: MetricsRegistry | None,
        admission: str,
        aqm: str | None,
        aqm_shared: bool,
    ):
        self.sim = sim
        self.delta = delta
        # Count mode keeps the seed-era two-argument construction so test
        # doubles that replace the classifier's __init__ keep working.
        if admission == "count":
            self.classifier = OnlineRTTClassifier(cmin, delta)
        else:
            self.classifier = OnlineRTTClassifier(cmin, delta, mode=admission)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.aqm = aqm
        self.aqm_shared = bool(aqm_shared)
        self._shared_window = make_window(aqm, delta) if self.aqm_shared else None

    def _driver(self, label: str, server: Server, retry) -> DeviceDriver:
        """One side's driver: slot-releasing FCFS, own or shared window."""
        return DeviceDriver(
            self.sim,
            server,
            _SlotReleasingFCFS(self.classifier, f"{label}.fcfs"),
            metrics=self.metrics,
            metrics_prefix=f"{label}.driver",
            retry=retry,
            classifier=self.classifier,
            window=(
                self._shared_window
                if self.aqm_shared
                else make_window(self.aqm, self.delta)
            ),
        )

    # ------------------------------------------------------------------
    # Topology protocol
    # ------------------------------------------------------------------

    @property
    def loop_driver(self) -> DeviceDriver:
        return self.drivers[0]

    @property
    def demotion_target(self) -> DeviceDriver:
        return self.drivers[1]

    @property
    def servers(self) -> list[Server]:
        """Every service unit, loop side first (fault-injection targets)."""
        return [unit for driver in self.drivers for unit in driver.servers]

    @property
    def demotions(self) -> int:
        return sum(driver.demotions for driver in self.drivers)

    def add_completion_hook(self, hook) -> None:
        """Register ``hook(request)`` on both drivers.

        Whichever server completes a request, the hook fires exactly once
        — the observation point closed-loop sources need.
        """
        for driver in self.drivers:
            driver.add_completion_hook(hook)

    # ------------------------------------------------------------------
    # Aggregated views matching DeviceDriver's reporting surface
    # ------------------------------------------------------------------

    @property
    def completed(self) -> list[Request]:
        first, second = self.drivers
        return first.completed + second.completed

    @property
    def dropped(self) -> list[Request]:
        first, second = self.drivers
        return first.dropped + second.dropped

    @property
    def shed(self) -> list[Request]:
        first, second = self.drivers
        return first.shed + second.shed

    @property
    def q1_completed(self) -> int:
        return sum(driver.q1_completed for driver in self.drivers)

    @property
    def q1_missed(self) -> int:
        return sum(driver.q1_missed for driver in self.drivers)

    def _merged(self, label: str, pick) -> ResponseTimeCollector:
        merged = ResponseTimeCollector(label)
        for driver in self.drivers:
            merged.extend(pick(driver).samples)
        return merged

    def _merged_class(self, qos: QoSClass, label: str) -> ResponseTimeCollector:
        return self._merged(label, lambda driver: driver.by_class[qos])

    @property
    def overall(self) -> ResponseTimeCollector:
        return self._merged("overall", lambda driver: driver.overall)

    def fraction_within(self, bound: float) -> float:
        """Completed-weighted compliance across both drivers.

        Empty drivers contribute zero weight rather than polluting the
        average with their NaN ``fraction_within`` (an empty collector
        has no compliance to report — see ``repro.sim.stats``).
        """
        total = sum(len(driver.completed) for driver in self.drivers)
        if total == 0:
            return float("nan")
        hits = sum(
            driver.overall.fraction_within(bound) * len(driver.completed)
            for driver in self.drivers
            if driver.completed
        )
        return hits / total

    def primary_deadline_misses(self) -> int:
        return sum(driver.primary_deadline_misses() for driver in self.drivers)

    def fault_ledger(self) -> dict[str, int]:
        """Aggregated conservation buckets across both drivers.

        Per-driver ``window`` residency sums correctly even for a shared
        window (each driver counts only its own residents).
        """
        ledger = {
            "completed": len(self.completed),
            "dropped": len(self.dropped),
            "shed": len(self.shed),
        }
        if self.aqm is not None:
            ledger["window"] = sum(d._window_resident for d in self.drivers)
        return ledger

    def window_snapshot(self) -> dict | None:
        """Window statistics (one dict when shared, per-driver otherwise)."""
        if self.aqm is None:
            return None
        if self.aqm_shared:
            return self.drivers[0].window_snapshot()
        return {
            label: driver.window_snapshot()
            for label, driver in zip(self.labels, self.drivers)
        }


class SplitSystem(TwoDriverTopology):
    """Front end routing RTT classes to two independent servers.

    Parameters
    ----------
    sim:
        Simulation engine shared by both servers.
    cmin:
        Primary server capacity (also the classifier's decomposition
        capacity).
    delta_c:
        Secondary (overflow) server capacity.
    delta:
        Primary-class response-time bound.
    metrics:
        Optional registry shared by the front end and both drivers; the
        drivers emit under ``q1.driver`` / ``q2.driver`` and the front
        end counts routing decisions as ``split.routed_q1`` / ``_q2``.
    unit_factory:
        Constructor ``(sim, model, name=...) -> Server`` for the two
        servers; defaults to :class:`~repro.server.base.Server`.
        :func:`repro.stack.build_stack` passes one building
        :class:`~repro.faults.server.FaultableServer` units when a fault
        plan is armed.
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` handed to both
        drivers (timeout/retry semantics as in
        :class:`~repro.server.driver.DeviceDriver`).
    admission:
        Classifier admission mode: ``"count"`` (the paper's bound) or
        ``"work"`` (cumulative admitted demand bounded by ``C·δ``) — see
        :class:`~repro.sched.classifier.OnlineRTTClassifier`.
    aqm:
        Optional in-flight window policy name (see
        :mod:`repro.server.aqm`).  ``None`` (default) leaves both device
        queues unbounded-free — the historical dispatch path.
    aqm_shared:
        When true, both drivers share one window (a single device budget
        for the whole split pair, floored at the sum of their service
        concurrencies); default is a per-driver window each.
    """

    labels = ("q1", "q2")

    def __init__(
        self,
        sim: Simulator,
        cmin: float,
        delta_c: float,
        delta: float,
        metrics: MetricsRegistry | None = None,
        unit_factory: UnitFactory = Server,
        retry=None,
        admission: str = "count",
        aqm: str | None = None,
        aqm_shared: bool = False,
    ):
        if delta_c <= 0:
            raise ConfigurationError(
                f"Split needs a positive overflow capacity, got {delta_c}"
            )
        super().__init__(sim, cmin, delta, metrics, admission, aqm, aqm_shared)
        self.primary_driver = self._driver(
            "q1", unit_factory(sim, ConstantRateModel(cmin), name="primary"), retry
        )
        self.overflow_driver = self._driver(
            "q2", unit_factory(sim, ConstantRateModel(delta_c), name="overflow"), retry
        )
        self.drivers = (self.primary_driver, self.overflow_driver)
        self._m_routed_q1 = self.metrics.counter("split.routed_q1")
        self._m_routed_q2 = self.metrics.counter("split.routed_q2")
        self._m_failovers = self.metrics.counter("split.failovers")
        self.failovers = 0

    @staticmethod
    def _down(driver: DeviceDriver) -> bool:
        return getattr(driver.server, "down", False)

    def on_arrival(self, request: Request) -> None:
        """Classify, then route to the class's dedicated server.

        If that server is down and the other is up, fail over: a ``Q1``
        arrival is demoted (slot released) before taking the overflow
        path; a ``Q2`` arrival simply borrows the primary server.  With
        both servers down, the request queues at its dedicated driver
        and waits for repair.
        """
        qos = self.classifier.classify(request)
        if qos is QoSClass.PRIMARY:
            self._m_routed_q1.inc()
            if self._down(self.primary_driver) and not self._down(self.overflow_driver):
                self.failovers += 1
                self._m_failovers.inc()
                self.classifier.on_completion(request)
                request.classify(QoSClass.OVERFLOW)
                self.overflow_driver.on_arrival(request)
            else:
                self.primary_driver.on_arrival(request)
        else:
            self._m_routed_q2.inc()
            if self._down(self.overflow_driver) and not self._down(self.primary_driver):
                self.failovers += 1
                self._m_failovers.inc()
                self.primary_driver.on_arrival(request)
            else:
                self.overflow_driver.on_arrival(request)

    @property
    def by_class(self) -> dict[QoSClass, ResponseTimeCollector]:
        if self.failovers == 0:
            return {
                QoSClass.PRIMARY: self.primary_driver.by_class[QoSClass.PRIMARY],
                QoSClass.OVERFLOW: self.overflow_driver.by_class[QoSClass.OVERFLOW],
            }
        # Failovers may land either class on either server: merge.
        return {
            QoSClass.PRIMARY: self._merged_class(QoSClass.PRIMARY, "Q1"),
            QoSClass.OVERFLOW: self._merged_class(QoSClass.OVERFLOW, "Q2"),
        }


class _SlotReleasingFCFS(FCFSScheduler):
    """FCFS that releases the classifier's Q1 slot on completion.

    Each side gets a distinct ``name`` so its ``sched.<name>.*`` counters
    stay apart in a shared registry.
    """

    def __init__(self, classifier: OnlineRTTClassifier, name: str):
        super().__init__()
        self.name = name
        self._classifier = classifier

    def on_completion(self, request: Request) -> None:
        if request.qos_class is QoSClass.PRIMARY:
            self._classifier.on_completion(request)
        self._note_completion(request)
