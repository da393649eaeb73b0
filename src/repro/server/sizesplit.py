"""SPLIT-style size-threshold dispatch over a partitioned server farm.

Li, Harchol-Balter & Scheller-Wolf's SPLIT family (PAPERS.md) protects
the tail in multiserver systems by *partitioning* the farm: small jobs
get their own servers so they never queue behind a large job's long
service, while large jobs keep dedicated capacity instead of being
starved.  :class:`SizeSplitSystem` is that dispatcher grafted onto this
repo's shaping stack:

* a front end routes every arrival by ``service_demand`` against a fixed
  ``threshold`` — at most one queue is ever polluted by large services;
* each side is a :class:`~repro.server.farm.ServerFarm` slice of the
  total capacity ``Cmin + ΔC`` (``small_share`` to the small side);
* the RTT classifier still stamps ``Q1`` deadlines and admission slots,
  so the graduated-QoS accounting (deadline misses, per-class response
  times) stays comparable with the paper's policies — but *placement* is
  by size, not by class, which is exactly the SPLIT-vs-decomposition
  contrast the ``tailbakeoff`` experiment measures.

The aggregation surface (``completed`` / ``overall`` / ``fault_ledger`` /
``add_completion_hook`` / ...) is :class:`~repro.server.cluster.
TwoDriverTopology`'s, shared with the paper's Split, so the run layer and
the closed-loop source drive either topology unchanged.
"""

from __future__ import annotations

from ..core.request import QoSClass, Request
from ..exceptions import ConfigurationError
from ..obs.registry import MetricsRegistry
from ..sim.engine import Simulator
from ..sim.stats import ResponseTimeCollector
from .base import Server
from .cluster import TwoDriverTopology, UnitFactory
from .farm import constant_rate_farm


class SizeSplitSystem(TwoDriverTopology):
    """Front end routing small/large requests to partitioned farms.

    Parameters
    ----------
    sim:
        Simulation engine shared by both partitions.
    cmin, delta_c, delta:
        Decomposition capacity, extra capacity, and the primary-class
        response bound — the classifier still runs RTT admission on
        ``cmin``/``delta`` exactly as the single-server policies do; the
        farm partitions split the *total* rate ``cmin + delta_c``.
    threshold:
        Demand cutoff: requests with ``service_demand <= threshold`` are
        small.  Default 2.0 matches
        :class:`~repro.sched.sized.NudgeScheduler`.
    small_share:
        Fraction of the total capacity given to the small partition.
    units_per_side:
        Service units in each partition's farm.
    metrics:
        Optional registry; the drivers emit under ``small.driver`` /
        ``large.driver`` and the front end counts ``splitfarm.routed_*``.
    unit_factory:
        Constructor ``(sim, model, name=...) -> Server`` for each farm
        unit (named ``small[i]`` / ``large[i]``); defaults to
        :class:`~repro.server.base.Server`.
    retry:
        Optional retry policy handed to both drivers.
    admission:
        Classifier admission mode (``"count"`` or ``"work"``).
    aqm:
        Optional in-flight window policy name (:mod:`repro.server.aqm`);
        ``None`` keeps the historical unbuffered dispatch path.
    aqm_shared:
        Share one window across both partitions (floored at the sum of
        their farm concurrencies) instead of one window per partition.
    """

    labels = ("small", "large")

    def __init__(
        self,
        sim: Simulator,
        cmin: float,
        delta_c: float,
        delta: float,
        threshold: float = 2.0,
        small_share: float = 0.5,
        units_per_side: int = 1,
        metrics: MetricsRegistry | None = None,
        unit_factory: UnitFactory = Server,
        retry=None,
        admission: str = "count",
        aqm: str | None = None,
        aqm_shared: bool = False,
    ):
        total = cmin + delta_c
        if total <= 0:
            raise ConfigurationError(
                f"splitfarm needs positive total capacity, got {total}"
            )
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be positive, got {threshold}")
        if not 0.0 < small_share < 1.0:
            raise ConfigurationError(
                f"small_share must be in (0, 1), got {small_share}"
            )
        super().__init__(sim, cmin, delta, metrics, admission, aqm, aqm_shared)
        self.threshold = threshold
        self.small_share = small_share
        # Primary requests land on either side (placement is by size), so
        # *both* schedulers release the classifier's Q1 slot.
        self.small_driver = self._driver(
            "small",
            constant_rate_farm(
                sim, small_share * total, units_per_side, "small", unit_factory
            ),
            retry,
        )
        self.large_driver = self._driver(
            "large",
            constant_rate_farm(
                sim, (1.0 - small_share) * total, units_per_side, "large", unit_factory
            ),
            retry,
        )
        self.drivers = (self.small_driver, self.large_driver)
        self._m_routed_small = self.metrics.counter("splitfarm.routed_small")
        self._m_routed_large = self.metrics.counter("splitfarm.routed_large")
        self.routed_small = 0
        self.routed_large = 0

    def is_small(self, request: Request) -> bool:
        return request.service_demand <= self.threshold

    def on_arrival(self, request: Request) -> None:
        """Classify for QoS accounting, then place by size."""
        self.classifier.classify(request)
        if self.is_small(request):
            self.routed_small += 1
            self._m_routed_small.inc()
            self.small_driver.on_arrival(request)
        else:
            self.routed_large += 1
            self._m_routed_large.inc()
            self.large_driver.on_arrival(request)

    @property
    def by_class(self) -> dict[QoSClass, ResponseTimeCollector]:
        # Classes mix on both sides by design: always merge.
        return {
            QoSClass.PRIMARY: self._merged_class(QoSClass.PRIMARY, "Q1"),
            QoSClass.OVERFLOW: self._merged_class(QoSClass.OVERFLOW, "Q2"),
            QoSClass.UNCLASSIFIED: self._merged_class(QoSClass.UNCLASSIFIED, "all"),
        }
