"""The one place the serving stack is built.

The paper's system is one pipeline: the online RTT classifier, a
recombiner (a single-server scheduler, or the Split topology), and a
server of capacity ``Cmin + ΔC``.  :func:`build_stack` assembles that
pipeline for every run layer — :func:`repro.shaping.run_policy`'s event
path, :func:`repro.faults.harness.run_resilient`,
:func:`repro.workload.closedloop.run_closed_loop`,
:class:`repro.serve.harness.ServiceHarness` and the differential checks
in :mod:`repro.check.differential` — from one validated
:class:`RunConfig`.  Variations are inputs, not copies:

* the **policy** picks the topology: a :class:`~repro.server.driver.
  DeviceDriver` around :func:`~repro.sched.registry.make_scheduler`, or
  one of :data:`TOPOLOGIES`;
* a **fault plan** (:class:`FaultPlan`) only swaps the unit factory for
  crash-capable :class:`~repro.faults.server.FaultableServer` units and
  installs a :class:`~repro.faults.injector.FaultInjector`;
* a **scheduler decorator** (e.g. the differential harness's
  :class:`~repro.check.invariants.CheckingScheduler`) wraps the
  single-server scheduler.

Whatever comes back speaks one protocol: ``drivers``, ``loop_driver``
(whose primary-class tallies feed the adaptive controller),
``demotion_target`` (the driver demoted and sheddable work lands on),
``servers`` (fault-injection targets), ``demotions``, ``failovers``,
``classifier``, plus the reporting surface (``completed``, ``overall``,
``by_class``, ``fault_ledger()``, ``window_snapshot()``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from .exceptions import ConfigurationError
from .obs.registry import MetricsRegistry
from .obs.sampler import Sampler, attach_standard_probes
from .perf.engines import ENGINES
from .sched.base import Scheduler
from .sched.registry import SINGLE_SERVER_POLICIES, make_scheduler
from .server.aqm import AQM_POLICIES, make_window
from .server.base import Server
from .server.cluster import SplitSystem
from .server.constant_rate import ConstantRateModel
from .server.driver import DeviceDriver
from .server.sizesplit import SizeSplitSystem
from .sim.engine import Simulator
from .sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> stack)
    from .faults.controller import AdaptiveShaper, ControllerConfig
    from .faults.retry import RetryPolicy
    from .faults.schedule import FaultSchedule

#: Policies served by a multi-driver topology instead of one scheduler.
TOPOLOGIES = {"split": SplitSystem, "splitfarm": SizeSplitSystem}


@dataclass(frozen=True)
class RunConfig:
    """Complete, validated configuration of one serving stack.

    Consolidates the capacity plan, observability options, engine
    selection, admission mode and device window into one value that can
    be stored, hashed into experiment manifests, and passed around whole:

    >>> run_policy(workload, "split", config=RunConfig(3.0, 2.0, 0.5))

    Attributes
    ----------
    cmin, delta_c, delta:
        The capacity plan: decomposition capacity, overflow surplus, and
        the primary-class response-time bound.
    record_rates:
        Completion-rate bin width in seconds (single-server only);
        ``None`` disables rate recording.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` threaded
        through driver and scheduler.
    sample_interval:
        Period of the standard probe sampler; ``None`` disables it.
    engine:
        Pins the execution engine for this run (``"scalar"`` or
        ``"batch"``); ``None`` or ``"auto"`` takes the batch engine
        exactly when :func:`repro.sim.batch.supports` the run.
    admission:
        Classifier admission mode: ``"count"`` (the paper's
        ``lenQ1 < floor(C·δ)``) or ``"work"`` (cumulative admitted
        ``service_demand`` bounded by ``C·δ``).
    aqm:
        In-flight window policy bounding the device queue between
        scheduler and server — one of
        :data:`repro.server.aqm.AQM_POLICIES` (``"unbounded"``,
        ``"static"``, ``"codel"``, ``"adaptive"``).  ``None`` (default)
        means no device queue at all: the historical dispatch path,
        bit-identical to pre-AQM builds.
    aqm_shared:
        For the two-driver topologies (``split``/``splitfarm``): share a
        single window across both drivers instead of one each.  Ignored
        by single-server policies.
    """

    cmin: float
    delta_c: float
    delta: float
    record_rates: float | None = None
    metrics: MetricsRegistry | None = None
    sample_interval: float | None = None
    engine: str | None = None
    admission: str = "count"
    aqm: str | None = None
    aqm_shared: bool = False

    def __post_init__(self) -> None:
        if self.cmin <= 0 or self.delta_c < 0 or self.delta <= 0:
            raise ConfigurationError(
                f"bad configuration: cmin={self.cmin}, "
                f"delta_c={self.delta_c}, delta={self.delta}"
            )
        if self.admission not in ("count", "work"):
            raise ConfigurationError(
                f"unknown admission mode {self.admission!r}; "
                "choose from ['count', 'work']"
            )
        if self.engine not in (None, "auto", *ENGINES):
            raise ConfigurationError(
                f"unknown execution engine {self.engine!r}; "
                f"choose from {sorted(('auto', *ENGINES))} or None"
            )
        if self.aqm is not None and self.aqm not in AQM_POLICIES:
            raise ConfigurationError(
                f"unknown aqm window policy {self.aqm!r}; "
                f"choose from {sorted(AQM_POLICIES)} or None"
            )
        if self.aqm_shared and self.aqm is None:
            raise ConfigurationError("aqm_shared requires an aqm policy")

    def with_engine(self, engine: str | None) -> "RunConfig":
        """A copy selecting a different execution engine."""
        return replace(self, engine=engine)


@dataclass(frozen=True)
class FaultPlan:
    """What arms the fault plane on a stack.

    ``schedule`` drives the injector (``None``: an empty schedule — the
    stack is crash-capable but nothing breaks); ``retry`` arms driver
    timeouts and retries; ``inflight`` is the in-service disposition on
    a crash (``"requeue"`` or ``"drop"``); ``seed`` roots every unit's
    spike stream via ``derive_seed(seed, "faults.server", unit_name)``.
    """

    schedule: "FaultSchedule | None" = None
    retry: "RetryPolicy | None" = None
    inflight: str = "requeue"
    seed: int = 0


def build_stack(
    sim: Simulator,
    policy: str,
    config: RunConfig,
    faults: FaultPlan | None = None,
    wrap_scheduler: Callable[[Scheduler], Scheduler] | None = None,
):
    """Build the serving stack ``policy`` names, ready for arrivals.

    Capacity allocation follows Section 4.3: the total provisioned
    capacity is always ``cmin + delta_c``.  Single-server policies run
    their scheduler on one ``cmin + delta_c`` server; Split dedicates
    ``cmin`` to ``Q1`` and ``delta_c`` to ``Q2``; the size-split farm
    partitions the total rate by request size.

    ``faults`` arms the fault plane: every service unit becomes a
    :class:`~repro.faults.server.FaultableServer` over a
    :class:`~repro.faults.injector.FaultyModel`, the drivers get the
    plan's retry policy, and the plan's schedule is installed on ``sim``
    before this returns.  ``wrap_scheduler`` decorates the single-server
    scheduler (the topologies run fixed FCFS pairs and ignore it).
    """
    retry = faults.retry if faults is not None else None
    if faults is None:
        unit_factory = Server
    else:
        from .faults.injector import FaultState, FaultyModel
        from .faults.server import FaultableServer

        state = FaultState()

        def unit_factory(sim_, model, name):
            return FaultableServer(
                sim_,
                FaultyModel(
                    model, state, seed=derive_seed(faults.seed, "faults.server", name)
                ),
                name=name,
                inflight=faults.inflight,
            )

    topology = TOPOLOGIES.get(policy)
    if topology is not None:
        if config.record_rates is not None:
            raise ConfigurationError("rate recording is single-server only")
        system = topology(
            sim,
            config.cmin,
            config.delta_c,
            config.delta,
            metrics=config.metrics,
            unit_factory=unit_factory,
            retry=retry,
            admission=config.admission,
            aqm=config.aqm,
            aqm_shared=config.aqm_shared,
        )
    elif policy in SINGLE_SERVER_POLICIES:
        scheduler = make_scheduler(
            policy, config.cmin, config.delta_c, config.delta,
            admission=config.admission,
        )
        if wrap_scheduler is not None:
            scheduler = wrap_scheduler(scheduler)
        system = DeviceDriver(
            sim,
            unit_factory(sim, ConstantRateModel(config.cmin + config.delta_c), name=policy),
            scheduler,
            record_rates=config.record_rates,
            metrics=config.metrics,
            retry=retry,
            window=make_window(config.aqm, config.delta),
        )
    else:
        raise ConfigurationError(f"unknown policy {policy!r}")

    if faults is not None:
        from .faults.injector import FaultInjector
        from .faults.schedule import FaultSchedule

        FaultInjector(
            sim,
            faults.schedule if faults.schedule is not None else FaultSchedule(),
            servers=system.servers,
            state=state,
            metrics=config.metrics,
        ).install()
    return system


def require_adaptable(policy: str, system) -> None:
    """Raise unless the adaptive controller can steer ``system``."""
    if policy == "splitfarm":
        raise ConfigurationError(
            "adaptive control is not supported for splitfarm: Q1 "
            "completions span both size partitions, so no single "
            "driver carries the controller's inputs"
        )
    if system.classifier is None:
        raise ConfigurationError(
            f"policy {policy!r} has no admission bound to adapt (use a "
            "classifying policy or adaptive=False)"
        )


def attach_sampler(
    sim: Simulator,
    system,
    interval: float,
    until: float,
    adaptive: bool = False,
    controller_config: "ControllerConfig | None" = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[Sampler, "AdaptiveShaper | None"]:
    """Install the standard probe sampler, ticking until ``until``.

    Each caller passes its own horizon: the arrival window for plain
    runs, or past the last fault clearing for chaos runs so the
    controller can observe recovery.  ``adaptive=True`` also installs an
    :class:`~repro.faults.controller.AdaptiveShaper` on the sampler's
    cadence, reading ``system.loop_driver`` and shedding from
    ``system.demotion_target``.
    """
    sampler = Sampler(sim, interval)
    attach_standard_probes(sampler, system)
    sampler.install(until=until)
    controller = None
    if adaptive:
        from .faults.controller import AdaptiveShaper

        controller = AdaptiveShaper(
            driver=system.loop_driver,
            classifier=system.classifier,
            config=controller_config,
            metrics=metrics,
            shed_from=system.demotion_target,
        ).install(sampler)
    return sampler, controller
