"""The one place the serving stack is built and run.

The paper's system is one pipeline: the online RTT classifier, a
recombiner (a single-server scheduler, or the Split topology), and a
server of capacity ``Cmin + ΔC``.  :func:`build_stack` assembles that
pipeline from one validated :class:`RunConfig`, and :class:`Run` runs
it: the simulator, the probe sampler and adaptive controller, the
conservation verdict and the :class:`~repro.record.RunRecord`.  Every
event-engine entry point — :func:`repro.shaping.run_policy`'s event
path, :func:`repro.faults.harness.run_resilient`,
:func:`repro.workload.closedloop.run_closed_loop`,
:class:`repro.serve.harness.ServiceHarness` and
:func:`repro.check.differential.run_checked` — makes a :class:`Run`,
starts its own traffic, finishes and records.  Variations are inputs,
not copies:

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
from itertools import chain
from typing import TYPE_CHECKING, Callable

from .core.request import QoSClass, Request
from .core.workload import Workload
from .exceptions import ConfigurationError, SimulationError
from .obs.registry import MetricsRegistry
from .obs.sampler import Sampler, attach_standard_probes
from .perf.engines import ENGINES
from .record import RunRecord, RunTelemetry
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
from .sim.source import WorkloadSource

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


class Run:
    """One run of one stack: :meth:`arm`, start traffic, :meth:`finish`,
    :meth:`record`.

    ``config`` carries the SLA ``delta``; ``effective_delta`` is the
    deadline the stack enforces when it differs (a placement latency
    charge).  ``adaptive=True`` steers the classifier's admission bound
    on the sampler's cadence with an
    :class:`~repro.faults.controller.AdaptiveShaper` (tuned by
    ``controller_config``); the sampling interval then defaults to the
    enforced deadline.
    """

    def __init__(
        self,
        policy: str,
        config: RunConfig,
        faults: FaultPlan | None = None,
        *,
        adaptive: bool = False,
        controller_config: "ControllerConfig | None" = None,
        wrap_scheduler: Callable[[Scheduler], Scheduler] | None = None,
        effective_delta: float | None = None,
    ):
        self.policy = policy
        #: The SLA configuration the record reports (``delta`` unreduced).
        self.config = config
        self.faults = faults
        self.effective_delta = config.delta
        if effective_delta is not None:
            self.effective_delta = effective_delta
            config = replace(config, delta=effective_delta)
        self.sim = Simulator()
        self.system = build_stack(self.sim, policy, config, faults, wrap_scheduler)
        if adaptive:
            if policy == "splitfarm":
                raise ConfigurationError(
                    "adaptive control is not supported for splitfarm: Q1 "
                    "completions span both size partitions, so no single "
                    "driver carries the controller's inputs"
                )
            if self.system.classifier is None:
                raise ConfigurationError(
                    f"policy {policy!r} has no admission bound to adapt (use a "
                    "classifying policy or adaptive=False)"
                )
        self.adaptive = adaptive
        self.controller_config = controller_config
        self.horizon = 0.0
        self.interval: float | None = None
        self.sampler: Sampler | None = None
        self.controller: "AdaptiveShaper | None" = None

    def arm(self, horizon: float) -> None:
        """Install the sampler (and controller) for arrivals ending at ``horizon``.

        Ticks stop at ``horizon``; with a fault plan armed they go on
        for 20 intervals past ``max(horizon, last_clear)`` so the
        controller can observe the post-fault recovery and restore the
        planned bound.  Call before the traffic starts.
        """
        self.horizon = horizon
        interval = self.config.sample_interval
        if interval is None and self.adaptive:
            interval = self.effective_delta
        if interval is None:
            return
        until = horizon
        if self.faults is not None:
            schedule = self.faults.schedule
            last_clear = schedule.last_clear if schedule is not None else 0.0
            until = max(horizon, last_clear) + 20 * interval
        self.interval = interval
        self.sampler = Sampler(self.sim, interval)
        attach_standard_probes(self.sampler, self.system)
        self.sampler.install(until=until)
        if self.adaptive:
            from .faults.controller import AdaptiveShaper

            self.controller = AdaptiveShaper(
                driver=self.system.loop_driver,
                classifier=self.system.classifier,
                config=self.controller_config,
                metrics=self.config.metrics,
                shed_from=self.system.demotion_target,
            ).install(self.sampler)

    def finish(self) -> None:
        """Run the clock dry and take the end-of-run sample."""
        self.sim.run()
        if self.sampler is not None:
            self.sampler.sample_now()

    def replay(self, workload: Workload) -> list[Request]:
        """Serve ``workload``'s arrivals to the end; returns the requests."""
        source = WorkloadSource(self.sim, workload, self.system)
        self.arm(workload.duration)
        source.start()
        self.finish()
        return source.requests

    def record(
        self,
        injected: list,
        *,
        workload_name: str,
        rejected: list | None = None,
        **optional,
    ) -> RunRecord:
        """Audit the finished run and return its :class:`RunRecord`.

        ``injected`` are the requests that entered the stack; ``rejected``
        those refused before it (the serving plane's door).  A
        fault-armed run, or one that could refuse (``rejected`` given),
        is audited by identity with
        :func:`~repro.faults.invariants.assert_conservation`, and no
        rejected request may turn up in a terminal bucket; any other run
        reports its count verdict through :meth:`RunRecord.conserved`.
        A device window still holding requests raises
        :class:`~repro.exceptions.SimulationError` on every run.
        ``optional`` fills the harness-specific record fields.
        """
        system, config, policy = self.system, self.config, self.policy
        conservation = None
        if self.faults is not None or rejected is not None:
            from .faults.invariants import assert_conservation

            conservation = assert_conservation(
                injected, system.completed, dropped=system.dropped, shed=system.shed
            )
            if rejected:
                terminal = {
                    id(r) for r in chain(system.completed, system.dropped, system.shed)
                }
                for request in rejected:
                    if id(request) in terminal:
                        raise SimulationError(
                            f"rejected request {request.index} leaked into the stack"
                        )
        ledger = dict(system.fault_ledger())
        if ledger.get("window", 0):
            raise SimulationError(
                f"{policy}: window not drained at end of run "
                f"({ledger['window']} requests still resident)"
            )
        rejected = list(rejected or ())
        n_arrivals = len(injected) + len(rejected)
        telemetry = None
        if config.metrics is not None or self.sampler is not None:
            telemetry = RunTelemetry(
                registry=system.metrics if config.metrics is None else config.metrics,
                samples=self.sampler.records if self.sampler is not None else [],
                meta={
                    "policy": policy,
                    "workload": workload_name,
                    "requests": n_arrivals,
                    "cmin": config.cmin,
                    "delta_c": config.delta_c,
                    "delta": config.delta,
                    "duration": self.horizon,
                    "sample_interval": self.interval,
                },
            )
        controller = self.controller
        classifier = system.classifier
        by_class = system.by_class
        return RunRecord(
            policy=policy,
            workload_name=workload_name,
            cmin=config.cmin,
            delta_c=config.delta_c,
            delta=config.delta,
            effective_delta=self.effective_delta,
            n_arrivals=n_arrivals,
            overall=system.overall,
            primary=by_class[QoSClass.PRIMARY],
            overflow=by_class[QoSClass.OVERFLOW],
            primary_misses=system.primary_deadline_misses(),
            ledger=ledger,
            completed=system.completed,
            dropped=system.dropped,
            shed=system.shed,
            rejected=rejected,
            admission=config.admission,
            aqm=config.aqm,
            window=system.window_snapshot(),
            demotions=system.demotions,
            failovers=system.failovers,
            final_limit=classifier.limit if classifier is not None else None,
            completion_series=(
                system.completion_rates.series()
                if config.record_rates is not None
                else None
            ),
            telemetry=telemetry,
            schedule=self.faults.schedule if self.faults is not None else None,
            conservation=conservation,
            degrades=controller.degrades if controller is not None else None,
            recoveries=controller.recoveries if controller is not None else None,
            **optional,
        )
