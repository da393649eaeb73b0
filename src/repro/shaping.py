"""High-level workload shaping facade.

This module is the public entry point tying the pieces together the way
the paper's system does:

1. **Profile** the workload: find ``Cmin`` for a ``(fraction, delta)``
   QoS target (:class:`~repro.core.capacity.CapacityPlanner`).
2. **Decompose** it with RTT into guaranteed and overflow classes.
3. **Recombine and serve** under a policy — ``fcfs``, ``split``,
   ``fairqueue``, ``wf2q`` or ``miser`` — on a simulated server of
   capacity ``Cmin + delta_C``, measuring the response-time distribution.

Example
-------
>>> from repro.shaping import WorkloadShaper
>>> from repro.traces.library import openmail
>>> shaper = WorkloadShaper(delta=0.010, fraction=0.90)
>>> outcome = shaper.shape(openmail(duration=60.0))
>>> outcome.plan.cmin > 0
True
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

from .core.capacity import CapacityPlan, CapacityPlanner
from .core.rtt import DecompositionResult, decompose
from .core.workload import Workload
from .exceptions import ConfigurationError, SimulationError
from .obs.export import export_run
from .obs.registry import MetricsRegistry
from .obs.sampler import Sampler
from .perf import engines
from .record import RunRecord
from .sched.registry import ALL_POLICIES
from .server.aqm import resolve_aqm
from .sim import batch
from .sim.engine import Simulator
from .sim.source import WorkloadSource
from .stack import RunConfig, attach_sampler, build_stack

#: Planners kept strongly alive by a :class:`WorkloadShaper` (LRU).
PLANNER_CACHE_SIZE = 8


@dataclass(frozen=True)
class RunTelemetry:
    """Metrics and samples captured during one :func:`run_policy` call.

    Attributes
    ----------
    registry:
        The run's metric registry (counters/gauges/histograms, final
        values).
    samples:
        Periodic :class:`~repro.obs.sampler.Sampler` records — one dict
        per tick plus a final end-of-run snapshot.
    meta:
        Run configuration echoed into the trace's ``meta`` line.
    """

    registry: MetricsRegistry
    samples: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def export(self, path) -> int:
        """Write the JSONL trace (see :func:`repro.obs.export.export_run`)."""
        return export_run(path, self.registry, self.samples, meta=self.meta)


def run_policy(
    workload: Workload,
    policy: str,
    cmin: float | None = None,
    delta_c: float | None = None,
    delta: float | None = None,
    *,
    config: RunConfig | None = None,
) -> RunRecord:
    """Simulate serving ``workload`` under ``policy``; returns its record.

    Call as ``run_policy(workload, policy, config=RunConfig(...))``; the
    flat ``cmin``/``delta_c``/``delta`` positional form is shorthand for
    ``RunConfig(cmin, delta_c, delta)``.  Observability, rate recording,
    engine selection, admission mode and the device window are
    :class:`RunConfig` fields.

    The stack comes from :func:`repro.stack.build_stack` (capacity
    allocation per Section 4.3).  ``config.metrics`` threads a registry
    through the driver(s) and scheduler; ``config.sample_interval``
    additionally installs a periodic :class:`~repro.obs.sampler.Sampler`
    with the standard probe set.  Either one populates
    ``RunRecord.telemetry``.

    ``config.engine`` overrides the execution-engine selection of
    :mod:`repro.perf.engines` for this call: ``"scalar"`` forces the
    event loop, ``"batch"`` demands the columnar fast path (an error if
    the configuration is ineligible), and ``"auto"`` (the process
    default) takes the fast path exactly when the configuration
    qualifies — an FCFS or Split run with no observability attached —
    producing bit-identical samples either way (certified by
    :func:`repro.check.differential.engine_parity`).
    """
    if config is not None:
        if any(value is not None for value in (cmin, delta_c, delta)):
            raise ConfigurationError(
                "pass either config=RunConfig(...) or the flat capacities, "
                "not both"
            )
    elif cmin is None or delta_c is None or delta is None:
        raise ConfigurationError(
            "run_policy needs cmin, delta_c, and delta "
            "(directly or via config=RunConfig(...))"
        )
    else:
        config = RunConfig(cmin, delta_c, delta)
    # Resolve the effective window policy (aqm= argument, Registry
    # override, or REPRO_AQM) once, so engine eligibility, the armed
    # window, and the record can never disagree.
    aqm = resolve_aqm(config.aqm)
    requested = engines.resolve_engine(config.engine)
    record = None
    if requested != "scalar":
        if policy not in ALL_POLICIES:
            raise ConfigurationError(f"unknown policy {policy!r}")
        eligible, reason = batch.supports(
            policy,
            record_rates=config.record_rates,
            metrics=config.metrics,
            sample_interval=config.sample_interval,
            admission=config.admission,
            aqm=aqm,
        )
        if eligible:
            record = run_policy_batch(workload, policy, config)
        elif requested == "batch":
            raise ConfigurationError(
                f"engine 'batch' cannot run this configuration: {reason} "
                "(use engine='auto' to fall back to the event engine)"
            )
    if record is None:
        record = _run_policy_events(workload, policy, config)
    done = record.ledger["completed"]
    if done != len(workload):
        raise SimulationError(
            f"{policy}: {done} of {len(workload)} requests completed"
        )
    return record


def _run_policy_events(
    workload: Workload, policy: str, config: RunConfig
) -> RunRecord:
    """Event-engine path of :func:`run_policy`."""
    metrics = config.metrics
    sample_interval = config.sample_interval
    sim = Simulator()
    system = build_stack(sim, policy, config)
    sampler: Sampler | None = None
    if sample_interval is not None:
        # Periodic ticks cover the arrival window; the drain tail past
        # ``duration`` is captured by the final snapshot below.
        sampler, _ = attach_sampler(
            sim, system, sample_interval, until=workload.duration
        )

    source = WorkloadSource(sim, workload, system)
    source.start()
    sim.run()
    if sampler is not None:
        sampler.sample_now()

    telemetry: RunTelemetry | None = None
    if metrics is not None or sampler is not None:
        telemetry = RunTelemetry(
            registry=metrics if metrics is not None else system.metrics,
            samples=sampler.records if sampler is not None else [],
            meta={
                "policy": policy,
                "workload": workload.name,
                "requests": len(workload),
                "cmin": config.cmin,
                "delta_c": config.delta_c,
                "delta": config.delta,
                "duration": workload.duration,
                "sample_interval": sample_interval,
            },
        )
    return RunRecord.from_stack(
        system,
        policy,
        config,
        workload_name=workload.name,
        n_arrivals=len(workload),
        completion_series=(
            system.completion_rates.series()
            if config.record_rates is not None
            else None
        ),
        telemetry=telemetry,
    )


def run_policy_batch(
    workload: Workload, policy: str, config: RunConfig
) -> RunRecord:
    """The batch engine's record of one eligible configuration.

    Delegates the dynamics to :func:`repro.sim.batch.run_batch`; unlike
    :func:`run_policy` it does not insist every request completed, so
    :func:`~repro.check.differential.engine_parity` can report a lossy
    batch run as a divergence.  Sized workloads pass their demand column
    through (unit runs keep the seed-era call shape).
    """
    args = (workload.arrivals, policy, config.cmin, config.delta_c, config.delta)
    if workload.sizes is None:
        run = batch.run_batch(*args)
    else:
        run = batch.run_batch(*args, demands=workload.sizes)
    return RunRecord.from_batch(run, config, workload.name)


@dataclass(frozen=True)
class ShapingOutcome:
    """Plan + decomposition + (optional) simulated policy results."""

    plan: CapacityPlan
    decomposition: DecompositionResult
    runs: dict

    def run(self, policy: str) -> RunRecord:
        try:
            return self.runs[policy]
        except KeyError:
            raise ConfigurationError(
                f"policy {policy!r} was not simulated; have {sorted(self.runs)}"
            ) from None


class WorkloadShaper:
    """End-to-end shaping pipeline for one QoS target.

    Parameters
    ----------
    delta:
        Response-time bound of the guaranteed class (seconds).
    fraction:
        Fraction of requests to guarantee.
    delta_c:
        Overflow surplus capacity; defaults to the paper's ``1 / delta``.
    """

    def __init__(self, delta: float, fraction: float, delta_c: float | None = None):
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        if not 0 < fraction <= 1:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        self.delta = delta
        self.fraction = fraction
        self.delta_c = delta_c if delta_c is not None else 1.0 / delta
        # Weak cache + bounded strong LRU: a plain id()-keyed dict held
        # every planner (and via it every workload) forever, so shapers
        # used across many workloads grew without bound — and a recycled
        # id() could even alias a dead workload's entry.  The weak map
        # drops entries as soon as nothing keeps the planner alive; the
        # LRU pins the most recent PLANNER_CACHE_SIZE so memoization
        # still works for the common reuse patterns.
        self._planners: weakref.WeakValueDictionary[int, CapacityPlanner] = (
            weakref.WeakValueDictionary()
        )
        self._planner_lru: OrderedDict[int, CapacityPlanner] = OrderedDict()

    def planner(self, workload: Workload) -> CapacityPlanner:
        """Per-workload planner, memoized for the shaper's lifetime.

        Repeated :meth:`plan` / :meth:`decompose` / :meth:`shape` calls
        on the same workload then share the planner's cached RTT
        evaluations and bisection brackets.  At most
        :data:`PLANNER_CACHE_SIZE` planners are kept alive by the shaper
        itself; older ones fall out of the weak cache once no caller
        references them.
        """
        key = id(workload)
        planner = self._planners.get(key)
        if planner is None or planner.workload is not workload:
            planner = CapacityPlanner(workload, self.delta)
            self._planners[key] = planner
        self._planner_lru[key] = planner
        self._planner_lru.move_to_end(key)
        while len(self._planner_lru) > PLANNER_CACHE_SIZE:
            self._planner_lru.popitem(last=False)
        return planner

    def plan(self, workload: Workload) -> CapacityPlan:
        """Profile: the minimum-capacity provisioning decision."""
        return self.planner(workload).plan(self.fraction, delta_c=self.delta_c)

    def decompose(self, workload: Workload, cmin: float | None = None):
        """Split the workload at ``cmin`` (planned if not given)."""
        if cmin is None:
            cmin = self.plan(workload).cmin
        return decompose(workload, cmin, self.delta)

    def shape(
        self,
        workload: Workload,
        policies: tuple[str, ...] = ("miser",),
    ) -> ShapingOutcome:
        """Plan, decompose, and simulate the requested policies."""
        plan = self.plan(workload)
        decomposition = decompose(workload, plan.cmin, self.delta)
        runs = {
            policy: run_policy(workload, policy, plan.cmin, plan.delta_c, self.delta)
            for policy in policies
        }
        return ShapingOutcome(plan=plan, decomposition=decomposition, runs=runs)
