"""Periodic state sampling: the time-series half of the metrics plane.

Counters say *how much*; the :class:`Sampler` says *when*.  It rides the
simulation clock (:meth:`repro.sim.engine.Simulator.every`) and, each
tick, evaluates a set of named probe callables into one record — queue
depths, classifier occupancy, Miser's ``min_slack``, server busy state —
producing exactly the internal time series the paper's Figures 2/4/6
summarize from the outside.

:func:`attach_standard_probes` wires the conventional probe set for a
:class:`~repro.server.driver.DeviceDriver` or
:class:`~repro.server.cluster.SplitSystem` by duck typing, so new system
topologies opt in by exposing the same attributes.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.slack import is_unconstrained
from ..exceptions import ConfigurationError
from ..sim.engine import Simulator


class Sampler:
    """Snapshots named probes into a time series on a fixed period.

    Parameters
    ----------
    sim:
        The simulation engine providing the clock.
    interval:
        Sampling period in simulated seconds.
    """

    def __init__(self, sim: Simulator, interval: float):
        if interval <= 0:
            raise ConfigurationError(
                f"sampling interval must be positive, got {interval}"
            )
        self.sim = sim
        self.interval = interval
        self._probes: dict[str, Callable[[], float | None]] = {}
        self._tick_hooks: list[Callable[[dict], None]] = []
        #: One dict per tick: ``{"t": <time>, <probe>: <value>, ...}``.
        self.records: list[dict] = []

    def probe(self, name: str, fn: Callable[[], float | None]) -> None:
        """Register ``fn`` to be evaluated as column ``name`` each tick."""
        if name == "t":
            raise ConfigurationError('probe name "t" is reserved')
        if name in self._probes:
            raise ConfigurationError(f"probe {name!r} already registered")
        self._probes[name] = fn

    @property
    def probe_names(self) -> tuple[str, ...]:
        return tuple(self._probes)

    def add_tick_hook(self, fn: Callable[[dict], None]) -> None:
        """Run ``fn(record)`` after each snapshot is taken.

        Tick hooks are the sampler's *reactive* side: unlike probes they
        may mutate system state (the adaptive shaping controller lives
        here), so they run after the record is captured — each record
        reflects the state the hook reacted *to*, not the state it
        produced.
        """
        self._tick_hooks.append(fn)

    def sample_now(self) -> dict:
        """Take one snapshot immediately (also used by the periodic tick)."""
        record: dict = {"t": self.sim.now}
        for name, fn in self._probes.items():
            record[name] = fn()
        self.records.append(record)
        for hook in self._tick_hooks:
            hook(record)
        return record

    def install(self, until: float) -> None:
        """Arm periodic sampling from now until ``until`` (simulated s)."""
        self.sim.every(self.interval, self.sample_now, until=until)

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` arrays of one probe (None sampled as NaN)."""
        if name not in self._probes:
            raise ConfigurationError(f"unknown probe {name!r}")
        times = np.array([r["t"] for r in self.records], dtype=np.float64)
        values = np.array(
            [float("nan") if r[name] is None else float(r[name]) for r in self.records],
            dtype=np.float64,
        )
        return times, values


def _scheduler_probes(sampler: Sampler, scheduler, prefix: str = "") -> None:
    """Probes common to every :class:`~repro.sched.base.Scheduler`."""
    sampler.probe(f"{prefix}queue_depth", scheduler.pending)
    for key in scheduler.class_backlog():
        sampler.probe(
            f"{prefix}backlog_{key}",
            lambda key=key: scheduler.class_backlog().get(key, 0),
        )
    classifier = getattr(scheduler, "classifier", None)
    if classifier is not None:
        sampler.probe(f"{prefix}len_q1", lambda: classifier.len_q1)
    if hasattr(scheduler, "min_slack"):
        def min_slack() -> float | None:
            slack = scheduler.min_slack
            return None if is_unconstrained(slack) else slack

        sampler.probe(f"{prefix}min_slack", min_slack)


def _driver_probes(sampler: Sampler, driver, prefix: str = "") -> None:
    """Server occupancy plus the driver's own counters as columns.

    The counter columns let each sample be checked against the event
    counts at that instant (see :func:`depth_reconciles`).
    """
    sampler.probe(f"{prefix}server_busy", lambda: float(driver.server.busy))
    sampler.probe(
        f"{prefix}server_busy_fraction", lambda: driver.server.utilization()
    )
    registry = driver.metrics
    if registry.enabled:
        for short in (
            "arrivals", "reentries", "dispatches", "completions", "deadline_misses"
        ):
            name = f"{driver.metrics_prefix}.{short}"
            sampler.probe(
                f"{prefix}{short}", lambda name=name: registry.value(name)
            )
        shed = f"faults.{driver.metrics_prefix}.shed"
        sampler.probe(f"{prefix}shed", lambda: registry.value(shed))
    window = getattr(driver, "window", None)
    if window is not None:
        sampler.probe(
            f"{prefix}aqm_depth",
            lambda: -1.0 if window.depth is None else float(window.depth),
        )
        sampler.probe(f"{prefix}aqm_occupancy", lambda: float(window.occupancy))
        sampler.probe(f"{prefix}aqm_sojourn", lambda: window.last_sojourn)
        sampler.probe(
            f"{prefix}aqm_device_queued",
            lambda: float(len(driver._device_queue)),
        )
        if registry.enabled:
            withdrawals = f"{driver.metrics_prefix}.withdrawals"
            sampler.probe(
                f"{prefix}aqm_withdrawals", lambda: registry.value(withdrawals)
            )


def attach_standard_probes(sampler: Sampler, system) -> Sampler:
    """Wire the conventional probe set for ``system``.

    ``system`` is anything speaking the topology protocol of
    :mod:`repro.stack` — a lone :class:`~repro.server.driver.
    DeviceDriver` (unprefixed columns) or a two-driver topology (columns
    prefixed by its ``labels``, e.g. ``q1_``/``q2_``, plus a front-end
    ``len_q1``).  A wrapper carrying its serving stack in a ``system``
    attribute — e.g. :class:`repro.serve.harness.ServiceHarness` — is
    unwrapped first, so the whole control plane can be probed directly.
    Returns the sampler for chaining.
    """
    while not hasattr(system, "drivers") and hasattr(system, "system"):
        system = system.system
    drivers = getattr(system, "drivers", None)
    if drivers is None:
        raise ConfigurationError(
            f"don't know how to probe {type(system).__name__}: expected a "
            "driver or a topology exposing `drivers`"
        )
    prefixes = (
        ("",) if len(drivers) == 1 else tuple(f"{label}_" for label in system.labels)
    )
    for driver, prefix in zip(drivers, prefixes):
        _scheduler_probes(sampler, driver.scheduler, prefix=prefix)
    for driver, prefix in zip(drivers, prefixes):
        _driver_probes(sampler, driver, prefix=prefix)
    classifier = system.classifier
    if len(drivers) > 1 and classifier is not None:
        sampler.probe("len_q1", lambda: classifier.len_q1)
    return sampler


def depth_reconciles(records: Sequence[dict], prefix: str = "") -> bool:
    """Invariant check: sampled depth equals the scheduler's inflow minus
    its outflow.

    Holds for every sample carrying the counter columns of one driver;
    used by tests and by ``--metrics`` consumers as a trace sanity check.
    Requests enter the scheduler by arriving or by re-entering after a
    preemption, a crash requeue or a timeout (``reentries``), and leave
    it by dispatch or by being shed (``shed``).  With an AQM window
    armed, requests staged in the device queue have left the scheduler
    but not yet started service, and a timeout may withdraw one from
    there before it does, so the identity is ``queue_depth = arrivals +
    reentries - dispatches - shed - device_queued - withdrawals``.
    Columns a trace does not carry count as zero.
    """
    keys = (f"{prefix}queue_depth", f"{prefix}arrivals", f"{prefix}dispatches")
    optional = tuple(
        f"{prefix}{key}"
        for key in ("reentries", "shed", "aqm_device_queued", "aqm_withdrawals")
    )
    for record in records:
        if not set(keys) <= record.keys():
            continue
        reentries, shed, staged, withdrawn = (
            record.get(key, 0) or 0 for key in optional
        )
        inflow = record[keys[1]] + reentries
        outflow = record[keys[2]] + shed + staged + withdrawn
        if record[keys[0]] != inflow - outflow:
            return False
    return True
