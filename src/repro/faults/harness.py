"""Fault-tolerant serving harness: the shaping stack in a world that breaks.

:func:`run_resilient` serves a workload on the stack
:func:`repro.stack.build_stack` builds for the policy — same capacity
allocation, same policies as :func:`repro.shaping.run_policy` — with a
:class:`~repro.stack.FaultPlan` armed: crash-capable
:class:`~repro.faults.server.FaultableServer` units behind
:class:`~repro.faults.injector.FaultyModel` s, a
:class:`~repro.faults.injector.FaultInjector` turning the
:class:`~repro.faults.schedule.FaultSchedule` into simulator events,
optional driver-level timeout/retry, and an optional
:class:`~repro.faults.controller.AdaptiveShaper` closing the loop from
miss rate back to ``maxQ1``.  After every run the conservation
invariant is asserted: each arrival completed, was shed, or was dropped
exactly once.

With an empty schedule, no retry policy, and no controller, the run is
bit-identical to :func:`run_policy` on the same workload — the chaos
machinery is structurally dormant (``benchmarks/bench_faults.py`` keeps
the <5% overhead promise honest).

:func:`run_chaos` derives a randomized schedule from a seed and runs
the full resilient stack — the unit of the chaos suite in CI.
"""

from __future__ import annotations

from ..core.workload import Workload
from ..obs.registry import MetricsRegistry
from ..sched.registry import CLASSIFIER_FREE_POLICIES
from ..record import RunRecord
from ..sim.engine import Simulator
from ..sim.source import WorkloadSource
from ..stack import FaultPlan, RunConfig, attach_sampler, build_stack, require_adaptable
from .controller import ControllerConfig
from .invariants import assert_conservation
from .retry import RetryPolicy
from .schedule import FaultSchedule, random_schedule

#: Policies the resilience experiment compares (the paper's four
#: recombiners; the classifier-free FCFS baseline cannot adapt).
RESILIENCE_POLICIES = ("fcfs", "split", "fairqueue", "miser")


def run_resilient(
    workload: Workload,
    policy: str,
    cmin: float,
    delta_c: float,
    delta: float,
    schedule: FaultSchedule | None = None,
    retry: RetryPolicy | None = None,
    adaptive: bool = False,
    controller_config: ControllerConfig | None = None,
    inflight: str = "requeue",
    seed: int = 0,
    sample_interval: float | None = None,
    metrics: MetricsRegistry | None = None,
    aqm: str | None = None,
    aqm_shared: bool = False,
) -> RunRecord:
    """Serve ``workload`` under ``policy`` on a fault-injected stack.

    The stack is :func:`~repro.stack.build_stack`'s for
    ``RunConfig(cmin, delta_c, delta, metrics=, aqm=, aqm_shared=)``
    (validated there: e.g. ``aqm_shared`` without ``aqm`` is a
    :class:`~repro.exceptions.ConfigurationError`) with the fault plan
    ``(schedule, retry, inflight, seed)`` armed.  ``schedule`` drives the
    injector; ``retry`` arms the driver's timeout/retry path;
    ``adaptive=True`` installs an :class:`AdaptiveShaper` on the sampler
    cadence (``sample_interval`` defaults to ``delta`` when unset).  The
    conservation invariant is asserted before returning.

    ``aqm`` arms a driver-level in-flight window (:mod:`repro.server.
    aqm`): crash-requeues and retries then re-enter through the
    scheduler and must re-acquire a window slot — backpressure instead
    of instantaneous requeue.  The ledger gains a ``window`` residency
    bucket, asserted drained (zero) at end of run.
    """
    config = RunConfig(
        cmin, delta_c, delta, metrics=metrics, aqm=aqm, aqm_shared=aqm_shared
    )
    schedule = schedule if schedule is not None else FaultSchedule()
    sim = Simulator()
    system = build_stack(
        sim, policy, config, FaultPlan(schedule, retry, inflight, seed)
    )
    sampler = controller = None
    if adaptive:
        require_adaptable(policy, system)
    if adaptive or sample_interval is not None:
        interval = sample_interval if sample_interval is not None else delta
        # Keep ticking past the arrival window so the controller can
        # observe the post-fault recovery and restore the planned bound.
        sampler, controller = attach_sampler(
            sim,
            system,
            interval,
            until=max(workload.duration, schedule.last_clear) + 20 * interval,
            adaptive=adaptive,
            controller_config=controller_config,
            metrics=metrics,
        )

    source = WorkloadSource(sim, workload, system)
    source.start()
    sim.run()
    if sampler is not None:
        sampler.sample_now()

    conservation = assert_conservation(
        source.requests,
        system.completed,
        dropped=system.dropped,
        shed=system.shed,
    )
    record = RunRecord.from_stack(
        system,
        policy,
        config,
        workload_name=workload.name,
        n_arrivals=len(source.requests),
        schedule=schedule,
        conservation=conservation,
        degrades=controller.degrades if controller is not None else None,
        recoveries=controller.recoveries if controller is not None else None,
        samples=sampler.records if sampler is not None else [],
    )
    residue = record.ledger.get("window", 0)
    if residue:
        raise AssertionError(
            f"{policy}: window not drained at end of run "
            f"({residue} requests still resident)"
        )
    return record


def run_chaos(
    workload: Workload,
    policy: str,
    cmin: float,
    delta_c: float,
    delta: float,
    seed: int,
    crashes: int = 1,
    droops: int = 1,
    storms: int = 1,
    retry: RetryPolicy | None = None,
    adaptive: bool | None = None,
    controller_config: ControllerConfig | None = None,
    metrics: MetricsRegistry | None = None,
    aqm: str | None = None,
    aqm_shared: bool = False,
) -> RunRecord:
    """One chaos-suite run: derive a schedule from ``seed`` and go.

    ``adaptive`` defaults to True for every adaptable classifying policy
    and False for the classifier-free ones (FCFS/SRPT/Nudge/Boost have
    no admission bound to steer) and for splitfarm (its Q1 completions
    span both partitions).  The retry policy defaults to generous
    per-class timeouts (``10·delta`` for Q1, ``40·delta`` for Q2) with
    three retries.
    """
    schedule = random_schedule(
        seed,
        horizon=workload.duration,
        crashes=crashes,
        droops=droops,
        storms=storms,
        units=2 if policy in ("split", "splitfarm") else 1,
    )
    if retry is None:
        retry = RetryPolicy(
            timeout_q1=10 * delta,
            timeout_q2=40 * delta,
            max_retries=3,
            backoff_base=delta / 2,
        )
    if adaptive is None:
        adaptive = policy not in CLASSIFIER_FREE_POLICIES and policy != "splitfarm"
    return run_resilient(
        workload,
        policy,
        cmin,
        delta_c,
        delta,
        schedule=schedule,
        retry=retry,
        adaptive=adaptive,
        controller_config=controller_config,
        seed=seed,
        metrics=metrics,
        aqm=aqm,
        aqm_shared=aqm_shared,
    )
