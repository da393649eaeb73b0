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
from ..stack import FaultPlan, Run, RunConfig
from .controller import ControllerConfig
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

    One :class:`~repro.stack.Run` serves it, for ``RunConfig(cmin,
    delta_c, delta, metrics=, sample_interval=, aqm=, aqm_shared=)``
    (validated there: e.g. ``aqm_shared`` without ``aqm`` is a
    :class:`~repro.exceptions.ConfigurationError`) with the fault plan
    ``(schedule, retry, inflight, seed)`` armed.  ``schedule`` drives the
    injector; ``retry`` arms the driver's timeout/retry path;
    ``adaptive=True`` installs an :class:`AdaptiveShaper` on the sampler
    cadence (``sample_interval`` defaults to ``delta`` when unset).  The
    conservation invariant is asserted before returning; a registry or
    sampler fills the record's ``telemetry``.

    ``aqm`` arms a driver-level in-flight window (:mod:`repro.server.
    aqm`): crash-requeues and retries then re-enter through the
    scheduler and must re-acquire a window slot — backpressure instead
    of instantaneous requeue.  The ledger gains a ``window`` residency
    bucket; a window not drained at end of run raises
    :class:`~repro.exceptions.SimulationError`.
    """
    run = Run(
        policy,
        RunConfig(
            cmin, delta_c, delta,
            metrics=metrics, sample_interval=sample_interval,
            aqm=aqm, aqm_shared=aqm_shared,
        ),
        FaultPlan(
            schedule if schedule is not None else FaultSchedule(),
            retry, inflight, seed,
        ),
        adaptive=adaptive,
        controller_config=controller_config,
    )
    return run.record(run.replay(workload), workload_name=workload.name)


def chaos_recipe(
    policy: str,
    delta: float,
    seed: int,
    horizon: float,
    crashes: int = 1,
    droops: int = 1,
    storms: int = 1,
) -> tuple[FaultSchedule, RetryPolicy, bool]:
    """The chaos suite's ``(schedule, retry, adaptive)`` for one run.

    A seeded schedule over ``[0, horizon]`` with one crash target per
    service unit; generous retries (timeouts ``10·delta`` for Q1 and
    ``40·delta`` for Q2, three attempts); and adaptive shaping for every
    policy with an admission bound to steer — not the classifier-free
    ones, nor splitfarm (its Q1 completions span both partitions).
    """
    schedule = random_schedule(
        seed,
        horizon=horizon,
        crashes=crashes,
        droops=droops,
        storms=storms,
        units=2 if policy in ("split", "splitfarm") else 1,
    )
    retry = RetryPolicy(
        timeout_q1=10 * delta,
        timeout_q2=40 * delta,
        max_retries=3,
        backoff_base=delta / 2,
    )
    adaptive = policy not in CLASSIFIER_FREE_POLICIES and policy != "splitfarm"
    return schedule, retry, adaptive


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

    The schedule, and the retry policy and ``adaptive`` choice when left
    unset, come from :func:`chaos_recipe`.
    """
    schedule, default_retry, default_adaptive = chaos_recipe(
        policy, delta, seed, workload.duration,
        crashes=crashes, droops=droops, storms=storms,
    )
    return run_resilient(
        workload,
        policy,
        cmin,
        delta_c,
        delta,
        schedule=schedule,
        retry=default_retry if retry is None else retry,
        adaptive=default_adaptive if adaptive is None else adaptive,
        controller_config=controller_config,
        seed=seed,
        metrics=metrics,
        aqm=aqm,
        aqm_shared=aqm_shared,
    )
