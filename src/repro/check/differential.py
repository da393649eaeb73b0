"""Differential verification: one trace, every implementation, must agree.

Three layers of cross-checking, mirroring where the repo has redundant
implementations of the same semantics:

1. **Kernels** (:func:`kernel_parity`): the scalar, numpy and native
   RTT kernels must produce identical per-batch admission counts, and
   the batched sweep must match one kernel pass per capacity.  The
   exact-Fraction :func:`repro.core.rtt.decompose_exact` arbitrates.
2. **Server models** (:func:`fcfs_lindley_check`,
   :func:`disk_comparability_check`): the event-driven simulator must
   reproduce the closed-form Lindley recursion for a constant-rate FCFS
   queue, and a mechanical-disk server configured to degenerate to a
   constant service time must agree with the constant-rate model.
3. **Policies** (:func:`run_checked` / :func:`differential_policies`):
   every recombination policy serves the same trace behind a
   :class:`~repro.check.invariants.CheckingScheduler` auditing the
   per-policy invariant catalog, plus outcome-level checks (all
   requests complete, Split's dedicated ``Q1`` server never misses).
4. **Runs** (:func:`engine_parity`, :func:`serve_parity`): the batch
   engine and the online serving plane must reproduce the event
   engine's :class:`~repro.record.RunRecord` under
   :func:`~repro.record.compare_records`.

All entry points *record* problems into report objects rather than
raising, so a single run surfaces every disagreement; the ``repro-check``
CLI and the test suite fail on any non-clean report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from ..core.rtt import decompose, decompose_exact, decompose_fluid
from ..core.workload import Workload
from ..exceptions import ConfigurationError
from ..perf import kernels, scalar
from ..sched.registry import make_scheduler
from ..server.base import Server
from ..server.constant_rate import ConstantRateModel
from ..server.disk import DiskModel, DiskParameters
from ..sim.engine import Simulator
from ..sim.source import WorkloadSource
from ..server.driver import DeviceDriver
from ..record import ParityReport, RunRecord, compare_records
from ..shaping import run_policy, run_policy_batch
from ..stack import TOPOLOGIES, RunConfig, build_stack
from .invariants import CheckingScheduler, Violation

#: Policies the differential harness exercises by default: the four
#: recombiners of the paper, the EDF and WF²Q+ extensions, and the
#: size-aware family (SRPT/Nudge/Boost plus the SPLIT-style farm).
DEFAULT_POLICIES = (
    "fcfs",
    "split",
    "fairqueue",
    "wf2q",
    "miser",
    "edf",
    "srpt",
    "nudge",
    "boost",
    "splitfarm",
)


@dataclass(frozen=True)
class KernelParityReport:
    """Cross-backend agreement on one ``(trace, capacity, delta)``."""

    capacity: float
    delta: float
    backends: tuple[str, ...]
    counts: dict
    divergences: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.ok:
            return (
                f"kernel parity OK across {list(self.backends)}: "
                f"admitted={next(iter(self.counts.values()))}"
            )
        return "kernel parity VIOLATED: " + "; ".join(self.divergences)


def kernel_parity(
    workload: Workload,
    capacity: float,
    delta: float,
    backends: tuple[str, ...] | None = None,
    exact: bool = True,
) -> KernelParityReport:
    """Run every kernel backend over one trace and compare outputs.

    Checks, for each available backend: ``count_admitted`` equals the
    sum of ``admitted_per_batch``; per-batch arrays are identical across
    backends; ``count_admitted_sweep`` at ``[capacity]`` matches the
    single-capacity count.  With ``exact=True`` the float consensus is
    additionally arbitrated against the Fraction-arithmetic
    :func:`~repro.core.rtt.decompose_exact`.
    """
    if backends is None:
        backends = kernels.available_backends()
    instants, counts = np.unique(workload.arrivals, return_counts=True)
    divergences: list[str] = []
    per_batch: dict[str, np.ndarray] = {}
    totals: dict[str, int] = {}
    for name in backends:
        k = np.asarray(
            kernels.admitted_per_batch(instants, counts, capacity, delta, backend=name)
        )
        total = int(kernels.count_admitted(instants, counts, capacity, delta, backend=name))
        sweep = kernels.count_admitted_sweep(
            instants, counts, [capacity], delta, backend=name
        )
        per_batch[name] = k
        totals[name] = total
        if total != int(k.sum()):
            divergences.append(
                f"{name}: count_admitted={total} != per-batch sum {int(k.sum())}"
            )
        if int(sweep[0]) != total:
            divergences.append(
                f"{name}: sweep[{capacity:g}]={int(sweep[0])} != count {total}"
            )
    reference = backends[0]
    for name in backends[1:]:
        if not np.array_equal(per_batch[reference], per_batch[name]):
            where = np.nonzero(per_batch[reference] != per_batch[name])[0]
            divergences.append(
                f"{reference} vs {name}: per-batch admission differs at "
                f"batch indices {where[:5].tolist()}"
            )
    if exact:
        exact_admitted = decompose_exact(workload, capacity, delta).n_admitted
        for name, total in totals.items():
            if total != exact_admitted:
                divergences.append(
                    f"{name}: admitted {total} != exact-Fraction {exact_admitted}"
                )
    return KernelParityReport(
        capacity=float(capacity),
        delta=float(delta),
        backends=tuple(backends),
        counts=totals,
        divergences=tuple(divergences),
    )


def exact_mask_audit(
    workload: Workload, capacity: float, delta: float, mask: np.ndarray
) -> tuple[Fraction, int]:
    """Worst exact deadline overshoot of an admission mask, in seconds.

    Replays the admitted sub-stream through the discrete recurrence in
    pure :class:`~fractions.Fraction` arithmetic and returns ``(worst
    overshoot, index)`` where overshoot is ``finish - (arrival +
    delta)`` maximized over admitted requests (negative when every
    deadline is met with margin) and ``index`` is the request attaining
    it (-1 for an empty admitted set).
    """
    cap = Fraction(capacity)
    dl = Fraction(delta)
    service = 1 / cap
    finish = Fraction(0)
    worst = Fraction(-(1 << 62))  # effectively -inf, stays a Fraction
    worst_index = -1
    for i, t_float in enumerate(workload.arrivals):
        if not mask[i]:
            continue
        t = Fraction(float(t_float))
        finish = (finish if finish > t else t) + service
        overshoot = finish - (t + dl)
        if overshoot > worst:
            worst = overshoot
            worst_index = i
    return worst, worst_index


def decomposition_cross_check(
    workload: Workload, capacity: float, delta: float
) -> list[str]:
    """Model-relation checks between the decomposition implementations.

    Returns human-readable problem strings (empty means all good):

    * float and exact-Fraction admission *counts* are equal — both
      greedy rules are optimal, so a count drift is a logic bug;
    * the float mask is *feasible* under exact arithmetic up to the
      kernels' documented tie tolerance (``EPS`` room-units, i.e.
      ``EPS / C`` seconds) — the float path may round a knife-edge tie
      permissively, but must never admit a request that genuinely
      misses;
    * where the float and exact masks pick different requests, the
      divergence must sit at a certified sub-EPS knife edge (the two
      greedy rules only split when they disagree about a feasibility
      margin finer than float noise);
    * the fluid model admits at least the discrete count, and masks are
      internally consistent.
    """
    problems: list[str] = []
    discrete = decompose(workload, capacity, delta)
    exact = decompose_exact(workload, capacity, delta)
    fluid = decompose_fluid(workload, capacity, delta)
    tolerance = Fraction(scalar.EPS) / Fraction(capacity)  # seconds
    if discrete.n_admitted != exact.n_admitted:
        problems.append(
            f"float admitted {discrete.n_admitted} but exact-Fraction "
            f"admitted {exact.n_admitted} (both are optimal counts; "
            f"they must agree)"
        )
    worst, worst_index = exact_mask_audit(
        workload, capacity, delta, discrete.admitted
    )
    if worst > tolerance:
        problems.append(
            f"float mask admits request {worst_index} which misses its "
            f"deadline by {float(worst):.3e}s under exact arithmetic "
            f"(tolerance {float(tolerance):.3e}s)"
        )
    if not np.array_equal(discrete.admitted, exact.admitted):
        # Legal only at a sub-EPS knife edge: at the first divergence
        # the shared prefix is identical, so the float path admitted a
        # request the exact path rejected (or vice versa) on a margin
        # finer than the tolerance.  The mask audit above already
        # certifies the float choice is feasible-within-tolerance; here
        # certify the margin really was a knife edge.
        first = int(np.nonzero(discrete.admitted != exact.admitted)[0][0])
        prefix = discrete.admitted.copy()
        prefix[first + 1 :] = False
        prefix[first] = True
        margin, _ = exact_mask_audit(workload, capacity, delta, prefix)
        if abs(margin) > tolerance:
            problems.append(
                f"float vs Fraction masks diverge at request {first} with "
                f"exact margin {float(margin):.3e}s — outside the "
                f"{float(tolerance):.3e}s knife-edge tolerance"
            )
    if fluid.n_admitted < discrete.n_admitted:
        problems.append(
            f"fluid model admitted {fluid.n_admitted} < discrete "
            f"{discrete.n_admitted} (partial service can only help)"
        )
    for result, label in ((discrete, "discrete"), (fluid, "fluid")):
        if result.n_admitted + result.n_overflow != len(workload):
            problems.append(f"{label}: admitted + overflow != total")
    return problems


# ---------------------------------------------------------------------------
# Server-model differentials
# ---------------------------------------------------------------------------


def fcfs_lindley_check(
    workload: Workload, capacity: float, atol: float = 1e-9
) -> list[str]:
    """Event-driven FCFS simulation vs the closed-form Lindley recursion.

    For an FCFS queue with constant service ``s = 1/C`` the finish time
    of the ``k``-th request has the closed form ``s*(k+1) +
    max_{j<=k}(a_j - s*j)``.  The simulator must reproduce it exactly
    (up to float noise) — any drift is an engine bug (event ordering,
    double dispatch) that policy-level statistics would average away.
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    problems: list[str] = []
    arrivals = workload.arrivals
    if arrivals.size == 0:
        return problems
    # Pin the event engine: under REPRO_ENGINE=auto run_policy would take
    # the columnar path, which is itself Lindley-based — the check would
    # compare the recurrence with itself instead of with the simulator.
    result = run_policy(
        workload, "fcfs", config=RunConfig(capacity, 0.0, delta=1.0, engine="scalar")
    )
    s = 1.0 / capacity
    k = np.arange(arrivals.size)
    finish = s * (k + 1) + np.maximum.accumulate(arrivals - s * k)
    expected = finish - arrivals
    observed = np.sort(result.overall.samples)
    if observed.size != expected.size:
        problems.append(
            f"lindley: {observed.size} completions for {expected.size} arrivals"
        )
        return problems
    expected = np.sort(expected)
    worst = float(np.max(np.abs(observed - expected)))
    if worst > atol:
        problems.append(
            f"lindley: simulated FCFS response times drift {worst:.3e} "
            f"from the closed form (atol {atol:.0e})"
        )
    return problems


def disk_comparability_check(
    workload: Workload,
    capacity: float,
    delta: float,
    policy: str = "fcfs",
    atol: float = 1e-5,
) -> list[str]:
    """Constant-rate server vs a degenerate mechanical disk.

    A :class:`~repro.server.disk.DiskModel` with zero seek, vanishing
    rotation and near-infinite transfer rate collapses to a constant
    per-request service of ``controller_overhead`` seconds — i.e. a
    constant-rate server of ``1/overhead`` IOPS.  Served through the
    same scheduler, the two stacks must agree on every response time
    (to within the sub-nanosecond rotation jitter).  This pins the
    driver/scheduler plumbing to the service-*model* boundary: a bug
    that leaks model internals into scheduling order breaks it.

    The default policy is FCFS because its dispatch order is a pure
    function of arrival order: the comparison then depends only on the
    service model.  Tie-sensitive policies (Miser's slack test, EDF's
    deadline order) can legitimately reorder whole grid steps when the
    disk's sub-nanosecond rotation jitter lands on an exact decision
    boundary, so they make poor comparability probes.
    """
    problems: list[str] = []
    service = 1.0 / capacity
    params = DiskParameters(
        seek_min=0.0,
        seek_max=0.0,
        rotation_time=1e-12,
        transfer_rate=1e18,
        controller_overhead=service,
    )

    def completed_responses(model_factory) -> np.ndarray:
        sim = Simulator()
        scheduler = make_scheduler(policy, capacity, 0.0, delta)
        server = Server(sim, model_factory(), name=f"{policy}-diff")
        driver = DeviceDriver(sim, server, scheduler)
        WorkloadSource(sim, workload, driver).start()
        sim.run()
        if len(driver.completed) != len(workload):
            problems.append(
                f"disk-comparability[{policy}]: {len(driver.completed)} of "
                f"{len(workload)} completed"
            )
        return np.array(sorted(r.response_time for r in driver.completed))

    baseline = completed_responses(lambda: ConstantRateModel(capacity))
    disk = completed_responses(lambda: DiskModel(params, seed=0))
    if baseline.size == disk.size and baseline.size:
        worst = float(np.max(np.abs(baseline - disk)))
        if worst > atol:
            problems.append(
                f"disk-comparability[{policy}]: response times drift "
                f"{worst:.3e} from the constant-rate model (atol {atol:.0e})"
            )
    return problems


# ---------------------------------------------------------------------------
# Execution-engine differential
# ---------------------------------------------------------------------------


#: Policies with a columnar kernel — the engine-parity surface.
ENGINE_PARITY_POLICIES = ("fcfs", "split")


def engine_parity(
    workload: Workload,
    cmin: float,
    delta_c: float,
    delta: float,
    policies: tuple[str, ...] = ENGINE_PARITY_POLICIES,
    atol: float = scalar.EPS,
) -> ParityReport:
    """Certify the batch engine against the event engine on one trace.

    For every batch-eligible policy, both engines serve the same trace
    and their records go through :func:`~repro.record.compare_records`:
    the admitted set bit for bit, per-index response times within
    ``atol`` (the kernel EPS; the engines are in fact bit-identical and
    the report records whether that stronger property held), the
    conservation ledger, and the primary deadline-miss counts.

    This is the ``engine_parity`` differential backing the
    ``REPRO_ENGINE=auto`` transparent dispatch; ``repro-check
    --differential`` fuzzes it over adversarial traces.
    """
    from ..sim import batch

    config = RunConfig(cmin, delta_c, delta)
    reports, found = [], []
    for policy in policies:
        eligible, reason = batch.supports(policy)
        if not eligible:
            found.append(f"{policy}: not batch-eligible ({reason})")
            continue
        reference = run_policy(workload, policy, config=config.with_engine("scalar"))
        candidate = run_policy_batch(workload, policy, config)
        reports.append(compare_records(reference, candidate, atol))
    return ParityReport.merge(
        "engine parity", workload.name, policies, reports, found
    )


# ---------------------------------------------------------------------------
# Serve differential: the online control plane vs the offline simulator
# ---------------------------------------------------------------------------


def serve_parity(
    workload: Workload,
    cmin: float,
    delta_c: float,
    delta: float,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    chunks: int = 4,
    atol: float = scalar.EPS,
) -> ParityReport:
    """Certify serve ≡ simulate on one trace.

    For every policy, the trace is replayed twice — once through
    ``run_policy``'s event engine and once through the online
    :class:`~repro.serve.harness.ServiceHarness` in ``chunks`` audited
    epochs (the live admission service predicting each classification)
    — and the two records must agree under
    :func:`~repro.record.compare_records`.  Any predict-then-verify
    violation or rejection inside the harness is a divergence too.  The
    topologies need a positive overflow capacity, so with
    ``delta_c == 0`` they are skipped (recorded in ``policies``, not
    silently dropped).
    """
    from ..serve.harness import ServiceHarness

    config = RunConfig(cmin, delta_c, delta, engine="scalar")
    reports, found, checked = [], [], []
    for policy in policies:
        if policy in TOPOLOGIES and delta_c <= 0:
            continue
        checked.append(policy)
        offline = run_policy(workload, policy, config=config)
        served = ServiceHarness(policy, cmin, delta_c, delta).replay(
            workload, chunks=chunks
        )
        if served.violations:
            found.append(
                f"{policy}: {len(served.violations)} admission predictions "
                f"contradicted the classifier (first: {served.violations[0]})"
            )
        if served.rejected:
            found.append(
                f"{policy}: parity replay rejected {len(served.rejected)} "
                "requests (reject path must be unarmed)"
            )
        reports.append(compare_records(offline, served, atol))
    return ParityReport.merge("serve parity", workload.name, checked, reports, found)


# ---------------------------------------------------------------------------
# Policy differential
# ---------------------------------------------------------------------------


def run_checked(
    workload: Workload,
    policy: str,
    cmin: float,
    delta_c: float,
    delta: float,
) -> RunRecord:
    """Serve ``workload`` under ``policy`` with the invariant auditor on.

    The stack is :func:`~repro.stack.build_stack`'s, with every
    single-server scheduler wrapped in a
    :class:`~repro.check.invariants.CheckingScheduler`.  The topologies
    run fixed FCFS pairs with no policy scheduler to wrap, so each is
    held to its outcome-level guarantee instead: Split's dedicated
    ``cmin`` server means **zero** primary deadline misses; the
    size-threshold farm must conserve every request and route honestly
    (every completion on the small partition had demand at or below the
    threshold, every large-side completion above it).  The audit's
    findings are the record's ``violations``; ``record.ok`` is the
    verdict.
    """
    checkers: list[CheckingScheduler] = []

    def audited(scheduler):
        checkers.append(CheckingScheduler(scheduler))
        return checkers[-1]

    config = RunConfig(cmin, delta_c, delta)
    sim = Simulator()
    system = build_stack(sim, policy, config, wrap_scheduler=audited)
    WorkloadSource(sim, workload, system).start()
    sim.run()
    record = RunRecord.from_stack(
        system, policy, config, workload_name=workload.name,
        n_arrivals=len(workload),
    )
    violations: list[Violation] = [v for c in checkers for v in c.violations]
    completed = record.completed
    if len({id(r) for r in completed}) != len(completed):
        violations.append(
            Violation(
                invariant="completion-uniqueness",
                policy=policy,
                detail="a request completed more than once",
                time=float("nan"),
            )
        )
    primary_misses = record.primary_misses
    if policy == "split" and primary_misses:
        violations.append(
            Violation(
                invariant="split-q1-guarantee",
                policy=policy,
                detail=(
                    f"{primary_misses} primary misses on a "
                    f"dedicated rate-{cmin:g} server"
                ),
                time=float("nan"),
            )
        )
    if policy == "splitfarm":
        ledger = record.ledger
        if ledger["dropped"] or ledger["shed"]:
            violations.append(
                Violation(
                    invariant="splitfarm-conservation",
                    policy=policy,
                    detail=f"healthy run lost requests: {ledger}",
                    time=float("nan"),
                )
            )
        for driver, small in zip(system.drivers, (True, False)):
            for request in driver.completed:
                if system.is_small(request) != small:
                    violations.append(
                        Violation(
                            invariant="splitfarm-routing",
                            policy=policy,
                            detail=(
                                f"demand {request.service_demand} completed on "
                                f"the {driver.server.name} partition "
                                f"(threshold {system.threshold})"
                            ),
                            time=float(request.completion),
                        )
                    )
    return replace(record, violations=tuple(violations))


@dataclass(frozen=True)
class DifferentialReport:
    """All policies x one trace, with every recorded problem."""

    workload_name: str
    cmin: float
    delta_c: float
    delta: float
    runs: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.runs.values())

    def all_problems(self) -> list[str]:
        out = []
        for run in self.runs.values():
            if not run.conserved():
                out.append(
                    f"{run.policy}: completed {len(run.completed)} of "
                    f"{run.n_arrivals}"
                )
            out.extend(str(v) for v in run.violations)
        return out

    def summary(self) -> str:
        if self.ok:
            return (
                f"differential OK: {len(self.runs)} policies agree on "
                f"{self.workload_name}"
            )
        return "differential VIOLATED: " + "; ".join(self.all_problems())


def differential_policies(
    workload: Workload,
    cmin: float,
    delta_c: float,
    delta: float,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
) -> DifferentialReport:
    """Serve one trace under every policy with the auditors on.

    Every policy must complete the whole stream; the per-policy
    invariant catalog runs inside each :func:`run_checked` record.
    """
    return DifferentialReport(
        workload_name=workload.name,
        cmin=cmin,
        delta_c=delta_c,
        delta=delta,
        runs={
            policy: run_checked(workload, policy, cmin, delta_c, delta)
            for policy in policies
        },
    )
