"""One run, one record: the outcome every run layer reports.

The paper judges a configuration by one outcome — the response-time
distribution, the fraction within ``delta``, and the ``Q1`` deadline
misses (Figures 5–8).  :class:`RunRecord` is that outcome, returned by
``run_policy`` (both engines), ``run_resilient``/``run_chaos``,
``run_closed_loop``, :class:`~repro.serve.harness.ServiceHarness` and
``run_checked``.  :meth:`RunRecord.from_stack` reads a finished
:func:`repro.stack.build_stack` stack, :meth:`RunRecord.from_batch` a
:class:`repro.sim.batch.BatchRun`; outputs only one harness produces
are optional fields.

The per-arrival-index columns ``responses`` and ``admitted`` are derived
on first access from data the run already holds (request lists or batch
arrays), so recording costs the run path nothing.
:func:`compare_records` is the single comparator behind
``engine_parity``, ``serve_parity`` and the healthy-path identity tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .core.request import QoSClass
from .core.workload import Workload
from .exceptions import ConfigurationError
from .server.aqm import resolve_aqm
from .sim.stats import ResponseTimeCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults.invariants import ConservationReport
    from .faults.schedule import FaultSchedule
    from .shaping import RunTelemetry
    from .sim.batch import BatchRun
    from .stack import RunConfig


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Measured outcome of serving one arrival stream under one policy.

    Attributes
    ----------
    policy, workload_name, cmin, delta_c, delta:
        The run configuration (``delta`` is the SLA deadline).
    effective_delta:
        The deadline the stack enforced (``delta`` less any placement
        latency charge): the default bound of every compliance view.
    n_arrivals:
        Requests that entered the run; columns index ``range(n_arrivals)``.
    overall, primary, overflow:
        Response-time collectors (empty per-class ones without a
        classifier).
    ledger:
        Conservation buckets exactly as the stack's ``fault_ledger()``
        reports them (plus ``window`` residency when a window was armed).
    completed, dropped, shed, rejected:
        Requests per terminal state (``rejected`` never entered the
        stack); empty for batch-engine records, which hold columns.
    violations:
        Problems the run's own auditors recorded: predict-then-verify
        mismatches (serving plane) or invariant breaches (``run_checked``).
    """

    policy: str
    workload_name: str
    cmin: float
    delta_c: float
    delta: float
    effective_delta: float
    n_arrivals: int
    overall: ResponseTimeCollector
    primary: ResponseTimeCollector
    overflow: ResponseTimeCollector
    primary_misses: int
    ledger: dict
    completed: list = field(repr=False, default_factory=list)
    dropped: list = field(repr=False, default_factory=list)
    shed: list = field(repr=False, default_factory=list)
    rejected: list = field(repr=False, default_factory=list)
    #: Execution engine that produced the record ("scalar" or "batch").
    engine: str = "scalar"
    #: Admission mode the classifier ran in ("count" or "work").
    admission: str = "count"
    #: In-flight window policy the drivers ran with (``None`` = no window).
    aqm: str | None = None
    #: Final window statistics (``snapshot()`` dict, or per-driver dicts
    #: for the two-driver topologies); ``None`` when no window was armed.
    window: dict | None = None
    demotions: int = 0
    failovers: int = 0
    #: The classifier's final admission bound (``None`` without one).
    final_limit: int | None = None
    violations: tuple = ()
    # -- optional outputs of single harnesses ---------------------------
    #: (bin_starts, completion rate IOPS) when rate recording was enabled.
    completion_series: tuple | None = None
    #: Metrics + samples of an observed ``run_policy`` call.
    telemetry: RunTelemetry | None = None
    #: Periodic sampler records (fault-armed and serving runs).
    samples: list = field(repr=False, default_factory=list)
    schedule: FaultSchedule | None = None
    conservation: ConservationReport | None = None
    #: Adaptive-controller stats when one ran.
    degrades: int | None = None
    recoveries: int | None = None
    #: Serving plane: admission tallies by verdict, the (time,
    #: outstanding) pair of every audit, and the autoscaler's epochs.
    decisions: dict = field(default_factory=dict)
    audits: tuple = ()
    autoscaler_decisions: tuple = ()
    #: Closed loop: the requests the population issued, and its horizon.
    submitted: list | None = field(repr=False, default=None)
    horizon: float | None = None
    #: The columnar run behind a batch-engine record.
    batch: BatchRun | None = field(repr=False, default=None)

    @classmethod
    def from_stack(
        cls,
        system,
        policy: str,
        config: RunConfig,
        *,
        workload_name: str,
        n_arrivals: int,
        effective_delta: float | None = None,
        **optional,
    ) -> "RunRecord":
        """Record a finished run of a :func:`~repro.stack.build_stack` stack.

        ``config`` is the stack's configuration with the SLA ``delta``;
        ``effective_delta`` is the deadline the stack actually enforced
        when it differs.  ``optional`` fills the harness-specific fields.
        """
        by_class = system.by_class
        classifier = system.classifier
        return cls(
            policy=policy,
            workload_name=workload_name,
            cmin=config.cmin,
            delta_c=config.delta_c,
            delta=config.delta,
            effective_delta=(
                config.delta if effective_delta is None else effective_delta
            ),
            n_arrivals=n_arrivals,
            overall=system.overall,
            primary=by_class[QoSClass.PRIMARY],
            overflow=by_class[QoSClass.OVERFLOW],
            primary_misses=system.primary_deadline_misses(),
            ledger=dict(system.fault_ledger()),
            completed=system.completed,
            dropped=system.dropped,
            shed=system.shed,
            admission=config.admission,
            aqm=resolve_aqm(config.aqm),
            window=system.window_snapshot(),
            demotions=system.demotions,
            failovers=system.failovers,
            final_limit=classifier.limit if classifier is not None else None,
            **optional,
        )

    @classmethod
    def from_batch(
        cls, run: BatchRun, config: RunConfig, workload_name: str
    ) -> "RunRecord":
        """Record a columnar run, repackaged into the event engine's
        collectors in the same sample order (bit-identical samples)."""
        collectors = []
        for label, column in (
            ("overall", run.overall), ("Q1", run.primary), ("Q2", run.overflow)
        ):
            collector = ResponseTimeCollector(label)
            collector.extend_array(column)
            collectors.append(collector)
        overall, primary, overflow = collectors
        return cls(
            policy=run.policy,
            workload_name=workload_name,
            cmin=config.cmin,
            delta_c=config.delta_c,
            delta=config.delta,
            effective_delta=config.delta,
            n_arrivals=int(run.admitted.size),
            overall=overall,
            primary=primary,
            overflow=overflow,
            primary_misses=run.primary_misses,
            ledger={"completed": len(overall), "dropped": 0, "shed": 0},
            engine="batch",
            admission=config.admission,
            batch=run,
        )

    # ------------------------------------------------------------------
    # Per-index columns
    # ------------------------------------------------------------------

    @cached_property
    def responses(self) -> np.ndarray:
        """Per-arrival-index response times (NaN where none completed)."""
        run = self.batch
        if run is not None:
            out = np.empty(run.admitted.size)
            out[run.admitted] = run.primary
            out[~run.admitted] = run.overall if run.policy == "fcfs" else run.overflow
            return out
        out = np.full(self.n_arrivals, np.nan)
        for request in self.completed:
            # The same single float op the batch engine uses; adding the
            # arrival back would reassociate and cost bit-parity.
            out[request.index] = request.completion - request.arrival
        return out

    @cached_property
    def admitted(self) -> np.ndarray:
        """Per-arrival-index mask of requests classified into ``Q1``."""
        if self.batch is not None:
            return self.batch.admitted
        out = np.zeros(self.n_arrivals, dtype=bool)
        for request in chain(self.completed, self.dropped, self.shed):
            out[request.index] = request.qos_class is QoSClass.PRIMARY
        return out

    # ------------------------------------------------------------------
    # Compliance views
    # ------------------------------------------------------------------

    @property
    def total_capacity(self) -> float:
        return self.cmin + self.delta_c

    def fraction_within(self, bound: float | None = None) -> float:
        """Overall fraction of completions meeting ``bound``.

        ``bound`` defaults to the enforced deadline ``effective_delta``.
        ``NaN`` for a run that completed nothing.
        """
        return self.overall.fraction_within(
            self.effective_delta if bound is None else bound
        )

    def q1_compliance(self) -> float:
        """Deadline compliance over every completed primary request."""
        total = len(self.primary)
        if total == 0:
            return float("nan")
        return 1.0 - self.primary_misses / total

    def q1_compliance_after(self, instant: float) -> float:
        """Q1 deadline compliance among arrivals after ``instant``.

        The chaos acceptance metric: evaluated at ``schedule.last_clear``
        it measures whether shaping *restored* the guarantee once the
        faults ended.  A classifier-free run falls back to the fraction
        of those arrivals within the enforced deadline.
        """
        if self.batch is not None:
            raise ConfigurationError(
                "q1_compliance_after needs per-request arrivals; batch-engine "
                "records hold response columns only"
            )
        done = [
            r
            for r in self.completed
            if r.qos_class is QoSClass.PRIMARY and r.arrival > instant
        ]
        if done:
            return sum(1 for r in done if r.met_deadline) / len(done)
        if not any(r.qos_class is QoSClass.PRIMARY for r in self.completed):
            late = [r for r in self.completed if r.arrival > instant]
            if late:
                return sum(
                    1
                    for r in late
                    if r.response_time <= self.effective_delta + 1e-12
                ) / len(late)
        return float("nan")

    def conserved(self) -> bool:
        """Whether every arrival landed in exactly one terminal bucket
        (and no request is still resident in a device window)."""
        return (
            not self.ledger.get("window", 0)
            and sum(self.ledger.values()) + len(self.rejected) == self.n_arrivals
        )

    @property
    def ok(self) -> bool:
        """No recorded violation and every arrival accounted for."""
        return not self.violations and self.conserved()

    @property
    def throughput(self) -> float:
        """Completed requests per second of ``horizon`` (closed loop)."""
        if not self.horizon:
            return float("nan")
        return self.ledger["completed"] / self.horizon

    def observed_workload(self) -> Workload:
        """The arrival trace a closed-loop population actually generated.

        Materializing it closes the loop back into the open-loop
        tooling: the observed trace can be decomposed, replayed, or
        golden-recorded like any other workload.
        """
        if self.submitted is None:
            raise ConfigurationError(
                "observed_workload needs a closed-loop record (no submissions)"
            )
        ordered = sorted(self.submitted, key=lambda r: (r.arrival, r.index))
        return Workload.from_requests(ordered, name=self.workload_name)


@dataclass(frozen=True)
class ParityReport:
    """Agreement of two records of one trace, or of several such pairs.

    ``max_drift`` is the worst per-request response disagreement in
    seconds; ``bit_identical`` holds when it is exactly zero (the
    engines' and the serving plane's contract — ``atol`` merely bounds
    how loud a drift must get before it counts as a divergence).
    """

    label: str
    workload_name: str
    policies: tuple[str, ...]
    max_drift: float = 0.0
    divergences: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def bit_identical(self) -> bool:
        return self.max_drift == 0.0

    def summary(self) -> str:
        if self.ok:
            exact = (
                "bit-identical"
                if self.bit_identical
                else f"max drift {self.max_drift:.3e}s"
            )
            return (
                f"{self.label} OK across {list(self.policies)} on "
                f"{self.workload_name}: {exact}"
            )
        return f"{self.label} VIOLATED: " + "; ".join(self.divergences)

    @classmethod
    def merge(
        cls,
        label: str,
        workload_name: str,
        policies,
        reports,
        divergences=(),
    ) -> "ParityReport":
        """One report over per-policy ``reports`` plus extra divergences."""
        return cls(
            label=label,
            workload_name=workload_name,
            policies=tuple(policies),
            max_drift=max((r.max_drift for r in reports), default=0.0),
            divergences=tuple(divergences)
            + tuple(d for r in reports for d in r.divergences),
        )


def compare_records(
    reference: RunRecord, candidate: RunRecord, atol: float = 0.0
) -> ParityReport:
    """Compare two records of the same trace, per arrival index.

    Checks, in order: the admitted (``Q1``) mask bit for bit; which
    requests completed (a NaN in one column only is a lost request);
    per-index response drift against ``atol`` (default: bit-identity);
    the conservation ledger; and the primary deadline-miss count.
    """
    policy = reference.policy
    found: list[str] = []
    drift = 0.0
    ref_adm, cand_adm = reference.admitted, candidate.admitted
    if ref_adm.size != cand_adm.size:
        found.append(f"{policy}: {ref_adm.size} arrivals recorded vs {cand_adm.size}")
    elif not np.array_equal(ref_adm, cand_adm):
        where = np.nonzero(ref_adm != cand_adm)[0]
        found.append(
            f"{policy}: admitted sets differ at indices {where[:5].tolist()} "
            f"({int(ref_adm.sum())} vs {int(cand_adm.sum())} admitted)"
        )
    else:
        ref, cand = reference.responses, candidate.responses
        lost = np.isnan(ref) != np.isnan(cand)
        if lost.any():
            found.append(
                f"{policy}: requests completed in one run only, at indices "
                f"{np.nonzero(lost)[0][:5].tolist()}"
            )
        elif ref.size:
            gap = np.where(np.isnan(ref), 0.0, np.abs(ref - cand))
            drift = float(gap.max())
            if drift > atol:
                found.append(
                    f"{policy}: response times drift {drift:.3e}s at request "
                    f"{int(gap.argmax())} (atol {atol:.0e})"
                )
    if reference.ledger != candidate.ledger:
        found.append(
            f"{policy}: ledgers differ: {reference.ledger} vs {candidate.ledger}"
        )
    if reference.primary_misses != candidate.primary_misses:
        found.append(
            f"{policy}: primary misses {reference.primary_misses} vs "
            f"{candidate.primary_misses}"
        )
    return ParityReport(
        label="record parity",
        workload_name=reference.workload_name,
        policies=(policy,),
        max_drift=drift,
        divergences=tuple(found),
    )
