"""Virtual-clock service harness: the whole control plane, deterministic.

:class:`ServiceHarness` assembles the serving plane — staged ingestion,
live admission (:class:`~repro.serve.admission.AdmissionService`), the
certified scheduling/serving stack from :mod:`repro.shaping`, and
optionally the fault plane and the :class:`~repro.serve.autoscaler.
Autoscaler` — on one :class:`~repro.sim.engine.Simulator`.  Virtual time
makes the service a pure function of its inputs, which is what lets the
differential harness (:func:`repro.check.differential.serve_parity`)
certify **serve ≡ simulate, bit for bit**:

* arrivals enter through an empty :class:`~repro.sim.source.
  WorkloadSource` fed by :meth:`~repro.sim.source.WorkloadSource.stage`
  — the same source ``run_policy`` replays a workload with, so delivery
  semantics and :class:`~repro.core.request.Request` construction are
  identical, while requests may also be staged mid-run (the ingestion
  path);
* the plane is driven by one :class:`repro.stack.Run`, the run loop
  behind ``run_policy`` (healthy) and ``run_resilient`` (fault mode):
  same stack, same sampler horizon rule, same record, so event order,
  float operation order, and therefore every response time are
  identical;
* the admission service runs **predict-then-verify**: each delivery is
  preceded by a read-only :meth:`~repro.serve.admission.AdmissionService.
  decide` and followed by a check that the stack's authoritative
  classifier did exactly what was predicted.  A service that drifted
  from the simulator would surface as a verification violation, not a
  silently different answer.

Running in chunks (``sim.run(until=t)`` boundaries) is parity-safe by
the engine's contract — events exactly at a boundary still fire and the
clock lands on the boundary — and every chunk edge doubles as an epoch
**audit point** where request-count conservation is asserted.
"""

from __future__ import annotations

from ..core.request import Request
from ..core.workload import Workload
from ..exceptions import ConfigurationError, SimulationError
from ..faults.retry import RetryPolicy
from ..faults.schedule import FaultSchedule
from ..obs.registry import MetricsRegistry, NULL_REGISTRY
from ..record import RunRecord
from ..sim.source import WorkloadSource
from ..stack import FaultPlan, Run, RunConfig
from .admission import AdmissionService, Verdict
from .autoscaler import Autoscaler, AutoscalerConfig
from .placement import PlacementPlan


class ServiceHarness:
    """Drive the full serving plane under a deterministic virtual clock.

    Parameters
    ----------
    policy:
        Any policy ``run_policy`` accepts (topologies included).
    cmin, delta_c, delta:
        The capacity plan.  May be omitted when ``placement`` is given
        (the plan then supplies them).
    placement:
        Optional :class:`~repro.serve.placement.PlacementPlan`; its
        ``effective_delta`` (deadline minus inter-node latency) becomes
        the deadline the stack enforces.
    admission, aqm, aqm_shared:
        The stack's :class:`~repro.stack.RunConfig` fields (validated
        there: ``aqm_shared`` without ``aqm`` is rejected).
    reject_on_overload:
        Arm the admission service's reject path (default off — parity
        replays require the pure-observer mode).
    autoscaler:
        ``AutoscalerConfig`` (a loop is built around the stack's
        classifier) or a prebuilt ``Autoscaler``; ``None`` disables.
    faults, retry, adaptive, inflight, seed:
        Arm the fault plane: the :class:`~repro.stack.Run` builds its
        stack with the :class:`~repro.stack.FaultPlan` ``(faults, retry,
        inflight, seed)`` — the same stack ``run_resilient`` serves.
    sample_interval:
        Periodic probe sampling (defaults to the enforced deadline when
        ``adaptive`` needs a sampler, else disabled).  Ticks stop at the
        arrival horizon, or 20 intervals past the last fault clearing
        when the fault plane is armed (:meth:`repro.stack.Run.arm`).
    metrics:
        Optional registry; the harness adds ``serve.*`` counters.  A
        registry or sampler fills the record's ``telemetry``.
    """

    def __init__(
        self,
        policy: str,
        cmin: float | None = None,
        delta_c: float | None = None,
        delta: float | None = None,
        *,
        placement: PlacementPlan | None = None,
        admission: str = "count",
        aqm: str | None = None,
        aqm_shared: bool = False,
        reject_on_overload: bool = False,
        autoscaler: Autoscaler | AutoscalerConfig | None = None,
        faults: FaultSchedule | None = None,
        retry: RetryPolicy | None = None,
        adaptive: bool = False,
        inflight: str = "requeue",
        seed: int = 0,
        sample_interval: float | None = None,
        metrics: MetricsRegistry | None = None,
        on_request=None,
    ):
        if placement is not None:
            cmin = placement.cmin if cmin is None else cmin
            delta_c = placement.delta_c if delta_c is None else delta_c
            delta = placement.delta if delta is None else delta
        if cmin is None or delta_c is None or delta is None:
            raise ConfigurationError(
                "cmin, delta_c and delta are required (directly or via "
                "a placement plan)"
            )
        self.config = config = RunConfig(
            cmin, delta_c, delta,
            metrics=metrics, sample_interval=sample_interval,
            admission=admission, aqm=aqm, aqm_shared=aqm_shared,
        )
        self.policy = policy
        self.effective_delta = effective_delta = float(
            placement.effective_delta if placement is not None else delta
        )
        if effective_delta <= 0:
            raise ConfigurationError(
                "placement latency consumes the whole deadline budget"
            )
        self._user_on_request = on_request
        fault_mode = faults is not None or retry is not None or adaptive
        self._run = Run(
            policy,
            config,
            FaultPlan(faults, retry, inflight, seed) if fault_mode else None,
            adaptive=bool(adaptive),
            effective_delta=effective_delta,
        )
        self.sim = self._run.sim
        self.system = self._run.system
        self.classifier = self.system.classifier
        # A reject replaces a *demotion*, so the saturation signal is the
        # window of the driver demoted work would land on.
        self.admission_service = AdmissionService(
            classifier=self.classifier,
            window=self.system.demotion_target.window,
            reject_on_overload=reject_on_overload,
            metrics=metrics,
        )
        if isinstance(autoscaler, AutoscalerConfig):
            if autoscaler.mode == "active" and self.classifier is None:
                raise ConfigurationError(
                    f"policy {policy!r} has no classifier to re-provision; "
                    "use shadow mode"
                )
            autoscaler = Autoscaler(
                self.classifier,
                effective_delta,
                config=autoscaler,
                delta_c=config.delta_c,
                metrics=metrics,
            )
        self.autoscaler = autoscaler
        self.source = WorkloadSource(self.sim, None, self)
        self.delivered: list[Request] = []
        self.rejected: list[Request] = []
        self.violations: list[str] = []
        self.audits: list[tuple[float, int]] = []
        self._started = False
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_ingested = registry.counter("serve.ingested")
        self._m_delivered = registry.counter("serve.delivered")
        self._m_rejected = registry.counter("serve.rejected")
        self._m_violations = registry.counter("serve.violations")

    # ------------------------------------------------------------------
    # Ingestion and delivery (predict-then-verify)
    # ------------------------------------------------------------------

    def _deliver(self, request: Request) -> None:
        decision = self.admission_service.decide(request)
        if not decision.serves:
            self.rejected.append(request)
            self._m_rejected.inc()
            return
        self.delivered.append(request)
        self._m_delivered.inc()
        clf = self.classifier
        if clf is not None and decision.verdict in (Verdict.ADMIT, Verdict.DEMOTE):
            before = (clf.n_primary, clf.n_overflow)
            self.system.on_arrival(request)
            moved = (clf.n_primary - before[0], clf.n_overflow - before[1])
            expected = (1, 0) if decision.verdict is Verdict.ADMIT else (0, 1)
            if moved != expected:
                self.violations.append(
                    f"request {request.index} at t={request.arrival:g}: "
                    f"predicted {decision.verdict.value}, classifier moved "
                    f"(primary, overflow) by {moved}"
                )
                self._m_violations.inc()
        else:
            self.system.on_arrival(request)

    # The harness is the sink of its own source and can serve as the
    # sink of a closed-loop population (repro.sim.source.ClosedLoopSource),
    # whose externally-built requests then flow through the same
    # admission gate as staged ones.
    def on_arrival(self, request: Request) -> None:
        self._m_ingested.inc()
        if self.autoscaler is not None:
            self.autoscaler.observe(request)
        if self._user_on_request is not None:
            self._user_on_request(request)
        self._deliver(request)

    def add_completion_hook(self, hook) -> None:
        self.system.add_completion_hook(hook)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def _start(self, horizon: float) -> None:
        if self._started:
            return
        self._started = True
        self._run.arm(horizon)
        if self.autoscaler is not None:
            self.sim.every(
                self.autoscaler.config.interval,
                lambda: self.autoscaler.tick(self.sim.now),
                until=horizon,
            )
        self.source.start()

    def replay(self, workload: Workload, chunks: int = 1) -> RunRecord:
        """Stage a whole workload and run it to completion."""
        self._workload_name = workload.name
        self.source.stage_workload(workload)
        return self.run(chunks=chunks)

    def run(self, chunks: int = 1, horizon: float | None = None) -> RunRecord:
        """Drive the plane: ``chunks`` audited epochs, then drain.

        Each chunk boundary is a ``sim.run(until=...)`` pause — the
        engine guarantees boundary events still fire — immediately
        followed by a conservation audit, so a leak is localized to the
        epoch that caused it.
        """
        if chunks < 1:
            raise ConfigurationError(f"chunks must be >= 1, got {chunks}")
        span = self.source.horizon if horizon is None else float(horizon)
        self._start(span)
        if chunks > 1 and span > 0:
            for i in range(1, chunks):
                self.sim.run(until=span * i / chunks)
                self.audit()
        self._run.finish()
        self.audit(final=True)
        return self.result()

    def run_epochs(
        self, epoch: float, horizon: float
    ) -> RunRecord:
        """Soak driver: audit every ``epoch`` virtual seconds."""
        if epoch <= 0 or horizon <= 0:
            raise ConfigurationError(
                f"epoch and horizon must be positive, got {epoch}/{horizon}"
            )
        chunks = max(1, int(round(horizon / epoch)))
        return self.run(chunks=chunks, horizon=horizon)

    # ------------------------------------------------------------------
    # Audits and results
    # ------------------------------------------------------------------

    def audit(self, final: bool = False) -> int:
        """O(1) count-conservation check; returns outstanding requests.

        ``injected == rejected + completed + dropped + shed + window +
        outstanding`` with ``outstanding >= 0`` must hold at *every*
        instant; the final audit (all sources drained) also demands
        ``outstanding == 0`` (the record then demands an empty device
        window).
        """
        ledger = self.system.fault_ledger()
        terminal = ledger["completed"] + ledger["dropped"] + ledger["shed"]
        resident = ledger.get("window", 0)
        # Every request reaches the gate, staged or from a closed-loop
        # population, and leaves it delivered or rejected.
        injected = len(self.delivered) + len(self.rejected)
        outstanding = injected - len(self.rejected) - terminal - resident
        now = self.sim.now
        if outstanding < 0:
            raise SimulationError(
                f"conservation audit failed at t={now:g}: {injected} "
                f"injected but {terminal} terminal + {resident} resident "
                f"+ {len(self.rejected)} rejected"
            )
        if final:
            if self.source.exhausted and outstanding != 0:
                raise SimulationError(
                    f"end-of-run audit: {outstanding} requests neither "
                    "completed nor accounted as dropped/shed/rejected"
                )
        self.audits.append((now, outstanding))
        return outstanding

    def result(self) -> RunRecord:
        """Snapshot the plane into its :class:`~repro.record.RunRecord`.

        Asserts identity-based conservation over every *delivered*
        request (rejected ones never entered the stack and must not
        appear in any terminal bucket).
        """
        return self._run.record(
            self.delivered,
            workload_name=getattr(self, "_workload_name", "staged"),
            rejected=self.rejected,
            violations=tuple(self.violations),
            decisions={
                v.value: n for v, n in self.admission_service.decided.items()
            },
            audits=tuple(self.audits),
            autoscaler_decisions=(
                tuple(self.autoscaler.decisions)
                if self.autoscaler is not None
                else ()
            ),
        )
