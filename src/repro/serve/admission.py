"""Live admission: admit/demote/reject answered from decomposed estimates.

Two granularities, matching the paper's two admission stories:

* **Per request** — :meth:`AdmissionService.decide` answers what the
  online RTT classifier *will* do with a candidate request, via the
  read-only :meth:`~repro.sched.classifier.OnlineRTTClassifier.
  would_admit` peek (count or work mode, whichever the classifier runs),
  optionally consulting the AQM window's slot state to *reject* instead
  of demote under device saturation.  The peek never moves a ledger: the
  serving stack's own ``classify()`` remains the single authority, and
  the :class:`~repro.serve.harness.ServiceHarness` verifies every
  prediction against the authoritative outcome (predict-then-verify),
  which is how divergence between the service API and the certified
  simulator is made impossible to hide.
* **Per client** — :meth:`AdmissionService.admit_client` sizes a
  candidate client by its decomposed capacity (Section 4.4's additivity
  argument) by delegating to the offline
  :class:`~repro.core.admission.AdmissionController`, including its
  ``device_depth`` δ_eff correction: a serving stack running a depth-``k``
  device window must budget the queue's share of the deadline at
  planning time too.  Every decision is the offline controller's
  (certified decision-for-decision by ``tests/serve/test_admission.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.admission import AdmissionController, AdmittedClient
from ..core.request import Request
from ..core.sla import GraduatedSLA
from ..core.workload import Workload
from ..exceptions import AdmissionError, ConfigurationError
from ..obs.registry import NULL_REGISTRY, MetricsRegistry
from ..sched.classifier import OnlineRTTClassifier
from ..server.aqm import InflightWindow


class Verdict(enum.Enum):
    """Outcome of one per-request admission decision."""

    #: The classifier will admit into the guaranteed class (``Q1``).
    ADMIT = "admit"
    #: The classifier will assign the overflow class (``Q2``).
    DEMOTE = "demote"
    #: Refused outright (overload guard armed and the device saturated);
    #: the request never reaches the serving stack.
    REJECT = "reject"
    #: Classifier-free policy (FCFS/SRPT/...): nothing to decide.
    PASS = "pass"


@dataclass(frozen=True)
class AdmissionDecision:
    """One answered admit/demote/reject query, with the state it saw."""

    verdict: Verdict
    reason: str
    #: Classifier occupancy/bound at decision time (``None`` for PASS).
    len_q1: int | None = None
    limit: int | None = None
    #: AQM window occupancy at decision time (``None``: no window).
    window_occupancy: int | None = None

    @property
    def serves(self) -> bool:
        """Whether the request proceeds into the serving stack."""
        return self.verdict is not Verdict.REJECT


class AdmissionService:
    """The control plane's admission authority (requests and clients).

    Parameters
    ----------
    classifier:
        The serving stack's live :class:`~repro.sched.classifier.
        OnlineRTTClassifier` (``None`` for classifier-free policies —
        every per-request decision is then :attr:`Verdict.PASS`).
    window:
        The stack's :class:`~repro.server.aqm.InflightWindow`, consulted
        per decision; ``None`` when no AQM window is armed.
    reject_on_overload:
        Arm the reject path: a request the classifier would demote is
        *refused* while the window has no free slot (the device queue is
        full — adding overflow work only bloats it).  Default off, which
        makes the service a pure observer and keeps serve ≡ simulate
        bit-identical; the harness's parity replays rely on that.
    server_capacity, worst_case, headroom, device_depth:
        Arm the client-level half (:meth:`admit_client`): an
        :class:`~repro.core.admission.AdmissionController` built with
        these knobs.  ``server_capacity=None`` leaves it unarmed.
    metrics:
        Optional registry for ``serve.admission.*`` counters.
    """

    def __init__(
        self,
        classifier: OnlineRTTClassifier | None = None,
        window: InflightWindow | None = None,
        reject_on_overload: bool = False,
        server_capacity: float | None = None,
        worst_case: bool = False,
        headroom: float = 0.0,
        device_depth: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.classifier = classifier
        self.window = window
        self.reject_on_overload = bool(reject_on_overload)
        self.controller = (
            None
            if server_capacity is None
            else AdmissionController(
                server_capacity,
                worst_case=worst_case,
                headroom=headroom,
                device_depth=device_depth,
            )
        )
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_admit = metrics.counter("serve.admission.admit")
        self._m_demote = metrics.counter("serve.admission.demote")
        self._m_reject = metrics.counter("serve.admission.reject")
        self._m_pass = metrics.counter("serve.admission.pass")
        self._counters = {
            Verdict.ADMIT: self._m_admit,
            Verdict.DEMOTE: self._m_demote,
            Verdict.REJECT: self._m_reject,
            Verdict.PASS: self._m_pass,
        }
        #: Decision tallies by verdict (always-on, cheap).
        self.decided: dict[Verdict, int] = {v: 0 for v in Verdict}

    # ------------------------------------------------------------------
    # Per-request decisions
    # ------------------------------------------------------------------

    def decide(self, request: Request) -> AdmissionDecision:
        """Answer admit/demote/reject for one candidate request.

        Read-only: no classifier ledger moves, no deadline stamping —
        the stack's own ``classify()`` stays authoritative, and the
        harness cross-checks this prediction against it.
        """
        occupancy = None if self.window is None else int(self.window.occupancy)
        if self.classifier is None:
            decision = AdmissionDecision(
                verdict=Verdict.PASS,
                reason="classifier-free policy: requests are not classified",
                window_occupancy=occupancy,
            )
        elif self.classifier.would_admit(request):
            decision = AdmissionDecision(
                verdict=Verdict.ADMIT,
                reason=(
                    f"lenQ1 {self.classifier.len_q1} fits the "
                    f"C*delta bound {self.classifier.limit}"
                    if self.classifier.mode == "count"
                    else (
                        f"admitted work {self.classifier.work_q1:g} + "
                        f"{request.service_demand:g} fits the work bound"
                    )
                ),
                len_q1=self.classifier.len_q1,
                limit=self.classifier.limit,
                window_occupancy=occupancy,
            )
        elif (
            self.reject_on_overload
            and self.window is not None
            and not self.window.has_slot()
        ):
            decision = AdmissionDecision(
                verdict=Verdict.REJECT,
                reason=(
                    "guaranteed class full and the device window is "
                    f"saturated ({occupancy} in flight)"
                ),
                len_q1=self.classifier.len_q1,
                limit=self.classifier.limit,
                window_occupancy=occupancy,
            )
        else:
            decision = AdmissionDecision(
                verdict=Verdict.DEMOTE,
                reason=(
                    f"guaranteed class full "
                    f"(lenQ1 {self.classifier.len_q1} at bound "
                    f"{self.classifier.limit}): overflow"
                ),
                len_q1=self.classifier.len_q1,
                limit=self.classifier.limit,
                window_occupancy=occupancy,
            )
        self.decided[decision.verdict] += 1
        self._counters[decision.verdict].inc()
        return decision

    # ------------------------------------------------------------------
    # Per-client onboarding (the offline controller's policy, live)
    # ------------------------------------------------------------------

    @property
    def clients(self) -> list[AdmittedClient]:
        """Onboarded clients, in admission order."""
        return [] if self.controller is None else self.controller.clients

    @property
    def committed(self) -> float:
        """Capacity already promised to onboarded clients."""
        return 0.0 if self.controller is None else self.controller.committed

    @property
    def available(self) -> float:
        return self._armed().available

    def required_capacity(self, workload: Workload, sla: GraduatedSLA) -> float:
        """Capacity this client is billed for (max over tiers of Cmin)."""
        return self._armed().required_capacity(workload, sla)

    def admit_client(
        self, workload: Workload, sla: GraduatedSLA
    ) -> AdmittedClient | None:
        """Onboard the client if its planned capacity fits; else ``None``."""
        return self._armed().try_admit(workload, sla)

    def release_client(self, name: str) -> None:
        """Offboard an onboarded client by name."""
        try:
            self._armed().release(name)
        except AdmissionError:
            raise AdmissionError(f"no onboarded client named {name!r}") from None

    def _armed(self) -> AdmissionController:
        if self.controller is None:
            raise ConfigurationError(
                "client-level admission is unarmed: construct the service "
                "with server_capacity"
            )
        return self.controller
