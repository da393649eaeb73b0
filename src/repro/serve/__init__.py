"""``repro.serve``: the online control plane over the certified stack.

The paper's RTT decomposition is an *online* admission rule; this
package runs it as a service while staying provably bit-equivalent to
the offline simulator:

* :class:`~repro.serve.ingest.IngestServer` — asyncio JSON-lines front
  end staging timestamped, size-carrying requests;
* :class:`~repro.serve.admission.AdmissionService` — live
  admit/demote/reject from decomposed capacity estimates (request- and
  client-granular);
* :class:`~repro.serve.autoscaler.Autoscaler` — the provisioning loop
  re-planning ``Cmin + ΔC`` from a sliding trace window (live, or
  replaying a recorded trace as the online capacity estimator), with
  the batch engine as a digital twin;
* :class:`~repro.serve.placement.PlacementPlanner` — Q1/Q2 assignment
  across a farm where inter-node latency is charged against ``δ``;
* :class:`~repro.serve.harness.ServiceHarness` — the whole plane under
  a deterministic virtual clock, certified against ``run_policy`` by
  :func:`repro.check.differential.serve_parity`.
"""

from .admission import AdmissionDecision, AdmissionService, Verdict
from .autoscaler import Autoscaler, AutoscalerConfig, ScalerDecision
from .harness import ServiceHarness
from .ingest import IngestServer
from .placement import Node, PlacementPlan, PlacementPlanner, local_node

__all__ = [
    "AdmissionDecision",
    "AdmissionService",
    "Autoscaler",
    "AutoscalerConfig",
    "IngestServer",
    "Node",
    "PlacementPlan",
    "PlacementPlanner",
    "ScalerDecision",
    "ServiceHarness",
    "Verdict",
    "local_node",
]
