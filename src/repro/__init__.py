"""repro: workload shaping for graduated storage QoS.

A complete reproduction of "Graduated QoS by Decomposing Bursts: Don't
Let the Tail Wag Your Server" (Lu, Varman, Doshi; ICDCS 2009): the RTT
decomposition algorithm, the Miser/FairQueue/Split recombiners, capacity
provisioning and multi-client consolidation, plus the storage-simulation
and trace substrates the paper's evaluation depends on.

Quick start::

    from repro import WorkloadShaper
    from repro.traces import openmail

    shaper = WorkloadShaper(delta=0.010, fraction=0.90)
    outcome = shaper.shape(openmail(duration=60.0), policies=("miser",))
    print(outcome.plan.cmin, outcome.run("miser").fraction_within())
"""

from ._version import __version__
from .core.capacity import CapacityPlan, CapacityPlanner
from .core.consolidation import consolidate, self_consolidation
from .core.rtt import decompose, decompose_fluid
from .core.sla import GraduatedSLA
from .core.workload import Workload
from .exceptions import ReproError
from .serve import AdmissionService, Autoscaler, AutoscalerConfig, ServiceHarness
from .record import RunRecord
from .shaping import (
    RunConfig,
    ShapingOutcome,
    WorkloadShaper,
    run_policy,
)
from .tenancy import SharedServer, Tenant

__all__ = [
    "__version__",
    "CapacityPlan",
    "CapacityPlanner",
    "consolidate",
    "self_consolidation",
    "decompose",
    "decompose_fluid",
    "GraduatedSLA",
    "Workload",
    "ReproError",
    "AdmissionService",
    "Autoscaler",
    "AutoscalerConfig",
    "ServiceHarness",
    "RunConfig",
    "RunRecord",
    "ShapingOutcome",
    "WorkloadShaper",
    "run_policy",
    "SharedServer",
    "Tenant",
]
