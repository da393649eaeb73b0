"""Core workload-shaping algorithms (the paper's primary contribution)."""

from .admission import AdmissionController, AdmittedClient
from .bounds import (
    lemma1_lower_bound,
    lower_bound_drops,
    max_admissible_bruteforce,
    subset_feasible,
)
from .capacity import CapacityPlan, CapacityPlanner, min_capacity
from .consolidation import (
    ConsolidationResult,
    consolidate,
    self_consolidation,
    shifted_merge,
)
from .curves import ArrivalCurve, ServiceCurve, busy_periods, scl_excess
from .multiclass import (
    TierAssignment,
    decompose_tiers,
    plan_and_decompose,
    plan_tiers,
)
from .pricing import PricedTier, burstiness_discount, price_menu, reserve_cost
from .request import IOKind, QoSClass, Request
from .rtt import (
    DecompositionResult,
    count_admitted,
    decompose,
    decompose_exact,
    decompose_fluid,
    primary_response_times,
)
from .sla import GraduatedSLA, SLATier, TierCompliance
from .slack import SlackTracker, initial_slack, is_unconstrained
from .workload import Workload

__all__ = [
    "AdmissionController",
    "AdmittedClient",
    "lemma1_lower_bound",
    "lower_bound_drops",
    "max_admissible_bruteforce",
    "subset_feasible",
    "CapacityPlan",
    "CapacityPlanner",
    "min_capacity",
    "ConsolidationResult",
    "consolidate",
    "self_consolidation",
    "shifted_merge",
    "ArrivalCurve",
    "ServiceCurve",
    "busy_periods",
    "scl_excess",
    "TierAssignment",
    "decompose_tiers",
    "plan_and_decompose",
    "plan_tiers",
    "PricedTier",
    "burstiness_discount",
    "price_menu",
    "reserve_cost",
    "IOKind",
    "QoSClass",
    "Request",
    "DecompositionResult",
    "count_admitted",
    "decompose",
    "decompose_exact",
    "decompose_fluid",
    "primary_response_times",
    "GraduatedSLA",
    "SLATier",
    "TierCompliance",
    "SlackTracker",
    "initial_slack",
    "is_unconstrained",
    "Workload",
]
