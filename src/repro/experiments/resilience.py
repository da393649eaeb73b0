"""Resilience study: the four recombiners under injected faults.

The paper evaluates its recombination policies on a server that never
fails.  This experiment asks the operational question: when the server
crashes, browns out, and sprays latency spikes mid-run, which policy
degrades gracefully — and does adaptive shaping restore the guaranteed
class once the faults clear?

For each workload stand-in we plan capacity as usual
(``delta = 50 ms``, 95% guaranteed), then serve the same trace twice
per policy on the fault-capable stack (:mod:`repro.faults`):

* **healthy** — empty fault schedule, no retries, no controller; this
  is the baseline compliance (and is bit-identical to
  :func:`repro.shaping.run_policy`);
* **chaos** — a seeded random schedule of one crash, one rate droop and
  one spike storm, with timeout/retry armed and (for the classifying
  policies) the :class:`~repro.faults.controller.AdaptiveShaper`
  closing the loop.

Reported per cell: terminal-state counts (the conservation ledger),
fault-path activity (retried/demoted/failovers, controller degrades and
recoveries), ``Q1`` compliance over the whole chaos run, and ``Q1``
compliance *after the last fault clears* versus the healthy baseline —
the "restored" column checks the latter is within one percentage point,
which is the repository's resilience acceptance criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis.reporting import format_table
from ..faults import RESILIENCE_POLICIES, run_chaos, run_resilient
from ..record import RunRecord
from ..shaping import WorkloadShaper
from ..units import ms
from .common import ExperimentConfig

DELTA = ms(50)
FRACTION = 0.95
CHAOS_SEED = 2009  # ICDCS 2009

#: Post-fault compliance must be within this of the healthy baseline.
RESTORE_TOLERANCE = 0.01

#: Single stand-in: the chaos run exercises every fault path on the
#: paper's headline workload; the chaos *suite* (tests) sweeps seeds.
WORKLOAD = "websearch"


@dataclass(frozen=True)
class ResilienceCell:
    policy: str
    healthy_q1: float
    chaos_q1: float
    post_fault_q1: float
    completed: int
    dropped: int
    shed: int
    demotions: int
    failovers: int
    degrades: int | None
    recoveries: int | None

    @property
    def restored(self) -> bool | None:
        """Post-fault compliance within tolerance of healthy (None = n/a)."""
        if math.isnan(self.post_fault_q1) or math.isnan(self.healthy_q1):
            return None
        return self.post_fault_q1 >= self.healthy_q1 - RESTORE_TOLERANCE


@dataclass(frozen=True)
class ResilienceResult:
    workload_name: str
    cmin: float
    delta_c: float
    last_clear: float
    cells: list


def _q1(record: RunRecord) -> float:
    # Classifier-free FCFS has no Q1: report its within-deadline fraction.
    if record.policy == "fcfs":
        return record.fraction_within()
    return record.q1_compliance()


def run(config: ExperimentConfig | None = None) -> ResilienceResult:
    config = config or ExperimentConfig()
    workload = config.workload(WORKLOAD)
    plan = WorkloadShaper(delta=DELTA, fraction=FRACTION).plan(workload)

    cells = []
    last_clear = 0.0
    for policy in RESILIENCE_POLICIES:
        healthy = run_resilient(
            workload, policy, plan.cmin, plan.delta_c, DELTA
        )
        chaos = run_chaos(
            workload,
            policy,
            plan.cmin,
            plan.delta_c,
            DELTA,
            seed=CHAOS_SEED + config.seed_offset,
        )
        last_clear = chaos.schedule.last_clear
        cells.append(
            ResilienceCell(
                policy=policy,
                healthy_q1=_q1(healthy),
                chaos_q1=_q1(chaos),
                post_fault_q1=chaos.q1_compliance_after(chaos.schedule.last_clear),
                completed=len(chaos.completed),
                dropped=len(chaos.dropped),
                shed=len(chaos.shed),
                demotions=chaos.demotions,
                failovers=chaos.failovers,
                degrades=chaos.degrades,
                recoveries=chaos.recoveries,
            )
        )
    return ResilienceResult(
        workload_name=workload.name,
        cmin=plan.cmin,
        delta_c=plan.delta_c,
        last_clear=last_clear,
        cells=cells,
    )


def _pct(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.1%}"


def render(result: ResilienceResult) -> str:
    rows = []
    for cell in result.cells:
        rows.append([
            cell.policy,
            _pct(cell.healthy_q1),
            _pct(cell.chaos_q1),
            _pct(cell.post_fault_q1),
            "yes" if cell.restored else ("n/a" if cell.restored is None else "NO"),
            cell.completed,
            cell.dropped,
            cell.shed,
            cell.demotions,
            cell.failovers,
            "-" if cell.degrades is None else cell.degrades,
            "-" if cell.recoveries is None else cell.recoveries,
        ])
    return format_table(
        ["policy", "q1 healthy", "q1 chaos", "q1 post-fault", "restored",
         "done", "drop", "shed", "demote", "failover", "degr", "recov"],
        rows,
        title=(
            f"Resilience under chaos ({result.workload_name}, "
            f"Cmin={result.cmin:.0f}, dC={result.delta_c:.0f}, "
            f"faults clear at t={result.last_clear:.1f}s; "
            "q1 columns: FCFS shows overall<=delta)"
        ),
    )
