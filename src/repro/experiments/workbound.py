"""Count-bound vs work-bound admission under a long/short job mix.

The paper's classifier admits while ``lenQ1 < floor(C·delta)`` — a
*count* bound, correct in the unit-cost model where every request is the
same size.  Once requests carry a ``service_demand``, a count bound lets
one long job silently occupy many budgeted service slots: Q1 is "full"
by work long before it is full by count, and guaranteed-class deadlines
start slipping.

This study makes the divergence measurable.  A poisson-poisson user
population is sized with a bimodal long/short demand mix (mostly
unit-cost requests, a heavy minority of 8x jobs), capacity is planned on
the count basis exactly as the seed pipeline would, and each policy is
run twice via :class:`~repro.shaping.RunConfig` — once with
``admission="count"`` and once with ``admission="work"`` (cumulative
admitted demand bounded by ``C·delta``).  Conservation is certified per
run: every arrival must complete, and every completion must land in
exactly one class.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reporting import format_table
from ..shaping import RunConfig, WorkloadShaper, run_policy
from ..workload import BimodalDemand, UserPopulation, poisson_poisson_workload
from .common import ExperimentConfig

#: The long/short mix: 88% unit jobs, 12% eight-unit jobs.
DEMANDS = BimodalDemand(short=1.0, long=8.0, long_fraction=0.12)

#: The user population offering the load (mean 40 req/s before sizing).
POPULATION = UserPopulation(mean_users=24.0, requests_per_minute=100.0, window=30.0)

#: QoS target for the count-basis capacity plan.
DELTA = 0.25
FRACTION = 0.90

#: Policies exercising both admission modes (split = two-server
#: topology, miser = the paper's single-server scheduler).
POLICIES = ("split", "miser")


@dataclass(frozen=True)
class AdmissionCell:
    """One (policy, admission mode) run."""

    policy: str
    admission: str
    q1_completed: int
    q2_completed: int
    primary_misses: int
    fraction_within: float
    p99_response: float
    conserved: bool


@dataclass(frozen=True)
class WorkboundResult:
    cells: list
    n_requests: int
    total_work: float
    mean_demand: float
    cmin: float
    delta_c: float
    delta: float


def run(config: ExperimentConfig | None = None) -> WorkboundResult:
    config = config or ExperimentConfig()
    workload = poisson_poisson_workload(
        POPULATION,
        duration=config.duration,
        seed=29 + config.seed_offset,
        demand_sampler=DEMANDS,
        name="bimodal-users",
    )
    # Plan on the count basis — the seed pipeline's view of the trace.
    plan = WorkloadShaper(delta=DELTA, fraction=FRACTION).plan(workload)
    cells = []
    for policy in POLICIES:
        for admission in ("count", "work"):
            result = run_policy(
                workload,
                policy,
                config=RunConfig(
                    plan.cmin, plan.delta_c, DELTA, admission=admission
                ),
            )
            conserved = result.conserved() and (
                len(result.primary) + len(result.overflow) == len(result.overall)
            )
            cells.append(
                AdmissionCell(
                    policy=policy,
                    admission=admission,
                    q1_completed=len(result.primary),
                    q2_completed=len(result.overflow),
                    primary_misses=result.primary_misses,
                    fraction_within=result.fraction_within(),
                    p99_response=result.overall.percentile(99),
                    conserved=conserved,
                )
            )
    demands = workload.demands()
    return WorkboundResult(
        cells=cells,
        n_requests=len(workload),
        total_work=float(workload.total_work),
        mean_demand=float(demands.mean()) if len(workload) else 0.0,
        cmin=plan.cmin,
        delta_c=plan.delta_c,
        delta=DELTA,
    )


def render(result: WorkboundResult) -> str:
    rows = []
    for cell in result.cells:
        rows.append([
            cell.policy,
            cell.admission,
            cell.q1_completed,
            cell.q2_completed,
            cell.primary_misses,
            f"{cell.fraction_within:.3f}",
            f"{cell.p99_response * 1e3:.1f}",
            "yes" if cell.conserved else "VIOLATED",
        ])
    header = (
        f"Count-bound vs work-bound admission "
        f"(bimodal {DEMANDS.short:g}/{DEMANDS.long:g} demands, "
        f"{DEMANDS.long_fraction:.0%} long; "
        f"{result.n_requests} requests, mean demand "
        f"{result.mean_demand:.2f}; count-basis plan Cmin="
        f"{result.cmin:g}, deltaC={result.delta_c:g}, "
        f"delta={result.delta * 1e3:g} ms)"
    )
    return format_table(
        ["policy", "admission", "Q1 done", "Q2 done", "Q1 misses",
         f"frac<={result.delta * 1e3:g}ms", "p99 (ms)", "conserved"],
        rows,
        title=header,
    )
