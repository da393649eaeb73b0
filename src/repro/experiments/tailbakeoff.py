"""Size-aware tail-scheduling bakeoff: every policy vs the p99.9.

The paper's decomposition machinery protects the guaranteed class by
*admission*; the size-aware literature (SRPT, Nudge, SPLIT — see
PAPERS.md) protects the tail by *ordering* or *placement*.  This
experiment runs both families over the same sized workloads and reports
the deep tail, where the difference lives:

* **open** — the bimodal long/short trace of the work-bound study,
  replayed open-loop through every policy;
* **closed** — a closed-loop user population with the same demand mix
  (arrival instants react to the policy's own completions);
* **chaos** — the open trace again, on the fault-injected stack with a
  randomized crash/droop/storm schedule and timeout/retry armed.

Percentiles are exact order statistics (:meth:`~repro.sim.stats.
ResponseTimeCollector.percentile_exact`): at p99.9 a few hundred samples
leave zero room for interpolation to invent values between the worst
observations.  ``benchmarks/bench_tails.py`` publishes this table as
``BENCH_tails.json``; the CI ``tails-smoke`` job replays it at a reduced
horizon and audits the schema plus per-policy invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reporting import format_table
from ..faults.harness import run_chaos
from ..record import RunRecord
from ..sched.registry import ALL_POLICIES
from ..shaping import RunConfig, WorkloadShaper, run_policy
from ..workload import BimodalDemand, UserPopulation, poisson_poisson_workload
from ..workload.closedloop import run_closed_loop
from .common import ExperimentConfig

#: The long/short mix shared with the work-bound study: 88% unit jobs,
#: 12% eight-unit jobs — the shape that separates size-aware policies.
DEMANDS = BimodalDemand(short=1.0, long=8.0, long_fraction=0.12)

#: The user population offering the open-loop load.
POPULATION = UserPopulation(mean_users=24.0, requests_per_minute=100.0, window=30.0)

#: QoS target for the capacity plan.
DELTA = 0.25
FRACTION = 0.90

#: Closed-loop population scale (users count, think time in seconds).
CLOSED_USERS = 30
CLOSED_THINK = 0.5

#: Scenario keys, in presentation order.
SCENARIOS = ("open", "closed", "chaos")


@dataclass(frozen=True)
class TailCell:
    """One (policy, scenario) run's tail summary."""

    policy: str
    scenario: str
    completed: int
    primary_misses: int
    fraction_within: float
    p50: float
    p99: float
    p999: float
    conserved: bool


@dataclass(frozen=True)
class TailBakeoffResult:
    cells: list
    n_requests: int
    mean_demand: float
    cmin: float
    delta_c: float
    delta: float
    policies: tuple


def _cell(policy: str, scenario: str, record: RunRecord) -> TailCell:
    overall = record.overall
    return TailCell(
        policy=policy,
        scenario=scenario,
        completed=record.ledger["completed"],
        primary_misses=record.primary_misses,
        fraction_within=record.fraction_within(DELTA),
        p50=overall.percentile_exact(50),
        p99=overall.percentile_exact(99),
        p999=overall.percentile_exact(99.9),
        conserved=record.conserved(),
    )


def run(config: ExperimentConfig | None = None) -> TailBakeoffResult:
    config = config or ExperimentConfig()
    workload = poisson_poisson_workload(
        POPULATION,
        duration=config.duration,
        seed=31 + config.seed_offset,
        demand_sampler=DEMANDS,
        name="bimodal-tails",
    )
    plan = WorkloadShaper(delta=DELTA, fraction=FRACTION).plan(workload)
    # The shaper plans on the count basis (unit-cost requests); rescale
    # to the work basis so the server is stable under the sized mix and
    # the *ordering* policies — not raw overload — decide the tail.
    scale = workload.total_work / len(workload) if len(workload) else 1.0
    cmin = plan.cmin * scale
    delta_c = plan.delta_c * scale
    stack = RunConfig(cmin, delta_c, DELTA)
    cells = []
    for policy in ALL_POLICIES:
        cells += [
            _cell(policy, "open", run_policy(workload, policy, config=stack)),
            _cell(policy, "closed", run_closed_loop(
                policy,
                stack,
                n_users=CLOSED_USERS,
                think_time=CLOSED_THINK,
                horizon=config.duration,
                seed=37 + config.seed_offset,
                demand_sampler=DEMANDS,
            )),
            _cell(policy, "chaos", run_chaos(
                workload, policy, cmin, delta_c, DELTA,
                seed=41 + config.seed_offset,
            )),
        ]
    demands = workload.demands()
    return TailBakeoffResult(
        cells=cells,
        n_requests=len(workload),
        mean_demand=float(demands.mean()) if len(workload) else 0.0,
        cmin=cmin,
        delta_c=delta_c,
        delta=DELTA,
        policies=ALL_POLICIES,
    )


def render(result: TailBakeoffResult) -> str:
    rows = []
    for cell in result.cells:
        rows.append([
            cell.policy,
            cell.scenario,
            cell.completed,
            cell.primary_misses,
            f"{cell.fraction_within:.3f}",
            f"{cell.p50 * 1e3:.1f}",
            f"{cell.p99 * 1e3:.1f}",
            f"{cell.p999 * 1e3:.1f}",
            "yes" if cell.conserved else "VIOLATED",
        ])
    header = (
        f"Size-aware tail bakeoff across {len(result.policies)} policies "
        f"(bimodal {DEMANDS.short:g}/{DEMANDS.long:g} demands, "
        f"{DEMANDS.long_fraction:.0%} long; {result.n_requests} requests, "
        f"mean demand {result.mean_demand:.2f}; plan Cmin={result.cmin:g}, "
        f"deltaC={result.delta_c:g}, delta={result.delta * 1e3:g} ms; "
        f"percentiles are exact order statistics)"
    )
    return format_table(
        ["policy", "scenario", "done", "Q1 misses",
         f"frac<={result.delta * 1e3:g}ms", "p50 (ms)", "p99 (ms)",
         "p99.9 (ms)", "conserved"],
        rows,
        title=header,
    )
