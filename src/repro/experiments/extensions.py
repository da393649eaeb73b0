"""Extension experiments beyond the paper's evaluation.

Two studies the paper gestures at but does not measure:

* **Cascade SLAs** ("two *or more* classes", Section 2): how much
  capacity a three-level gold/silver/bronze SLA saves versus (a) the
  worst-case single class and (b) a flat two-class decomposition at the
  silver tier's deadline.
* **Online provisioning**: a shadow-mode provisioning loop
  (:class:`~repro.serve.autoscaler.Autoscaler`) tracking each stand-in
  workload with a sliding window — how close does a live estimate get to
  the offline ``Cmin``, and how large is its high-water mark?
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reporting import format_table
from ..core.capacity import CapacityPlanner
from ..core.multiclass import plan_and_decompose
from ..core.sla import GraduatedSLA
from ..serve.autoscaler import Autoscaler, AutoscalerConfig
from ..units import ms, to_ms
from .common import PAPER_WORKLOADS, ExperimentConfig

#: The gold/silver tiers of the cascade study.
CASCADE_SLA = ((0.90, ms(10)), (0.99, ms(100)))


@dataclass(frozen=True)
class CascadeCell:
    workload_name: str
    tier_capacities: tuple
    cascade_total: float
    worst_case: float
    flat_silver: float
    coverage: tuple


@dataclass(frozen=True)
class StreamingCell:
    workload_name: str
    offline_cmin: float
    final_estimate: float
    high_water_mark: float
    replans: int


@dataclass(frozen=True)
class ExtensionsResult:
    cascade: list
    streaming: list
    delta: float


def run(config: ExperimentConfig | None = None) -> ExtensionsResult:
    config = config or ExperimentConfig()
    sla = GraduatedSLA(list(CASCADE_SLA))
    cascade_cells = []
    streaming_cells = []
    for name in PAPER_WORKLOADS:
        workload = config.workload(name)

        tiers, assignment = plan_and_decompose(workload, sla)
        worst = CapacityPlanner(workload, ms(10)).min_capacity(1.0)
        flat = CapacityPlanner(workload, ms(100)).min_capacity(0.99)
        cascade_cells.append(
            CascadeCell(
                workload_name=workload.name,
                tier_capacities=tuple(c for c, _ in tiers),
                cascade_total=float(sum(c for c, _ in tiers)),
                worst_case=worst,
                flat_silver=flat,
                coverage=tuple(assignment.cumulative_fractions()),
            )
        )

        window = min(60.0, config.duration / 2)
        scaler = Autoscaler(
            None,
            ms(10),
            AutoscalerConfig(interval=window / 6, window=window, fraction=0.9),
        )
        estimates = [d.recommended for d in scaler.replay(workload.arrivals)]
        offline = CapacityPlanner(workload, ms(10)).min_capacity(0.9)
        streaming_cells.append(
            StreamingCell(
                workload_name=workload.name,
                offline_cmin=offline,
                final_estimate=estimates[-1] if estimates else 0.0,
                high_water_mark=max(estimates, default=0.0),
                replans=len(estimates),
            )
        )
    return ExtensionsResult(
        cascade=cascade_cells, streaming=streaming_cells, delta=ms(10)
    )


def render(result: ExtensionsResult) -> str:
    sla_label = " + ".join(
        f"{f:.0%}@{to_ms(d):g}ms" for f, d in CASCADE_SLA
    )
    rows = []
    for cell in result.cascade:
        rows.append([
            cell.workload_name,
            " + ".join(f"{c:.0f}" for c in cell.tier_capacities),
            int(cell.cascade_total),
            int(cell.worst_case),
            f"{cell.worst_case / cell.cascade_total:.1f}x",
            " / ".join(f"{c:.1%}" for c in cell.coverage),
        ])
    cascade_table = format_table(
        ["workload", "tier Cmins", "cascade", "worst case", "saving", "coverage"],
        rows,
        title=f"Cascade SLAs ({sla_label}) vs worst-case provisioning",
    )
    rows = []
    for cell in result.streaming:
        rows.append([
            cell.workload_name,
            int(cell.offline_cmin),
            int(cell.final_estimate),
            int(cell.high_water_mark),
            f"{cell.high_water_mark / cell.offline_cmin:.2f}",
            cell.replans,
        ])
    streaming_table = format_table(
        ["workload", "offline Cmin", "final estimate", "high-water",
         "HWM/offline", "replans"],
        rows,
        title="Online (sliding-window) capacity estimation at (90%, 10 ms)",
    )
    return cascade_table + "\n\n" + streaming_table
