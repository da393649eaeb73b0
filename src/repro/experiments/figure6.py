"""Figure 6: recombination policies compared on the WebSearch workload.

Panels (a) and (b): the response-time distribution (bins <=50, <=100,
<=500, <=1000, >1000 ms) under FCFS, Split, FairQueue and Miser at
targets (90%, 50 ms) and (95%, 50 ms), every policy getting the same
total capacity ``Cmin + delta_C``.

Panel (c): the overflow (best-effort) class's average and maximum
response time under Miser, normalized to FairQueue.

Reproduction criteria (Section 4.3): the shaped policies hit (or, for
Miser, nearly hit) the target fraction at 50 ms while FCFS lands far
below; FCFS carries the largest >1 s mass; and Miser's overflow class
beats FairQueue's (normalized ratios < 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reporting import format_table
from ..core.capacity import CapacityPlanner
from ..record import RunRecord
from ..shaping import run_policy
from ..units import ms, to_ms
from .common import FIGURE6_EDGES, ExperimentConfig

#: Policies in the paper's presentation order.
FIGURE6_POLICIES = ("fcfs", "split", "fairqueue", "miser")


@dataclass(frozen=True)
class Figure6Panel:
    """One (fraction, delta) panel: all policies at equal total capacity."""

    workload_name: str
    fraction: float
    delta: float
    cmin: float
    delta_c: float
    runs: dict  # policy -> RunRecord

    def bins(self, policy: str) -> dict:
        return self.runs[policy].overall.binned_fractions(list(FIGURE6_EDGES))


@dataclass(frozen=True)
class Figure6Result:
    panels: list
    #: policy -> (overflow mean ratio, overflow max ratio) vs fairqueue,
    #: keyed by target fraction — panel (c).
    overflow_ratios: dict

    def panel(self, fraction: float) -> Figure6Panel:
        for p in self.panels:
            if abs(p.fraction - fraction) < 1e-12:
                return p
        raise KeyError(fraction)


def _overflow_ratio(miser: RunRecord, fair: RunRecord) -> tuple:
    fair_mean = fair.overflow.stats.mean
    fair_max = fair.overflow.stats.max
    if len(miser.overflow) == 0 or len(fair.overflow) == 0:
        return (float("nan"), float("nan"))
    return (
        miser.overflow.stats.mean / fair_mean if fair_mean > 0 else float("nan"),
        miser.overflow.stats.max / fair_max if fair_max > 0 else float("nan"),
    )


def run(
    config: ExperimentConfig | None = None,
    workload_name: str = "websearch",
    delta: float = ms(50),
    fractions=(0.90, 0.95),
    policies=FIGURE6_POLICIES,
) -> Figure6Result:
    """Simulate every policy at every target."""
    config = config or ExperimentConfig()
    workload = config.workload(workload_name)
    planner = CapacityPlanner(workload, delta)
    delta_c = 1.0 / delta
    panels = []
    overflow_ratios = {}
    for fraction in fractions:
        cmin = planner.min_capacity(fraction)
        runs = {
            policy: run_policy(workload, policy, cmin, delta_c, delta)
            for policy in policies
        }
        panels.append(
            Figure6Panel(
                workload_name=workload.name,
                fraction=fraction,
                delta=delta,
                cmin=cmin,
                delta_c=delta_c,
                runs=runs,
            )
        )
        if "miser" in runs and "fairqueue" in runs:
            overflow_ratios[fraction] = _overflow_ratio(
                runs["miser"], runs["fairqueue"]
            )
    return Figure6Result(panels=panels, overflow_ratios=overflow_ratios)


def render(result: Figure6Result) -> str:
    blocks = []
    for panel in result.panels:
        edges_ms = [f"<={to_ms(e):g}" for e in FIGURE6_EDGES] + [
            f">{to_ms(FIGURE6_EDGES[-1]):g}"
        ]
        headers = ["Policy"] + [f"{e} ms" for e in edges_ms] + ["Q1 misses"]
        rows = []
        for policy, run_result in panel.runs.items():
            bins = panel.bins(policy)
            rows.append(
                [policy]
                + [f"{v:.1%}" for v in bins.values()]
                + [run_result.primary_misses]
            )
        blocks.append(
            format_table(
                headers,
                rows,
                title=(
                    f"Figure 6 ({panel.workload_name}): target "
                    f"({panel.fraction:.0%}, {to_ms(panel.delta):g} ms), "
                    f"capacity {panel.cmin:.0f}+{panel.delta_c:.0f} IOPS"
                ),
            )
        )
    if result.overflow_ratios:
        rows = [
            [f"{fraction:.0%}", f"{mean_ratio:.2f}", f"{max_ratio:.2f}"]
            for fraction, (mean_ratio, max_ratio) in sorted(
                result.overflow_ratios.items()
            )
        ]
        blocks.append(
            format_table(
                ["Target", "Miser/FairQueue avg", "Miser/FairQueue max"],
                rows,
                title="Figure 6(c): overflow-class response, Miser normalized to FairQueue",
            )
        )
    return "\n\n".join(blocks)
