"""Compare the recombination policies on one workload (Figure 6 style).

Runs FCFS, Split, FairQueue, WF²Q and Miser on the WebSearch stand-in at
identical total capacity and prints, per policy: deadline compliance, the
paper's response-time histogram bins, the per-class breakdown, and the
overflow-class statistics that distinguish Miser from FairQueue.

Run:  python examples/scheduler_comparison.py [duration_seconds]
"""

from __future__ import annotations

import sys

from repro.analysis.reporting import format_table
from repro.core.capacity import CapacityPlanner
from repro.shaping import run_policy
from repro.traces import websearch
from repro.units import ms, to_ms

POLICIES = ("fcfs", "split", "fairqueue", "wf2q", "miser")
EDGES = (ms(50), ms(100), ms(500), ms(1000))


def main(duration: float = 120.0) -> None:
    delta, fraction = ms(50), 0.90
    workload = websearch(duration=duration)
    planner = CapacityPlanner(workload, delta)
    cmin = planner.min_capacity(fraction)
    delta_c = 1.0 / delta

    print(f"{workload.name}: {len(workload)} requests, target "
          f"({fraction:.0%}, {to_ms(delta):g} ms), capacity "
          f"{cmin:.0f}+{delta_c:.0f} IOPS\n")

    results = {
        policy: run_policy(workload, policy, cmin, delta_c, delta)
        for policy in POLICIES
    }

    headers = (
        ["policy"]
        + [f"<={to_ms(e):g}ms" for e in EDGES]
        + [f">{to_ms(EDGES[-1]):g}ms", "Q1 misses", "max RT"]
    )
    rows = []
    for policy, result in results.items():
        bins = result.overall.binned_fractions(list(EDGES))
        rows.append(
            [policy]
            + [f"{v:.1%}" for v in bins.values()]
            + [result.primary_misses, f"{result.overall.stats.max * 1000:.0f} ms"]
        )
    print(format_table(headers, rows, title="Response time distribution"))

    print("\nOverflow (best-effort) class:")
    rows = []
    for policy, result in results.items():
        if len(result.overflow) == 0:
            continue
        rows.append([
            policy,
            len(result.overflow),
            f"{result.overflow.stats.mean * 1000:.0f} ms",
            f"{result.overflow.percentile(99) * 1000:.0f} ms",
            f"{result.overflow.stats.max * 1000:.0f} ms",
        ])
    print(format_table(["policy", "requests", "mean", "p99", "max"], rows))

    miser, fair = results["miser"], results["fairqueue"]
    if len(fair.overflow) and fair.overflow.stats.mean > 0:
        ratio = miser.overflow.stats.mean / fair.overflow.stats.mean
        print(f"\nMiser serves the overflow class at {ratio:.0%} of "
              f"FairQueue's mean response time (Figure 6c).")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 120.0)
