"""Tail-scheduling bakeoff publisher: p99/p99.9 for every policy.

Two modes, mirroring ``bench_engine.py``:

* Under pytest (``make bench``) a reduced-horizon bakeoff runs once and
  a handful of structural assertions keep the published claims honest
  (every policy x scenario cell present, conservation everywhere,
  percentiles ordered).
* As a script (``python benchmarks/bench_tails.py --output
  BENCH_tails.json``) it runs :mod:`repro.experiments.tailbakeoff` at
  full horizon and writes the committed ``BENCH_tails.json``: exact
  order-statistic p50/p99/p99.9 for all policies under the sized
  bimodal open-loop trace, the closed-loop population, and the chaos
  harness.

``--quick`` is the CI ``tails-smoke`` gate: a reduced-horizon bakeoff
plus (a) schema validation of the committed ``BENCH_tails.json`` and
(b) the per-policy invariant audit (every auditable policy runs the
sized trace behind its :class:`~repro.check.invariants.
CheckingScheduler` and must come back clean).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

if __name__ == "__main__":  # script mode works from a source checkout
    _src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    if os.path.isdir(_src):
        sys.path.insert(0, os.path.abspath(_src))

import numpy as np
import pytest

from repro.check.differential import DEFAULT_POLICIES, run_checked
from repro.experiments import tailbakeoff
from repro.experiments.common import ExperimentConfig
from repro.sched.registry import ALL_POLICIES

#: Horizon (seconds) for the committed full report.
FULL_DURATION = 120.0

#: Horizon for the CI smoke gate and the pytest assertions.
QUICK_DURATION = 20.0

#: Keys every published cell must carry.
CELL_KEYS = (
    "policy",
    "scenario",
    "completed",
    "primary_misses",
    "fraction_within",
    "p50",
    "p99",
    "p999",
    "conserved",
)


def _cells_as_dicts(result) -> list[dict]:
    return [
        {
            "policy": c.policy,
            "scenario": c.scenario,
            "completed": c.completed,
            "primary_misses": c.primary_misses,
            "fraction_within": c.fraction_within,
            "p50": c.p50,
            "p99": c.p99,
            "p999": c.p999,
            "conserved": c.conserved,
        }
        for c in result.cells
    ]


def validate_schema(report: dict) -> list[str]:
    """Structural checks on a ``BENCH_tails.json`` payload."""
    problems: list[str] = []
    for key in ("meta", "cells", "summary"):
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems
    cells = report["cells"]
    seen = set()
    for cell in cells:
        missing = [k for k in CELL_KEYS if k not in cell]
        if missing:
            problems.append(f"cell {cell.get('policy')}: missing keys {missing}")
            continue
        seen.add((cell["policy"], cell["scenario"]))
        if not cell["conserved"]:
            problems.append(
                f"{cell['policy']}/{cell['scenario']}: not conserving"
            )
        if not cell["p50"] <= cell["p99"] <= cell["p999"]:
            problems.append(
                f"{cell['policy']}/{cell['scenario']}: percentiles out of "
                f"order ({cell['p50']}, {cell['p99']}, {cell['p999']})"
            )
    for policy in ALL_POLICIES:
        for scenario in tailbakeoff.SCENARIOS:
            if (policy, scenario) not in seen:
                problems.append(f"missing cell {policy}/{scenario}")
    return problems


def _report(duration: float) -> dict:
    result = tailbakeoff.run(ExperimentConfig(duration=duration))
    return {
        "meta": {
            "duration": duration,
            "n_requests": result.n_requests,
            "mean_demand": result.mean_demand,
            "cmin": result.cmin,
            "delta_c": result.delta_c,
            "delta": result.delta,
            "demands": DEMAND_META,
            "percentile_method": "exact-order-statistic",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "cells": _cells_as_dicts(result),
        "summary": {
            "policies": list(result.policies),
            "scenarios": list(tailbakeoff.SCENARIOS),
            "best_open_p999": min(
                (c.p999, c.policy) for c in result.cells if c.scenario == "open"
            )[1],
            "all_conserved": all(c.conserved for c in result.cells),
        },
    }


DEMAND_META = {
    "short": tailbakeoff.DEMANDS.short,
    "long": tailbakeoff.DEMANDS.long,
    "long_fraction": tailbakeoff.DEMANDS.long_fraction,
}


def _invariant_audit(duration: float) -> list[str]:
    """Run every auditable policy over the sized trace, checkers on."""
    from repro.shaping import WorkloadShaper
    from repro.workload import poisson_poisson_workload

    workload = poisson_poisson_workload(
        tailbakeoff.POPULATION,
        duration=duration,
        seed=31,
        demand_sampler=tailbakeoff.DEMANDS,
        name="tails-audit",
    )
    plan = WorkloadShaper(
        delta=tailbakeoff.DELTA, fraction=tailbakeoff.FRACTION
    ).plan(workload)
    scale = workload.total_work / len(workload)
    problems: list[str] = []
    # "split" is audited only on unit traces: its zero-miss guarantee
    # assumes unit demand under count-mode admission.
    for policy in DEFAULT_POLICIES:
        if policy == "split":
            continue
        run = run_checked(
            workload, policy, plan.cmin * scale, plan.delta_c * scale,
            tailbakeoff.DELTA,
        )
        problems.extend(str(v) for v in run.violations)
        if not run.conserved():
            problems.append(
                f"{policy}: completed {len(run.completed)} of {run.n_arrivals}"
            )
    return problems


# ---------------------------------------------------------------------------
# pytest mode
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quick_report():
    return _report(QUICK_DURATION)


def test_schema_clean(quick_report):
    assert validate_schema(quick_report) == []


def test_all_policies_covered(quick_report):
    policies = {c["policy"] for c in quick_report["cells"]}
    assert policies == set(ALL_POLICIES)
    assert len(ALL_POLICIES) >= 8


def test_invariants_clean():
    assert _invariant_audit(QUICK_DURATION) == []


def test_committed_report_schema():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_tails.json")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    assert validate_schema(report) == []


# ---------------------------------------------------------------------------
# Script mode
# ---------------------------------------------------------------------------


def _quick_gate() -> int:
    failed = False
    report = _report(QUICK_DURATION)
    problems = validate_schema(report)
    committed = os.path.join(
        os.path.dirname(__file__), os.pardir, "BENCH_tails.json"
    )
    if os.path.exists(committed):
        with open(committed, encoding="utf-8") as handle:
            problems.extend(
                f"committed: {p}" for p in validate_schema(json.load(handle))
            )
    else:
        problems.append("committed BENCH_tails.json is missing")
    problems.extend(_invariant_audit(QUICK_DURATION))
    for problem in problems:
        print(f"FAIL: {problem}")
        failed = True
    print("tails smoke: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_tails.json")
    parser.add_argument("--duration", type=float, default=FULL_DURATION)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI gate: reduced-horizon bakeoff + schema + invariants, no JSON",
    )
    args = parser.parse_args(argv)

    if args.quick:
        return _quick_gate()

    report = _report(args.duration)
    problems = validate_schema(report)
    for problem in problems:
        print(f"FAIL: {problem}")
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output} ({len(report['cells'])} cells)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
