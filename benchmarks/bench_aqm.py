"""Bufferbloat/AQM publisher: graduated QoS vs device-queue depth.

Two modes, mirroring ``bench_tails.py``:

* Under pytest a reduced-horizon study runs once and structural
  assertions keep the published claims honest — every aqm x scenario
  cell present, conservation everywhere, and the headline ordering
  itself: the unbounded device queue misses far more ``Q1`` deadlines
  (and admits fewer guaranteed requests) than the no-queue baseline,
  while the managed windows recover most of the loss.
* As a script (``python benchmarks/bench_aqm.py --output
  BENCH_AQM.json``) it runs :mod:`repro.experiments.bufferbloat` at
  full horizon and writes the committed ``BENCH_AQM.json``.

``--quick`` is the CI ``aqm-smoke`` gate: a reduced-horizon study plus
schema validation of the committed ``BENCH_AQM.json``.
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

from repro.experiments import bufferbloat
from repro.experiments.common import ExperimentConfig

#: Horizon (seconds) for the committed full report.
FULL_DURATION = 120.0

#: Horizon for the CI smoke gate and the pytest assertions.
QUICK_DURATION = 20.0

#: Keys every published cell must carry.
CELL_KEYS = (
    "aqm",
    "scenario",
    "completed",
    "q1_completed",
    "primary_misses",
    "fraction_within",
    "p99",
    "conserved",
    "window_depth",
    "squeezes",
    "gated",
)

AQM_LABELS = tuple(a or "none" for a in bufferbloat.AQMS)


def _cells_as_dicts(result) -> list[dict]:
    return [
        {key: getattr(cell, key) for key in CELL_KEYS}
        for cell in result.cells
    ]


def _cell(report: dict, aqm: str, scenario: str) -> dict | None:
    for cell in report["cells"]:
        if cell.get("aqm") == aqm and cell.get("scenario") == scenario:
            return cell
    return None


def validate_schema(report: dict) -> list[str]:
    """Structural checks on a ``BENCH_AQM.json`` payload."""
    problems: list[str] = []
    for key in ("meta", "cells", "summary"):
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems
    seen = set()
    for cell in report["cells"]:
        missing = [k for k in CELL_KEYS if k not in cell]
        if missing:
            problems.append(f"cell {cell.get('aqm')}: missing keys {missing}")
            continue
        seen.add((cell["aqm"], cell["scenario"]))
        if not cell["conserved"]:
            problems.append(f"{cell['aqm']}/{cell['scenario']}: not conserving")
    for aqm in AQM_LABELS:
        for scenario in bufferbloat.SCENARIOS:
            if (aqm, scenario) not in seen:
                problems.append(f"missing cell {aqm}/{scenario}")
    # The published headline must actually hold in the published data.
    bloated = _cell(report, "unbounded", "open")
    baseline = _cell(report, "none", "open")
    codel = _cell(report, "codel", "open")
    if bloated and baseline and codel:
        if bloated["primary_misses"] <= baseline["primary_misses"]:
            problems.append(
                "headline inverted: unbounded device queue shows no more "
                "Q1 misses than the no-queue baseline"
            )
        if codel["primary_misses"] >= bloated["primary_misses"]:
            problems.append(
                "headline inverted: CoDel window does not recover Q1 "
                "misses vs the unbounded queue"
            )
    return problems


def _report(duration: float) -> dict:
    result = bufferbloat.run(ExperimentConfig(duration=duration))
    opens = {
        c.aqm: c for c in result.cells if c.scenario == "open"
    }
    return {
        "meta": {
            "duration": duration,
            "n_requests": result.n_requests,
            "policy": result.policy,
            "cmin": result.cmin,
            "delta_c": result.delta_c,
            "delta": result.delta,
            "burst": {
                "period": bufferbloat.BURST_PERIOD,
                "width": bufferbloat.BURST_WIDTH,
                "size": bufferbloat.BURST_SIZE,
                "steady_rate": bufferbloat.STEADY_RATE,
            },
            "percentile_method": "exact-order-statistic",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "cells": _cells_as_dicts(result),
        "summary": {
            "aqms": list(AQM_LABELS),
            "scenarios": list(bufferbloat.SCENARIOS),
            "open_q1_misses": {
                a: opens[a].primary_misses for a in AQM_LABELS
            },
            "all_conserved": all(c.conserved for c in result.cells),
        },
    }


# ---------------------------------------------------------------------------
# pytest mode
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quick_report():
    return _report(QUICK_DURATION)


def test_schema_clean(quick_report):
    assert validate_schema(quick_report) == []


def test_all_cells_covered(quick_report):
    assert {(c["aqm"], c["scenario"]) for c in quick_report["cells"]} == {
        (a, s) for a in AQM_LABELS for s in bufferbloat.SCENARIOS
    }


def test_bufferbloat_headline(quick_report):
    """The unbounded device queue destroys Q1 (misses and admissions);
    the managed windows recover most of it, in every scenario family
    where the trace applies (open and chaos)."""
    for scenario in ("open", "chaos"):
        cells = {
            c["aqm"]: c
            for c in quick_report["cells"]
            if c["scenario"] == scenario
        }
        assert cells["unbounded"]["primary_misses"] > max(
            1, cells["none"]["primary_misses"]
        ), scenario
        for managed in ("static", "codel", "adaptive"):
            assert (
                cells[managed]["primary_misses"]
                < cells["unbounded"]["primary_misses"]
            ), (scenario, managed)


@pytest.mark.parametrize("scenario", ["open", "closed"])
def test_adaptive_windows_squeeze(quick_report, scenario):
    for aqm in ("codel", "adaptive"):
        cell = _cell(quick_report, aqm, scenario)
        assert cell["squeezes"] > 0, aqm
        assert 0 < cell["window_depth"] < 64, aqm


def test_committed_report_schema():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_AQM.json")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    assert validate_schema(report) == []


# ---------------------------------------------------------------------------
# Script mode
# ---------------------------------------------------------------------------


def _quick_gate() -> int:
    report = _report(QUICK_DURATION)
    problems = validate_schema(report)
    committed = os.path.join(
        os.path.dirname(__file__), os.pardir, "BENCH_AQM.json"
    )
    if os.path.exists(committed):
        with open(committed, encoding="utf-8") as handle:
            problems.extend(
                f"committed: {p}" for p in validate_schema(json.load(handle))
            )
    else:
        problems.append("committed BENCH_AQM.json is missing")
    for problem in problems:
        print(f"FAIL: {problem}")
    misses = report["summary"]["open_q1_misses"]
    print(
        "quick gate: open-loop Q1 misses "
        + ", ".join(f"{a}={misses[a]}" for a in AQM_LABELS)
    )
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_AQM.json", help="report destination"
    )
    parser.add_argument(
        "--duration", type=float, default=FULL_DURATION,
        help="trace horizon in seconds",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced-horizon smoke gate (CI): validate, don't publish",
    )
    args = parser.parse_args()
    if args.quick:
        return _quick_gate()
    report = _report(args.duration)
    problems = validate_schema(report)
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
