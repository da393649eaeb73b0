"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``).

* a reduced-size run of every workload, untraced and traced, prints a
  final JSON line naming every metric of ``BENCHMARK.json`` with its unit;
* the output checks catch injected faults: a dropped response, one
  perturbed serve-vs-offline response, a scalar/batch mismatch, a
  non-minimal plan and counts that do not repeat;
* in a directory holding only the benchmark, the run fails without
  printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from repro.faults import run_resilient  # noqa: E402
from repro.faults.retry import RetryPolicy  # noqa: E402
from repro.faults.schedule import random_schedule  # noqa: E402
from repro.serve import ServiceHarness  # noqa: E402
from repro.shaping import RunConfig, run_policy  # noqa: E402
from repro.traces import library  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    from run import END_TO_END_UNITS

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as f:
        record = json.load(f)
    assert set(record["workloads"]) == set(WORKLOADS)
    predicted = {m for p in record["predictions"] for m in p["metrics"]}
    assert predicted == set(PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_reduced_run_emits_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", trace, "--scale", "0.02")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert np.isfinite(m["value"]), name
        if trace == "0":
            assert m["value"] > 0, name
        # Every metric is printed by name with its unit.
        assert any(line.startswith(name) for line in done.stdout.splitlines())


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = _run(tmp_path, "--workload", "plan-batch", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


# ----------------------------------------------------------------------
# The checks catch injected faults
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace():
    return library.openmail(4.0, seed=5)


def _columns(result):
    return {
        "overall": result.overall.samples,
        "primary": result.primary.samples,
        "overflow": result.overflow.samples,
        "primary_misses": result.primary_misses,
    }


@pytest.mark.parametrize("policy", ["fcfs", "split"])
def test_engine_parity_catches_mismatch(trace, policy):
    config = RunConfig(900.0, 100.0, 0.010)
    fast = run_policy(trace, policy, config=config)
    slow = run_policy(trace, policy, config=config.with_engine("scalar"))
    assert fast.engine == "batch"
    assert checks.engine_parity("ok", _columns(fast), _columns(slow)) == []

    perturbed = _columns(fast)
    perturbed["overall"] = perturbed["overall"].copy()
    perturbed["overall"][7] = np.nextafter(perturbed["overall"][7], np.inf)
    assert checks.engine_parity("ulp", perturbed, _columns(slow))

    dropped = _columns(fast)
    dropped["overall"] = dropped["overall"][1:]
    assert checks.engine_parity("dropped", dropped, _columns(slow))

    missed = _columns(fast)
    missed["primary_misses"] += 1
    assert checks.engine_parity("misses", missed, _columns(slow))


def test_conservation_catches_dropped_response():
    assert checks.conservation("ok", 10, {"completed": 9, "shed": 1}) == []
    assert checks.conservation("lost", 10, {"completed": 9, "dropped": 0, "shed": 0})
    assert checks.conservation("window", 10, {"completed": 10, "window": 1})


def test_serve_check_catches_perturbed_response():
    workload = library.websearch(20.0, seed=9)
    delta = 0.050
    schedule = random_schedule(4, horizon=workload.duration, units=2)
    retry = RetryPolicy(timeout_q1=10 * delta, timeout_q2=40 * delta,
                        max_retries=3, backoff_base=delta / 2)
    served = ServiceHarness(
        "split", 300.0, 20.0, delta, faults=schedule, retry=retry,
        adaptive=True, seed=4,
    ).replay(workload, chunks=4)
    offline = run_resilient(workload, "split", 300.0, 20.0, delta,
                            schedule=schedule, retry=retry, adaptive=True, seed=4)
    responses = np.full(len(workload), np.nan)
    for request in offline.completed:
        responses[request.index] = request.completion - request.arrival
    ledger = {"completed": len(offline.completed), "dropped": len(offline.dropped),
              "shed": len(offline.shed)}
    assert checks.serve_matches_offline(
        "ok", served.responses, dict(served.ledger), responses, ledger
    ) == []

    perturbed = served.responses.copy()
    perturbed[3] = np.nextafter(perturbed[3], np.inf)
    assert checks.serve_matches_offline(
        "perturbed", perturbed, dict(served.ledger), responses, ledger
    )
    lost = served.responses.copy()
    lost[5] = np.nan
    assert checks.serve_matches_offline("lost", lost, dict(served.ledger), responses, ledger)
    assert checks.serve_matches_offline(
        "ledger", served.responses, {**served.ledger, "dropped": 1}, responses, ledger
    )


def test_planner_check_catches_non_minimal_plan(trace):
    from repro.core.capacity import CapacityPlanner
    from repro.perf import kernels

    instants, counts = trace.arrival_counts()

    def count(capacity):
        return kernels.count_admitted(instants, counts, capacity, 0.010, backend="numpy")

    cmin = CapacityPlanner(trace, 0.010).min_capacity(0.95)
    assert checks.planner_minimal("ok", count, len(trace), 0.95, cmin) == []
    assert checks.planner_minimal("high", count, len(trace), 0.95, cmin + 1)
    assert checks.planner_minimal("low", count, len(trace), 0.95, cmin - 1)


def test_repetition_checks():
    assert checks.repeats("ok", ["a", "a", "a"]) == []
    assert checks.repeats("drift", ["a", "a", "b"])
    assert checks.counts_repeat("ok", [{"events": 3}, {"events": 3}]) == []
    assert checks.counts_repeat("drift", [{"events": 3}, {"events": 4}])
    assert checks.split_zero_misses("ok", 0) == []
    assert checks.split_zero_misses("miss", 1)
