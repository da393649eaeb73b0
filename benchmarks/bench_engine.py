"""Execution-engine benchmarks: scalar event loop vs columnar batch.

Two modes, mirroring ``bench_kernels.py``:

* Under pytest (``make bench``) these are pytest-benchmark cases, one
  per engine, on a mid-sized Poisson trace.
* As a script (``make bench-json`` /
  ``python benchmarks/bench_engine.py --output BENCH_engine.json``) it
  times both engines end-to-end over a (trace size x policy) matrix
  from 10^4 to 10^6 requests, times the columnar farm kernel against
  the event-driven ``ServerFarm`` from 1 to 1000 units, certifies
  bit-parity on every case, and writes the report as JSON.

``--quick`` is the CI smoke gate: on the 10^5-request reference trace
it fails (exit 1) if ``engine_parity`` reports any divergence or the
batch engine regresses below :data:`MIN_QUICK_SPEEDUP` on either
policy.

The committed ``BENCH_engine.json`` was produced by the script mode;
regenerate it with ``make bench-json`` after touching either engine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

if __name__ == "__main__":  # script mode works from a source checkout
    _src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    if os.path.isdir(_src):
        sys.path.insert(0, os.path.abspath(_src))

import numpy as np
import pytest

from repro.shaping import RunConfig, run_policy
from repro.sim import batch
from repro.traces.synthetic import poisson_workload

#: Reference configuration: overloaded enough that Split exercises both
#: queues (same shape as the committed speedup measurements).
RATE = 350.0
CMIN = 300.0
DELTA_C = 60.0
DELTA = 0.05

#: Trace sizes for the end-to-end matrix (requests, approximate —
#: Poisson draws the exact count).
SIZES = (10_000, 100_000, 1_000_000)

#: Farm sizes for the columnar farm kernel vs the event-driven farm.
FARM_UNITS = (1, 10, 100, 1000)

#: CI gate: minimum batch speedup on the 10^5-request reference trace.
MIN_QUICK_SPEEDUP = 5.0

POLICIES = ("fcfs", "split")


def reference_workload(n_requests: int, seed: int = 17):
    """A Poisson trace with ~``n_requests`` arrivals at :data:`RATE`."""
    duration = n_requests / RATE
    return poisson_workload(
        rate=RATE, duration=duration, seed=seed, name=f"poisson-{n_requests}"
    )


# ---------------------------------------------------------------------------
# pytest-benchmark mode
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_workload():
    return reference_workload(30_000)


@pytest.mark.parametrize("engine", ("scalar", "batch"))
@pytest.mark.parametrize("policy", POLICIES)
def test_run_policy_engine(benchmark, bench_workload, policy, engine):
    result = benchmark.pedantic(
        run_policy,
        args=(bench_workload, policy, CMIN, DELTA_C, DELTA),
        kwargs={"engine": engine},
        rounds=3,
        iterations=1,
    )
    assert result.engine == engine
    assert len(result.overall) == len(bench_workload)


@pytest.mark.parametrize("units", (10, 1000))
def test_farm_kernel(benchmark, bench_workload, units):
    completions = benchmark.pedantic(
        batch.farm_fcfs_completions,
        args=(bench_workload.arrivals, units, CMIN),
        rounds=3,
        iterations=1,
    )
    assert completions.size == len(bench_workload)


# ---------------------------------------------------------------------------
# Script mode: the BENCH_engine.json report
# ---------------------------------------------------------------------------


def _timed(fn, *args, reps: int = 1, **kwargs) -> tuple[float, object]:
    """Best-of-``reps`` wall time plus the (last) result."""
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def _bench_end_to_end(workload, policy: str, reps: int) -> dict:
    scalar_s, scalar_run = _timed(
        run_policy, workload, policy,
        config=RunConfig(CMIN, DELTA_C, DELTA, engine="scalar"), reps=reps,
    )
    batch_s, batch_run = _timed(
        run_policy, workload, policy,
        config=RunConfig(CMIN, DELTA_C, DELTA, engine="batch"), reps=reps,
    )
    parity_ok = (
        batch_run.overall.samples.tolist() == scalar_run.overall.samples.tolist()
        and batch_run.primary.samples.tolist() == scalar_run.primary.samples.tolist()
        and batch_run.primary_misses == scalar_run.primary_misses
    )
    return {
        "workload": workload.name,
        "policy": policy,
        "n_requests": len(workload),
        "scalar_s": round(scalar_s, 4),
        "batch_s": round(batch_s, 4),
        "speedup": round(scalar_s / batch_s, 2),
        "bit_parity_ok": parity_ok,
    }


def _bench_farm(workload, units: int, reps: int) -> dict:
    from repro.sched.fcfs import FCFSScheduler
    from repro.server.driver import DeviceDriver
    from repro.server.farm import constant_rate_farm
    from repro.sim.engine import Simulator
    from repro.sim.source import WorkloadSource

    def event_farm():
        sim = Simulator()
        driver = DeviceDriver(
            sim, constant_rate_farm(sim, CMIN, units), FCFSScheduler()
        )
        WorkloadSource(sim, workload, driver).start()
        sim.run()
        completions = np.empty(len(workload))
        for request in driver.completed:
            completions[request.index] = request.completion
        return completions

    scalar_s, event = _timed(event_farm, reps=reps)
    batch_s, columnar = _timed(
        batch.farm_fcfs_completions, workload.arrivals, units, CMIN, reps=reps
    )
    return {
        "workload": workload.name,
        "units": units,
        "n_requests": len(workload),
        "scalar_s": round(scalar_s, 4),
        "batch_s": round(batch_s, 4),
        "speedup": round(scalar_s / batch_s, 2),
        "bit_parity_ok": bool(np.array_equal(event, columnar)),
    }


def _quick_gate() -> int:
    """CI smoke: parity + speedup floor on the 10^5 reference trace."""
    from repro.check.differential import engine_parity

    workload = reference_workload(100_000)
    parity = engine_parity(workload, CMIN, DELTA_C, DELTA)
    print(parity.summary())
    failed = not parity.ok
    for policy in POLICIES:
        row = _bench_end_to_end(workload, policy, reps=1)
        print(
            f"{policy:>6s} @ n={row['n_requests']}: scalar {row['scalar_s']:.2f}s"
            f"  batch {row['batch_s']:.2f}s  speedup {row['speedup']:.1f}x"
            f"  parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
        )
        if not row["bit_parity_ok"]:
            print(f"FAIL: {policy} lost bit parity")
            failed = True
        if row["speedup"] < MIN_QUICK_SPEEDUP:
            print(
                f"FAIL: {policy} speedup {row['speedup']:.1f}x is below the "
                f"{MIN_QUICK_SPEEDUP:.0f}x floor"
            )
            failed = True
    print("engine smoke: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI gate: parity + speedup floor on the 10^5 trace, no JSON",
    )
    args = parser.parse_args(argv)

    if args.quick:
        return _quick_gate()

    results = []
    for n in SIZES:
        workload = reference_workload(n)
        # One rep at 10^6: the scalar engine alone takes ~12 s per run.
        reps = args.reps if n < SIZES[-1] else 1
        for policy in POLICIES:
            row = _bench_end_to_end(workload, policy, reps)
            results.append(row)
            print(
                f"{policy:>6s} @ n={row['n_requests']:>7d}: "
                f"scalar {row['scalar_s']:8.3f}s  batch {row['batch_s']:7.3f}s  "
                f"speedup {row['speedup']:6.1f}x  "
                f"parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
            )

    farm_workload = reference_workload(100_000)
    farms = []
    for units in FARM_UNITS:
        row = _bench_farm(farm_workload, units, args.reps)
        farms.append(row)
        print(
            f"farm x{units:>4d} @ n={row['n_requests']}: "
            f"event {row['scalar_s']:7.3f}s  columnar {row['batch_s']:7.3f}s  "
            f"speedup {row['speedup']:6.1f}x  "
            f"parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
        )

    largest = [r for r in results if r["n_requests"] >= 0.9 * SIZES[-1]]
    summary = {
        "all_parity_ok": all(
            r["bit_parity_ok"] for r in results + farms
        ),
        "speedup_at_1e6": {r["policy"]: r["speedup"] for r in largest},
        "min_speedup_at_1e6": min(r["speedup"] for r in largest),
    }
    report = {
        "meta": {
            "rate": RATE,
            "cmin": CMIN,
            "delta_c": DELTA_C,
            "delta": DELTA,
            "reps": args.reps,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "end_to_end": results,
        "farm": farms,
        "summary": summary,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0 if summary["all_parity_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
