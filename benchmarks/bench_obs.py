"""Observability overhead: the disabled path must be near-free.

The metrics plane is opt-in; every component defaults to the shared
no-op :data:`~repro.obs.registry.NULL_REGISTRY`.  These benchmarks keep
that promise honest two ways:

* **bottom-up** — time the exact no-op calls the hot paths execute per
  request when metrics are disabled, and assert their total is < 5% of
  the measured per-request simulation cost;
* **end-to-end** — time disabled and fully-enabled runs so both costs
  are visible in benchmark reports, with a 2x tripwire on the enabled
  path.
"""

from __future__ import annotations

import statistics
import time

from repro.obs import MetricsRegistry
from repro.obs.registry import NULL_REGISTRY
from repro.shaping import RunConfig, run_policy

#: Maximum tolerated share of per-request time spent in disabled hooks.
MAX_DISABLED_OVERHEAD = 0.05

#: Null instrument operations executed per request when disabled: the
#: driver's arrival/dispatch null ``inc`` pair, the scheduler's
#: ``_note_arrival`` / ``_note_dispatch`` / ``_note_completion`` early
#: returns, and the driver's ``_observed`` completion check.
DISABLED_OPS_PER_REQUEST = 6


def _median_seconds(fn, rounds: int = 5) -> float:
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _simulate(workload, metrics=None, sample_interval=None):
    return run_policy(
        workload,
        "miser",
        config=RunConfig(
            150.0, 30.0, 0.05, metrics=metrics, sample_interval=sample_interval
        ),
    )


def _null_op_seconds(iterations: int = 200_000) -> float:
    """Median per-call cost of the disabled-path unit of work: one
    ``enabled`` gate check plus one no-op counter increment."""
    counter = NULL_REGISTRY.counter("bench")

    def loop():
        enabled = NULL_REGISTRY.enabled
        for _ in range(iterations):
            if enabled:
                pass
            counter.inc()

    return _median_seconds(loop) / iterations


def test_disabled_overhead_under_bound(workloads):
    """Disabled-path hook cost is < 5% of per-request simulation cost."""
    w = workloads["fintrans"]
    _simulate(w)  # warm-up
    per_request = _median_seconds(lambda: _simulate(w)) / len(w)
    hook_cost = DISABLED_OPS_PER_REQUEST * _null_op_seconds()
    overhead = hook_cost / per_request
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled metrics hooks cost {overhead:.2%} of per-request time "
        f"(bound {MAX_DISABLED_OVERHEAD:.0%})"
    )


def _tick_seconds(ticks: int = 100_000) -> float:
    """Median per-tick cost of a dormant monitoring grid: one reschedule
    of the single ``_PeriodicTick`` event object plus a no-op callback."""
    from repro.sim.engine import Simulator

    def loop():
        sim = Simulator()
        sim.every(1.0, lambda: None, until=float(ticks))
        sim.run()

    return _median_seconds(loop, rounds=3) / ticks


def test_dormant_tick_overhead_under_bound(workloads):
    """A standard 10 Hz monitoring grid left installed while
    observability is dormant adds < 5% to the simulation cost of a
    library workload.  Guards the ``Simulator.every`` redesign: one
    reschedulable event object per grid, no per-tick closure
    allocation."""
    w = workloads["fintrans"]
    _simulate(w)  # warm-up
    per_request = _median_seconds(lambda: _simulate(w)) / len(w)
    per_tick = _tick_seconds()
    ticks_per_request = (1.0 / 0.1) / w.mean_rate  # 10 Hz standard probe
    overhead = per_tick * ticks_per_request / per_request
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"dormant 10 Hz monitoring grid costs {overhead:.2%} of "
        f"per-request time (bound {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_disabled_run_benchmark(benchmark, workloads):
    """Reference timing: the default (unobserved) simulation."""
    w = workloads["fintrans"]
    result = benchmark.pedantic(lambda: _simulate(w), rounds=3, iterations=1)
    assert len(result.overall) == len(w)
    assert result.telemetry is None


def test_enabled_run_benchmark(benchmark, workloads):
    """Reference timing: counters + 10 Hz sampling enabled."""
    w = workloads["fintrans"]

    def observed():
        return _simulate(w, metrics=MetricsRegistry(), sample_interval=0.1)

    result = benchmark.pedantic(observed, rounds=3, iterations=1)
    assert result.telemetry is not None
    assert result.telemetry.registry.value("driver.completions") == len(w)


def test_enabled_overhead_is_bounded(workloads):
    """Fully-on observability stays within 2x — a regression tripwire
    for accidentally quadratic instrumentation, not a design target."""
    w = workloads["fintrans"]
    _simulate(w)
    baseline = _median_seconds(lambda: _simulate(w), rounds=3)
    enabled = _median_seconds(
        lambda: _simulate(w, metrics=MetricsRegistry(), sample_interval=0.1),
        rounds=3,
    )
    assert enabled / baseline < 2.0, (
        f"instrumented run is {enabled / baseline:.2f}x the baseline"
    )
