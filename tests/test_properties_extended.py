"""Extended property-based tests for the scheduler substrates."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.request import Request
from repro.core.sla import GraduatedSLA
from repro.core.workload import Workload
from repro.core.multiclass import decompose_tiers, plan_and_decompose
from repro.sched.drr import DeficitRoundRobin
from repro.sched.pclock import FlowSLA, PClockScheduler
from repro.serve import Autoscaler, AutoscalerConfig

arrivals = st.lists(
    st.integers(min_value=0, max_value=20000), min_size=1, max_size=100
).map(lambda xs: np.sort(np.asarray(xs, dtype=float)) / 1000.0)


# ---------------------------------------------------------------------------
# pClock properties
# ---------------------------------------------------------------------------


@given(arrivals, st.integers(min_value=1, max_value=20))
@settings(max_examples=50, deadline=None)
def test_pclock_conforming_deadlines_never_exceed_sla(arr, sigma):
    """Within a burst allowance of sigma, any arrival pattern that stays
    inside the token bucket gets exactly arrival + delta as its tag; no
    tag is ever earlier than that."""
    sla = FlowSLA(sigma=float(sigma), rho=100.0, delta=0.05)
    sched = PClockScheduler({1: sla})
    for t in arr:
        r = Request(arrival=float(t), client_id=1)
        sched.on_arrival(r)
        assert r.deadline is not None
        assert r.deadline >= t + sla.delta - 1e-12


@given(arrivals)
@settings(max_examples=50, deadline=None)
def test_pclock_tags_monotone_within_flow(arr):
    """Deadlines of a single flow never decrease: the token bucket only
    pushes tags out, never reorders a flow against itself."""
    sched = PClockScheduler({1: FlowSLA(sigma=2.0, rho=50.0, delta=0.05)})
    tags = []
    for t in arr:
        r = Request(arrival=float(t), client_id=1)
        sched.on_arrival(r)
        tags.append(r.deadline)
    assert tags == sorted(tags)


# ---------------------------------------------------------------------------
# DRR properties
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=4, max_value=50),
)
@settings(max_examples=50, deadline=None)
def test_drr_share_bound_while_backlogged(w1, w2, rounds):
    """While both flows stay backlogged, served counts track weighted
    shares within one quantum's worth of requests."""
    drr = DeficitRoundRobin({1: float(w1), 2: float(w2)})
    for _ in range(rounds):
        drr.add(1, Request(arrival=0.0))
        drr.add(2, Request(arrival=0.0))
    served = {1: 0, 2: 0}
    total_weight = w1 + w2
    quantum_bound = 2.0 * max(w1, w2) / min(w1, w2) + 2.0
    for n in range(1, rounds + 1):
        fid, _ = drr.select()
        served[fid] += 1
        expected = n * w1 / total_weight
        assert abs(served[1] - expected) <= quantum_bound


@given(st.integers(min_value=1, max_value=80))
@settings(max_examples=30, deadline=None)
def test_drr_conserves_and_empties(n):
    drr = DeficitRoundRobin({1: 2.0, 2: 5.0})
    for i in range(n):
        drr.add(1 + i % 2, Request(arrival=float(i)))
    served = 0
    while drr.select() is not None:
        served += 1
    assert served == n
    assert len(drr) == 0


# ---------------------------------------------------------------------------
# Multiclass cascade properties
# ---------------------------------------------------------------------------


@given(arrivals, st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_cascade_labels_partition(arr, capacity):
    w = Workload(arr)
    assignment = decompose_tiers(
        w, [(float(capacity), 0.25), (float(capacity), 1.0)]
    )
    assert sum(assignment.counts()) == len(w)
    assert assignment.labels.min() >= 0
    assert assignment.labels.max() <= 2


@given(arrivals)
@settings(max_examples=30, deadline=None)
def test_cascade_plan_meets_sla(arr):
    w = Workload(arr)
    sla = GraduatedSLA([(0.7, 0.25), (0.95, 1.0)])
    _, assignment = plan_and_decompose(w, sla)
    coverage = assignment.cumulative_fractions()
    assert coverage[0] >= 0.7 - 1e-9
    assert coverage[1] >= 0.95 - 1e-9


# ---------------------------------------------------------------------------
# Streaming (shadow autoscaler replay) properties
# ---------------------------------------------------------------------------


@given(arrivals)
@settings(max_examples=30, deadline=None)
def test_streaming_high_water_dominates_estimates(arr):
    scaler = Autoscaler(
        None, 0.25, AutoscalerConfig(interval=1.0, window=5.0, fraction=0.9)
    )
    decisions = scaler.replay(arr)
    high_water = max((d.recommended for d in decisions), default=0.0)
    for decision in decisions:
        assert decision.recommended <= high_water
        assert decision.observed >= 1


# ---------------------------------------------------------------------------
# Perturbation properties
# ---------------------------------------------------------------------------


@given(arrivals, st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_thin_is_subset_with_expected_size(arr, p):
    from repro.traces.perturb import thin

    w = Workload(arr)
    thinned = thin(w, p, seed=0)
    assert len(thinned) <= len(w)
    original = list(w.arrivals)
    for t in thinned.arrivals:
        assert t in original


@given(arrivals, st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=40, deadline=None)
def test_jitter_preserves_count_and_order(arr, magnitude):
    from repro.traces.perturb import jitter

    w = Workload(arr)
    noisy = jitter(w, magnitude, seed=0)
    assert len(noisy) == len(w)
    assert list(noisy.arrivals) == sorted(noisy.arrivals)
    assert noisy.arrivals.min() >= 0.0


@given(arrivals, st.sampled_from([0.01, 0.1, 0.5]))
@settings(max_examples=40, deadline=None)
def test_batch_quantizes_without_losing_requests(arr, grid):
    """Batching preserves the request count, quantizes every instant
    down to the grid, and moves no arrival by more than one grid step.

    (It does NOT universally increase Cmin: flooring an arrival earlier
    can relieve its successor's deadline pressure on tiny workloads —
    the burstiness increase is a statistical effect, asserted on
    realistic traces in tests/traces/test_perturb.py.)"""
    from repro.traces.perturb import batch

    w = Workload(arr)
    quantized = batch(w, grid)
    assert len(quantized) == len(w)
    for before_t, after_t in zip(w.arrivals, quantized.arrivals):
        assert after_t <= before_t + 1e-12
        assert before_t - after_t < grid + 1e-12
        assert abs(after_t / grid - round(after_t / grid)) < 1e-6
