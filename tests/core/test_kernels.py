"""Cross-validation of the RTT kernel backends (repro.perf).

Property-based parity suite: the scalar reference, the numpy safe-run
compression backend and (when a compiler is present) the native C
backend must agree on admission counts, per-batch admitted counts and
per-request masks — including against the Fraction-exact reference
``decompose_exact`` — across random bursty workloads, fractional
``C * delta`` products, simultaneous-arrival batches and empty traces.

Inputs follow the repo's property-test conventions (millisecond arrival
grid, dyadic capacities/deadlines) so that admission decisions sit far
from the EPS floor boundary and every backend is exactly comparable.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rtt import decompose, decompose_exact
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.perf import (
    NUMPY_MIN_BATCHES,
    active_backend,
    admitted_per_batch,
    available_backends,
    count_admitted,
    count_admitted_sweep,
    dispatch_backend,
)

BACKENDS = available_backends()

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Batched arrival streams on a millisecond grid: sorted distinct
#: instants, each with 1..40 simultaneous arrivals (bursty by design).
batched_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20000), st.integers(1, 40)),
    min_size=0,
    max_size=60,
    unique_by=lambda pair: pair[0],
).map(
    lambda pairs: (
        np.array(sorted(p[0] for p in pairs), dtype=float) / 1000.0,
        np.array([p[1] for p in sorted(pairs)], dtype=np.int64),
    )
)

#: Dyadic capacities, deliberately including values whose ``C * delta``
#: is fractional (the regime where the deadline form and the paper's
#: integer-queue form differ).
capacities = st.integers(min_value=1, max_value=96).map(lambda k: k / 8.0)

#: Dyadic response-time bounds.
deltas = st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0])


def _consistent(instants, counts, capacity, delta):
    """Assert every available backend agrees; return the common answer."""
    reference = count_admitted(instants, counts, capacity, delta, backend="scalar")
    per_batch = admitted_per_batch(instants, counts, capacity, delta, backend="scalar")
    for name in BACKENDS:
        assert count_admitted(instants, counts, capacity, delta, backend=name) == reference
        np.testing.assert_array_equal(
            admitted_per_batch(instants, counts, capacity, delta, backend=name),
            per_batch,
            err_msg=f"backend {name} per-batch mismatch",
        )
    assert int(per_batch.sum()) == reference
    assert np.all(per_batch <= counts)
    return reference


# ---------------------------------------------------------------------------
# Backend parity
# ---------------------------------------------------------------------------


@given(batched_streams, capacities, deltas)
@settings(max_examples=150, deadline=None)
def test_backends_agree_on_random_bursty_streams(stream, capacity, delta):
    instants, counts = stream
    _consistent(instants, counts, capacity, delta)


@given(batched_streams, st.lists(capacities, min_size=1, max_size=6), deltas)
@settings(max_examples=60, deadline=None)
def test_sweep_matches_individual_calls(stream, caps, delta):
    instants, counts = stream
    expected = [
        count_admitted(instants, counts, c, delta, backend="scalar") for c in caps
    ]
    for name in BACKENDS:
        got = count_admitted_sweep(instants, counts, caps, delta, backend=name)
        assert got.tolist() == expected, f"backend {name} sweep mismatch"


@given(capacities, deltas)
@settings(max_examples=20, deadline=None)
def test_empty_trace(capacity, delta):
    empty_t = np.array([], dtype=float)
    empty_n = np.array([], dtype=np.int64)
    for name in BACKENDS:
        assert count_admitted(empty_t, empty_n, capacity, delta, backend=name) == 0
        assert admitted_per_batch(empty_t, empty_n, capacity, delta, backend=name).size == 0
        assert count_admitted_sweep(
            empty_t, empty_n, [capacity], delta, backend=name
        ).tolist() == [0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_accepts_plain_sequences(backend):
    # Kernels take lists as well as arrays (the public count_admitted
    # contract predates the perf layer).
    assert count_admitted([0.0, 0.5, 1.0], [2, 2, 2], 4.0, 0.5, backend=backend) == 6


def test_single_giant_batch():
    # One batch larger than C * delta: exactly floor(C * delta) admitted.
    instants = np.array([1.0])
    counts = np.array([1000], dtype=np.int64)
    for name in BACKENDS:
        assert count_admitted(instants, counts, 8.0, 2.5, backend=name) == 20


# ---------------------------------------------------------------------------
# Parity with the Fraction-exact reference
# ---------------------------------------------------------------------------


@given(batched_streams, capacities, deltas)
@settings(max_examples=60, deadline=None)
def test_mask_matches_decompose_exact(stream, capacity, delta):
    instants, counts = stream
    arrivals = np.repeat(instants, counts)
    workload = Workload(arrivals)
    exact = decompose_exact(workload, Fraction(capacity), Fraction(delta))
    np.testing.assert_array_equal(
        decompose(workload, capacity, delta).admitted, exact.admitted
    )
    # Within a batch the exact mask admits a prefix (trace order), so the
    # per-batch admitted counts pin the whole mask.
    starts = np.cumsum(counts) - counts
    exact_k = (
        np.add.reduceat(exact.admitted.astype(np.int64), starts)
        if counts.size
        else np.zeros(0, dtype=np.int64)
    )
    for name in BACKENDS:
        np.testing.assert_array_equal(
            admitted_per_batch(instants, counts, capacity, delta, backend=name),
            exact_k,
            err_msg=f"backend {name} vs exact",
        )


# ---------------------------------------------------------------------------
# Registry behavior
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_scalar_and_numpy_always_available(self):
        assert "scalar" in BACKENDS
        assert "numpy" in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            count_admitted([0.0], [1], 1.0, 1.0, backend="cuda")

    def test_active_backend_is_available(self):
        assert active_backend() in BACKENDS

    def test_env_var_is_ignored(self, monkeypatch):
        """``REPRO_KERNEL`` no longer selects a backend."""
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        backend = active_backend()
        admitted = count_admitted([0.0, 0.5], [4, 4], 8.0, 0.5)
        monkeypatch.setenv("REPRO_KERNEL", "scalar" if backend != "scalar" else "numpy")
        assert active_backend() == backend
        assert count_admitted([0.0, 0.5], [4, 4], 8.0, 0.5) == admitted

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            count_admitted([0.0], [1], 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            count_admitted([0.0], [1], 1.0, -1.0)
        with pytest.raises(ConfigurationError):
            count_admitted_sweep([0.0], [1], [1.0, -2.0], 1.0)


class TestAutoDispatchCrossover:
    """Regression for the size-aware ``auto`` crossover.

    BENCH_kernels.json showed numpy *losing* to scalar (0.85x) on small
    per-call batch counts: array allocation and safe-run compression
    cost more than they save below ~1000 batches.  ``auto`` without a
    native build must therefore dispatch by input size.
    """

    @pytest.fixture(autouse=True)
    def _auto_without_native(self, monkeypatch):
        """Force the auto rule with no native build."""
        from repro.perf import native

        monkeypatch.setattr(native, "available", lambda: False)

    def test_small_inputs_dispatch_to_scalar(self):
        assert dispatch_backend(0) == "scalar"
        assert dispatch_backend(NUMPY_MIN_BATCHES - 1) == "scalar"

    def test_large_inputs_dispatch_to_numpy(self):
        assert dispatch_backend(NUMPY_MIN_BATCHES) == "numpy"
        assert dispatch_backend(40000) == "numpy"

    def test_native_ignores_size_threshold(self, monkeypatch):
        """Native beats both at every measured size: no crossover."""
        from repro.perf import native

        monkeypatch.setattr(native, "available", lambda: True)
        assert dispatch_backend(1) == "native"
        assert dispatch_backend(NUMPY_MIN_BATCHES) == "native"

    def test_env_var_does_not_beat_size_rule(self, monkeypatch):
        """``REPRO_KERNEL`` is ignored: the size rule alone decides."""
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        assert dispatch_backend(1) == "scalar"
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert dispatch_backend(NUMPY_MIN_BATCHES) == "numpy"

    def test_explicit_backend_beats_size_rule(self):
        """An explicit ``backend=`` is always honored, whatever the size."""
        from repro.perf.kernels import _resolve

        assert _resolve("numpy", size=1).name == "numpy"
        assert _resolve("scalar", size=10 * NUMPY_MIN_BATCHES).name == "scalar"

    def test_small_call_still_correct_under_auto(self):
        """The dispatch switch changes speed, never answers."""
        instants = [0.0, 0.25, 0.5]
        counts = [4, 4, 4]
        auto = count_admitted(instants, counts, 8.0, 0.5)
        assert auto == count_admitted(
            instants, counts, 8.0, 0.5, backend="scalar"
        )
        assert auto == count_admitted(
            instants, counts, 8.0, 0.5, backend="numpy"
        )
