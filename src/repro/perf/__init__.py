"""Performance layer: interchangeable RTT kernel backends.

The capacity planner evaluates the RTT admission recurrence once per
bisection candidate, which makes :func:`count_admitted` the hottest loop
in the library.  This package provides three implementations behind a
registry — ``scalar`` (reference), ``numpy`` (vectorized safe-run
compression) and ``native`` (compiled C, bit-identical to scalar) — plus
a multi-capacity sweep kernel used to prefill the planner's bisection
cache.  Each call picks the fastest implementation for its input size;
``backend=`` names one implementation for a single call.

See :mod:`repro.perf.kernels` for the dispatch rules and
``benchmarks/bench_kernels.py`` (or ``make bench-json``) for measured
speedups on the bundled traces.

The package also describes the two *execution engines*
(:mod:`repro.perf.engines`) — the discrete-event loop and the columnar
fast path of :mod:`repro.sim.batch` — that serve whole
:func:`repro.shaping.run_policy` simulations; each run takes the fast
path exactly when its configuration qualifies.  See
``benchmarks/bench_engine.py`` / ``BENCH_engine.json``.
"""

from .engines import active_engine, available_engines
from .kernels import (
    NUMPY_MIN_BATCHES,
    KernelBackend,
    active_backend,
    admitted_per_batch,
    available_backends,
    count_admitted,
    count_admitted_sweep,
    dispatch_backend,
)

__all__ = [
    "NUMPY_MIN_BATCHES",
    "KernelBackend",
    "active_backend",
    "active_engine",
    "admitted_per_batch",
    "available_backends",
    "available_engines",
    "count_admitted",
    "count_admitted_sweep",
    "dispatch_backend",
]
