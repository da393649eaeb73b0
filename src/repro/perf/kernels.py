"""Kernel backend registry and dispatch.

Three interchangeable implementations of the RTT hot-path kernels live
behind this registry:

``scalar``
    The original pure-Python per-batch loop (reference semantics).
``numpy``
    Vectorized safe-run compression (:mod:`repro.perf.vectorized`).
``native``
    A C rendition compiled on demand with the system compiler,
    bit-identical to ``scalar`` (:mod:`repro.perf.native`).  Only
    offered when a compiler is present and the build succeeds.

Selection follows the inputs: ``native`` when a compiler built it;
otherwise ``numpy``, except that inputs shorter than
:data:`NUMPY_MIN_BATCHES` batches take the ``scalar`` loop — below that
size numpy's fixed array-pass overhead loses to plain Python (measured
crossover ~1e3 batches; cf. the 0.85x rows in ``BENCH_kernels.json``).
The ``backend=`` argument of each kernel names one implementation for
that call, regardless of size — the parity checks and benchmarks use
it to compare backends against each other.

Every kernel takes the batched ``(instants, counts)`` workload
representation (:meth:`repro.core.workload.Workload.arrival_counts`),
as plain sequences or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.registry import Registry
from ..exceptions import ConfigurationError
from . import native, scalar, vectorized


@dataclass(frozen=True)
class KernelBackend:
    """One implementation of the RTT kernel trio."""

    name: str
    count: Callable
    per_batch: Callable
    sweep: Callable


#: Backend registry; ``backend=None`` is the size rule in :func:`_resolve`.
REGISTRY: Registry[KernelBackend] = Registry("kernel backend")
REGISTRY.register(
    "scalar",
    KernelBackend(
        "scalar",
        scalar.count_admitted,
        scalar.admitted_per_batch,
        scalar.count_admitted_sweep,
    ),
)
REGISTRY.register(
    "numpy",
    KernelBackend(
        "numpy",
        vectorized.count_admitted,
        vectorized.admitted_per_batch,
        vectorized.count_admitted_sweep,
    ),
)
REGISTRY.register(
    "native",
    KernelBackend(
        "native",
        native.count_admitted,
        native.admitted_per_batch,
        native.count_admitted_sweep,
    ),
)

#: ``auto`` dispatch crossover: below this many batches the scalar loop
#: beats the numpy kernel (array allocation and safe-run compression
#: cost more than they save), so size-aware auto dispatch picks scalar.
NUMPY_MIN_BATCHES = 1024


def available_backends() -> tuple[str, ...]:
    """Names of the backends usable in this environment."""
    names = ["scalar", "numpy"]
    if native.available():
        names.append("native")
    return tuple(names)


def _resolve(name: str | None = None, size: int | None = None) -> KernelBackend:
    if name is None:
        if native.available():
            name = "native"
        elif size is not None and size < NUMPY_MIN_BATCHES:
            name = "scalar"
        else:
            name = "numpy"
    backend = REGISTRY.get(name)
    if backend.name == "native" and not native.available():
        raise ConfigurationError(
            "native kernel backend requested but no working C compiler "
            'was found (pass backend="numpy" or install cc/gcc/clang)'
        )
    return backend


def active_backend() -> str:
    """Name of the backend an unsized kernel call would use.

    Size-agnostic: without a native build this reports
    ``numpy`` even though a short input would dispatch to ``scalar`` —
    use :func:`dispatch_backend` to resolve for a concrete size.
    """
    return _resolve().name


def dispatch_backend(size: int) -> str:
    """Backend an auto-dispatched kernel call would use for ``size`` batches."""
    return _resolve(size=size).name


def _validate(capacity: float, delta: float) -> None:
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    if delta <= 0:
        raise ConfigurationError(f"delta must be positive, got {delta}")


def count_admitted(
    instants, counts, capacity: float, delta: float, backend: str | None = None
) -> int:
    """Requests RTT admits to Q1 over the batched stream."""
    _validate(capacity, delta)
    return _resolve(backend, size=len(instants)).count(
        instants, counts, capacity, delta
    )


def admitted_per_batch(
    instants, counts, capacity: float, delta: float, backend: str | None = None
) -> np.ndarray:
    """Admitted count ``k_i`` for every batch (mask-building primitive)."""
    _validate(capacity, delta)
    return _resolve(backend, size=len(instants)).per_batch(
        instants, counts, capacity, delta
    )


def count_admitted_sweep(
    instants, counts, capacities, delta: float, backend: str | None = None
) -> np.ndarray:
    """Admitted counts at many candidate capacities in one call.

    The native backend runs the whole sweep inside one C call; others
    fall back to one kernel pass per capacity.  Capacities need not be
    sorted; the result aligns with the input order.
    """
    _validate(1.0, delta)  # delta only; capacities checked below
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.size and caps.min() <= 0:
        raise ConfigurationError("capacities must be positive")
    return _resolve(backend, size=len(instants)).sweep(instants, counts, caps, delta)
