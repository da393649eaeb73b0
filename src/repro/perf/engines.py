"""Execution engines: scalar event loop vs columnar batch.

The kernel backends (:mod:`repro.perf.kernels`) are implementations of
the RTT admission recurrence; the *execution engine* is what
:func:`repro.shaping.run_policy` uses to serve a workload:

``scalar``
    The discrete-event simulation loop (:mod:`repro.sim.engine`) — one
    heapq event per arrival/completion, one ``Request`` object per
    arrival.  Reference semantics; always applicable.
``batch``
    The columnar fast path (:mod:`repro.sim.batch`) — struct-of-arrays
    storage and sequential Lindley recurrences that replay the event
    engine's float arithmetic bit-for-bit, with numpy for everything
    around them.  Only applicable to configurations whose dynamics
    reduce to the Lindley form (see :func:`repro.sim.batch.supports`).

Selection follows the inputs: ``run_policy`` takes the batch engine
exactly when :func:`repro.sim.batch.supports` accepts the policy and
:class:`~repro.stack.RunConfig`.  ``RunConfig.engine`` (``"scalar"`` or
``"batch"``; ``None``/``"auto"`` is the rule above) pins one engine for
one call — the reference the parity checks and benchmarks compare
against; requesting ``"batch"`` for an ineligible configuration is an
error.

Parity between the two engines is certified by
:func:`repro.check.differential.engine_parity` (identical admitted sets,
completion times within kernel EPS, conservation ledger agreement) and
fuzzed continuously by ``repro-check --differential``.
"""

from __future__ import annotations

#: Engines that exist (``auto`` is a selection rule, not an engine).
ENGINES = ("scalar", "batch")


def available_engines() -> tuple[str, ...]:
    """Names of the execution engines usable in this environment."""
    return ENGINES


def active_engine() -> str:
    """The engine request a ``run_policy`` call without ``engine=`` sees.

    Always ``"auto"``: whether a run lands on the batch path is decided
    per call by :func:`repro.sim.batch.supports`.
    """
    return "auto"
