"""Output checks: invariants any correct build satisfies.

Each check returns a list of problem strings (empty when it passes), so
the benchmark can report every failure of a run at once and its own
tests can feed the checks deliberately broken outputs.
"""

from __future__ import annotations

import math

import numpy as np


def conservation(name: str, submitted: int, ledger: dict) -> list[str]:
    """Every submitted request lands in exactly one terminal bucket."""
    terminal = sum(
        int(ledger.get(key, 0)) for key in ("completed", "dropped", "shed", "rejected")
    )
    problems = []
    if terminal != submitted:
        problems.append(
            f"{name}: conservation violated, {submitted} submitted but "
            f"{terminal} accounted ({ledger})"
        )
    if ledger.get("window", 0):
        problems.append(f"{name}: {ledger['window']} requests left in the device window")
    return problems


def repeats(name: str, digests: list[str]) -> list[str]:
    """Repetitions of one leg within a run produce identical outputs."""
    if len(set(digests)) > 1:
        return [f"{name}: output digest differs across {len(digests)} repetitions"]
    return []


def counts_repeat(name: str, counts: list[dict]) -> list[str]:
    """Deterministic per-layer counts are equal across repetitions."""
    if any(c != counts[0] for c in counts[1:]):
        moved = sorted(
            key for key in counts[0] if any(c.get(key) != counts[0][key] for c in counts)
        )
        return [f"{name}: per-layer counts differ across repetitions: {moved}"]
    return []


def split_zero_misses(name: str, primary_misses: int) -> list[str]:
    """Split serves Q1 on a dedicated Cmin server: no Q1 deadline misses."""
    if primary_misses:
        return [f"{name}: {primary_misses} Q1 deadline misses on a dedicated Cmin"]
    return []


def required_count(n: int, fraction: float) -> int:
    """Admissions needed for ``fraction`` of ``n`` requests (exact at f=1)."""
    if fraction >= 1.0:
        return n
    return math.ceil(fraction * n - 1e-9)


def planner_minimal(
    name: str, count, n: int, fraction: float, cmin: float, step: float = 1.0
) -> list[str]:
    """RTT admits ``f·n`` at the planned ``Cmin`` and fewer one step down.

    ``count(capacity)`` evaluates the RTT admission count independently
    of the planner that chose ``cmin``.
    """
    required = required_count(n, fraction)
    problems = []
    at = count(cmin)
    if at < required:
        problems.append(
            f"{name}: Cmin={cmin:g} admits {at} < {required} required"
        )
    below = cmin - step
    if below > 0:
        under = count(below)
        if under >= required:
            problems.append(
                f"{name}: Cmin={cmin:g} is not minimal, {below:g} admits "
                f"{under} >= {required}"
            )
    return problems


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def engine_parity(name: str, fast: dict, reference: dict) -> list[str]:
    """Batch-engine outputs equal the scalar event loop's, bit for bit."""
    problems = []
    for column in ("overall", "primary", "overflow"):
        if not _same_bits(fast[column], reference[column]):
            problems.append(
                f"{name}: {column} response times differ between the batch "
                f"({len(fast[column])}) and scalar ({len(reference[column])}) engines"
            )
    if fast["primary_misses"] != reference["primary_misses"]:
        problems.append(
            f"{name}: Q1 misses {fast['primary_misses']} (batch) != "
            f"{reference['primary_misses']} (scalar)"
        )
    return problems


def serve_matches_offline(
    name: str,
    served_responses: np.ndarray,
    served_ledger: dict,
    offline_responses: np.ndarray,
    offline_ledger: dict,
) -> list[str]:
    """The serving plane reproduces ``run_resilient`` request for request.

    Responses are compared by arrival index, bit for bit; a request the
    offline run completed but the serve run lost (NaN) fails too.
    """
    problems = []
    for key in ("completed", "dropped", "shed"):
        if served_ledger.get(key, 0) != offline_ledger.get(key, 0):
            problems.append(
                f"{name}: ledger {key} serve {served_ledger.get(key, 0)} != "
                f"offline {offline_ledger.get(key, 0)}"
            )
    if not _same_bits(served_responses, offline_responses):
        served = np.asarray(served_responses, dtype=np.float64)
        offline = np.asarray(offline_responses, dtype=np.float64)
        if served.shape != offline.shape:
            problems.append(
                f"{name}: {served.size} served responses vs {offline.size} offline"
            )
        else:
            differ = np.flatnonzero(
                served.view(np.uint64) != offline.view(np.uint64)
            )
            problems.append(
                f"{name}: {differ.size} per-request responses differ from the "
                f"offline run, first at index {int(differ[0])}"
            )
    return problems
