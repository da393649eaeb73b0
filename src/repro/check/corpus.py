"""Golden-trace regression corpus: committed traces with pinned outcomes.

A corpus entry is one JSON file under ``tests/corpus/`` holding a small
arrival trace (usually a shrunk fuzzer output or a hand-built boundary
case), the shaping parameters, and the full expected outcome: admission
counts in both server models, the oracle's optimum, and per-policy
summary statistics.  ``repro-check --corpus tests/corpus`` replays every
entry through the *current* implementation and fails on any drift.

Matching semantics: integer fields (admission counts, misses,
completions) compare exactly — these are the discrete decisions the
paper's lemmas are about, and a one-request drift is a real behavior
change.  Float fields (compliance fractions, latency percentiles)
compare to a relative/absolute tolerance (default ``1e-9``, per-file
override via ``"float_tolerance"``) so goldens survive cross-platform
libm noise without masking real regressions.

Every replay also re-runs the live checkers (oracle certification and
the policy invariant audit), so a corpus entry keeps verifying the
lemmas even if its stored numbers were recorded by a buggy build.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .._version import __version__
from ..core.rtt import decompose, decompose_fluid
from ..core.workload import Workload
from ..exceptions import ConfigurationError
from .differential import run_checked
from .oracle import oracle_max_admitted

#: Policies pinned in golden files by default.
GOLDEN_POLICIES = ("fcfs", "split", "fairqueue", "miser", "edf")

#: Default relative/absolute tolerance for float comparisons.
FLOAT_TOLERANCE = 1e-9

#: Integer expectation keys (exact match).
_INT_KEYS = (
    "n_requests",
    "admitted",
    "fluid_admitted",
    "oracle_discrete",
    "oracle_fluid",
)
_INT_POLICY_KEYS = (
    "completed",
    "primary_completed",
    "overflow_completed",
    "primary_misses",
)
_FLOAT_POLICY_KEYS = ("fraction_within", "mean_response", "p99_response")


@dataclass(frozen=True)
class GoldenTrace:
    """One parsed corpus entry."""

    name: str
    capacity: float
    delta: float
    delta_c: float
    arrivals: tuple
    expect: dict
    source: dict = field(default_factory=dict)
    float_tolerance: float = FLOAT_TOLERANCE
    policies: tuple = GOLDEN_POLICIES
    #: Optional per-request service demands; ``None`` pins the unit-cost
    #: model (the pre-sized-request corpus format, still the common case).
    sizes: tuple | None = None

    def workload(self) -> Workload:
        return Workload(
            np.asarray(self.arrivals, dtype=float),
            name=self.name,
            metadata=dict(self.source),
            sizes=None if self.sizes is None else np.asarray(self.sizes, dtype=float),
        )


def compute_expectations(
    workload: Workload,
    capacity: float,
    delta: float,
    delta_c: float,
    policies: Iterable[str] = GOLDEN_POLICIES,
    violations: list | None = None,
) -> dict:
    """Run the current implementation and collect the pinnable outcome.

    When a ``violations`` list is supplied, invariant breaches recorded
    by the audited policy runs are appended to it (as strings).
    """
    expect: dict = {
        "n_requests": len(workload),
        "admitted": decompose(workload, capacity, delta).n_admitted,
        "fluid_admitted": decompose_fluid(workload, capacity, delta).n_admitted,
        "oracle_discrete": oracle_max_admitted(workload, capacity, delta, "discrete"),
        "oracle_fluid": oracle_max_admitted(workload, capacity, delta, "fluid"),
        "policies": {},
    }
    for policy in policies:
        run = run_checked(workload, policy, capacity, delta_c, delta)
        if violations is not None:
            violations.extend(str(v) for v in run.violations)
        expect["policies"][policy] = {
            "completed": len(run.completed),
            "primary_completed": len(run.primary),
            "overflow_completed": len(run.overflow),
            "primary_misses": run.primary_misses,
            "fraction_within": run.fraction_within(),
            "mean_response": run.overall.stats.mean,
            "p99_response": run.overall.percentile(99),
        }
    return expect


def record_golden(
    path: str | Path,
    name: str,
    arrivals,
    capacity: float,
    delta: float,
    delta_c: float | None = None,
    source: dict | None = None,
    policies: Iterable[str] = GOLDEN_POLICIES,
    sizes=None,
) -> GoldenTrace:
    """Compute expectations for a trace and write the corpus JSON file.

    ``sizes`` optionally pins per-request service demands, producing a
    sized golden; unit goldens omit the key entirely, keeping the
    historical file format byte-compatible.
    """
    if delta_c is None:
        delta_c = 1.0 / delta
    workload = Workload(
        np.asarray(arrivals, dtype=float),
        name=name,
        sizes=None if sizes is None else np.asarray(sizes, dtype=float),
    )
    golden = GoldenTrace(
        name=name,
        capacity=float(capacity),
        delta=float(delta),
        delta_c=float(delta_c),
        arrivals=tuple(float(t) for t in workload.arrivals),
        expect=compute_expectations(workload, capacity, delta, delta_c, policies),
        source=dict(source or {}),
        policies=tuple(policies),
        sizes=None if sizes is None else tuple(float(d) for d in workload.sizes),
    )
    payload = {
        "name": golden.name,
        "recorded_with": __version__,
        "source": golden.source,
        "capacity": golden.capacity,
        "delta": golden.delta,
        "delta_c": golden.delta_c,
        "float_tolerance": golden.float_tolerance,
        "policies": list(golden.policies),
        "arrivals": list(golden.arrivals),
        "expect": golden.expect,
    }
    if golden.sizes is not None:
        payload["sizes"] = list(golden.sizes)
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return golden


def load_golden(path: str | Path) -> GoldenTrace:
    """Parse one corpus JSON file."""
    payload = json.loads(Path(path).read_text())
    try:
        return GoldenTrace(
            name=payload["name"],
            capacity=float(payload["capacity"]),
            delta=float(payload["delta"]),
            delta_c=float(payload["delta_c"]),
            arrivals=tuple(float(t) for t in payload["arrivals"]),
            expect=payload["expect"],
            source=dict(payload.get("source", {})),
            float_tolerance=float(payload.get("float_tolerance", FLOAT_TOLERANCE)),
            policies=tuple(payload.get("policies", GOLDEN_POLICIES)),
            sizes=(
                tuple(float(d) for d in payload["sizes"])
                if payload.get("sizes") is not None
                else None
            ),
        )
    except KeyError as missing:
        raise ConfigurationError(
            f"corpus file {path} is missing required key {missing}"
        ) from None


def _float_matches(expected: float, actual: float, tolerance: float) -> bool:
    if math.isnan(expected) and math.isnan(actual):
        return True
    return math.isclose(expected, actual, rel_tol=tolerance, abs_tol=tolerance)


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one golden trace."""

    name: str
    mismatches: tuple[str, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.violations


def replay_golden(golden: GoldenTrace) -> ReplayResult:
    """Re-run one corpus entry and diff it against its pinned outcome."""
    workload = golden.workload()
    mismatches: list[str] = []
    violations: list[str] = []
    actual = compute_expectations(
        workload,
        golden.capacity,
        golden.delta,
        golden.delta_c,
        golden.policies,
        violations=violations,
    )
    for key in _INT_KEYS:
        if key in golden.expect and int(golden.expect[key]) != int(actual[key]):
            mismatches.append(
                f"{key}: expected {golden.expect[key]}, got {actual[key]}"
            )
    # Live optimality re-certification, independent of the stored values.
    if actual["admitted"] != actual["oracle_discrete"]:
        violations.append(
            f"optimality: online admitted {actual['admitted']} but the "
            f"oracle says {actual['oracle_discrete']}"
        )
    if actual["fluid_admitted"] != actual["oracle_fluid"]:
        violations.append(
            f"optimality[fluid]: online admitted {actual['fluid_admitted']} "
            f"but the oracle says {actual['oracle_fluid']}"
        )
    expected_policies = golden.expect.get("policies", {})
    for policy, expected in expected_policies.items():
        got = actual["policies"].get(policy)
        if got is None:
            mismatches.append(f"{policy}: not replayed")
            continue
        for key in _INT_POLICY_KEYS:
            if key in expected and int(expected[key]) != int(got[key]):
                mismatches.append(
                    f"{policy}.{key}: expected {expected[key]}, got {got[key]}"
                )
        for key in _FLOAT_POLICY_KEYS:
            if key in expected and not _float_matches(
                float(expected[key]), float(got[key]), golden.float_tolerance
            ):
                mismatches.append(
                    f"{policy}.{key}: expected {expected[key]!r}, got {got[key]!r}"
                )
    return ReplayResult(
        name=golden.name, mismatches=tuple(mismatches), violations=tuple(violations)
    )


@dataclass(frozen=True)
class CorpusReport:
    """Replay outcome for a whole corpus directory."""

    results: tuple[ReplayResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def n_failed(self) -> int:
        return sum(not r.ok for r in self.results)

    def summary(self) -> str:
        if not self.results:
            return "corpus empty: nothing replayed"
        if self.ok:
            return f"corpus OK: {len(self.results)} golden traces replayed clean"
        lines = [f"corpus FAILED: {self.n_failed} of {len(self.results)} traces drifted"]
        for r in self.results:
            if not r.ok:
                for m in r.mismatches:
                    lines.append(f"  {r.name}: {m}")
                for v in r.violations:
                    lines.append(f"  {r.name}: {v}")
        return "\n".join(lines)


def replay_corpus(directory: str | Path) -> CorpusReport:
    """Replay every ``*.json`` golden under ``directory`` (sorted)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"corpus directory {directory} does not exist")
    results = [
        replay_golden(load_golden(path))
        for path in sorted(directory.glob("*.json"))
    ]
    return CorpusReport(results=tuple(results))
