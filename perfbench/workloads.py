"""The three benchmark workloads: inputs from a seed, legs, and checks.

Constructing a workload, ``Workload(seed, scale)``, derives every trace,
capacity plan, fault schedule and ingest line from the seed (this is
what ``setup_s`` times).  The object then exposes:

* ``legs`` — the timed units of work, each a zero-argument callable that
  runs one simulation (one policy on one trace instance) or one
  (trace, deadline) group of the planning sweep and returns its raw
  output;
* ``summarize(leg, raw)`` — the leg's deterministic outcome (requests
  submitted, within ``δ``, failed, an output digest and the values the
  checks need), computed outside the timed region;
* ``plans()`` — the workload's own ``Cmin`` searches on fresh planners;
* ``checks(summaries)`` — the output checks that need more than one leg
  or a reference run.

Simulated traffic is open-loop in virtual time (the closed-loop SRPT legs
excepted), so generator lateness is zero by construction.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from repro.core.capacity import CapacityPlanner
from repro.experiments import tailbakeoff
from repro.faults import run_resilient
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import random_schedule
from repro.obs.registry import MetricsRegistry
from repro.perf import kernels
from repro.serve import AutoscalerConfig, ServiceHarness
from repro.serve.ingest import IngestServer
from repro.shaping import RunConfig, run_policy
from repro.sim.rng import derive_seed
from repro.traces import library
from repro.workload import poisson_poisson_workload
from repro.workload.closedloop import run_closed_loop

#: Approximate request rates (req/s) of the stand-ins at their default
#: shape, used to size a trace to a request count.
WS_RATE = 340.0
OM_RATE = 688.0
CLOSED_RATE = 44.0

#: Independent seed-derived instances of every trace, and the requests
#: of one instance at ``scale=1``.  The host of a shared 2-core x86 box
#: switches between a fast and a ~1.8x slower state, sometimes every few
#: hundred milliseconds for tens of seconds on end.  A leg (one policy on
#: one instance) is therefore kept to 15-50 ms, so that the best-of-run
#: estimate (see run.py) finds it inside a fast stretch in every run;
#: the instances give each leg's outputs (``within_delta``) the averaging
#: of a larger trace.
INSTANCES = {"event-burst": 2, "plan-batch": 4, "serve-chaos": 4}
EVENT_REQUESTS = 2_500
CLOSED_REQUESTS = 1_500
BATCH_REQUESTS = 125_000
SERVE_REQUESTS = 1_000

#: Requests of the first plan-batch instance replayed on the scalar engine.
PARITY_PREFIX = 50_000

#: Table 1 of the paper: traces x fractions x deadlines (60 searches).
TABLE1_TRACES = ("websearch", "fintrans", "openmail")
TABLE1_FRACTIONS = (0.90, 0.95, 0.99, 0.999, 1.0)
TABLE1_DELTAS = (0.005, 0.010, 0.020, 0.050)
TABLE1_DURATION = 100.0

#: Virtual-time epochs per serve run (each boundary is an audit).
SERVE_EPOCHS = 8


def digest(*parts) -> str:
    """SHA-256 over arrays (raw bytes) and scalars (repr)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def encode_lines(workload) -> list[str]:
    """The ingest protocol lines (JSON objects) of a workload's arrivals."""
    sizes = workload.sizes
    if sizes is None:
        return [json.dumps({"arrival": float(a)}) for a in workload.arrivals]
    return [
        json.dumps({"arrival": float(a), "size": float(s)})
        for a, s in zip(workload.arrivals, sizes)
    ]


@dataclass
class Leg:
    """One timed unit of work."""

    name: str
    run: Callable[[], object]
    #: Simulated requests it submits (0 for the planning sweep).
    requests: int
    delta: float | None = None


@dataclass
class Summary:
    """The deterministic outcome of one leg run."""

    leg: str
    submitted: int
    within: int
    failed: int
    digest: str
    #: Per-line ingest host latencies in seconds (serve legs only).
    ingest: list = field(default_factory=list, repr=False)
    #: Requests that were retried, and how many of those completed.
    retried: int = 0
    retried_ok: int = 0
    #: Problems found by the leg's own output checks.
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict, repr=False)
    #: Operations attempted: requests, or searches for the planning sweep.
    ops: int = -1

    def __post_init__(self) -> None:
        if self.ops < 0:
            self.ops = self.submitted


def _policy_summary(leg: Leg, result) -> Summary:
    overall = result.overall
    n = leg.requests
    problems = checks.conservation(
        leg.name, n, {"completed": len(overall), "dropped": 0, "shed": 0}
    )
    within = int(round(result.fraction_within(leg.delta) * len(overall))) if len(overall) else 0
    return Summary(
        leg=leg.name,
        submitted=n,
        within=within,
        failed=n - len(overall),
        digest=digest(
            overall.samples, result.primary.samples, result.overflow.samples,
            result.primary_misses,
        ),
        problems=problems,
    )


# ----------------------------------------------------------------------
# event-burst
# ----------------------------------------------------------------------


class EventBurst:
    """Open-loop WS/OM under fairqueue and miser, closed-loop SRPT."""

    name = "event-burst"
    #: Whether legs time the planner itself (else ``plans()`` is timed).
    sweeps = False
    fraction = 0.90
    delta = 0.010
    policies = ("fairqueue", "miser")

    def __init__(self, seed: int, scale: float = 1.0):
        n = max(1000, int(EVENT_REQUESTS * scale))
        self.traces = {}
        for i in range(INSTANCES[self.name]):
            self.traces[f"ws{i}"] = library.websearch(
                n / WS_RATE, seed=derive_seed(seed, self.name, "ws", i)
            )
            self.traces[f"om{i}"] = library.openmail(
                n / OM_RATE, seed=derive_seed(seed, self.name, "om", i)
            )
        self.bimodal = poisson_poisson_workload(
            tailbakeoff.POPULATION,
            duration=300.0 * max(scale, 0.05),
            seed=derive_seed(seed, self.name, "bimodal"),
            demand_sampler=tailbakeoff.DEMANDS,
            name="bimodal-tails",
        )
        self.closed_seeds = [
            derive_seed(seed, self.name, "closed", i)
            for i in range(INSTANCES[self.name])
        ]
        self.closed_horizon = max(1000, int(CLOSED_REQUESTS * scale)) / CLOSED_RATE
        self.plans()

    def plans(self) -> int:
        """Plan every leg's capacity on fresh planners; returns searches."""
        self.plan = {
            key: CapacityPlanner(w, self.delta).plan(self.fraction)
            for key, w in self.traces.items()
        }
        # As in the tail bakeoff: plan on the count basis, then rescale
        # to the work basis so the sized mix is served stably.
        bimodal = CapacityPlanner(self.bimodal, tailbakeoff.DELTA).plan(
            tailbakeoff.FRACTION
        )
        scale = self.bimodal.total_work / len(self.bimodal)
        self.closed_config = RunConfig(
            bimodal.cmin * scale, bimodal.delta_c * scale, tailbakeoff.DELTA
        )
        return len(self.plan) + 1

    @property
    def legs(self) -> list[Leg]:
        legs = []
        for key, workload in self.traces.items():
            plan = self.plan[key]
            config = RunConfig(plan.cmin, plan.delta_c, self.delta)
            for policy in self.policies:
                legs.append(Leg(
                    f"{key}-{policy}",
                    lambda w=workload, p=policy, c=config: run_policy(w, p, config=c),
                    len(workload),
                    self.delta,
                ))
        for i, seed in enumerate(self.closed_seeds):
            legs.append(Leg(
                f"closed{i}-srpt", lambda s=seed: self._closed(s), -1, tailbakeoff.DELTA
            ))
        return legs

    def _closed(self, seed: int):
        return run_closed_loop(
            "srpt",
            self.closed_config,
            n_users=tailbakeoff.CLOSED_USERS,
            think_time=tailbakeoff.CLOSED_THINK,
            horizon=self.closed_horizon,
            seed=seed,
            demand_sampler=tailbakeoff.DEMANDS,
        )

    def summarize(self, leg: Leg, raw) -> Summary:
        if not leg.name.startswith("closed"):
            return _policy_summary(leg, raw)
        n = len(raw.submitted)
        overall = raw.overall
        return Summary(
            leg=leg.name,
            submitted=n,
            within=int(round(overall.fraction_within(leg.delta) * len(overall))),
            failed=n - raw.ledger.get("completed", 0),
            digest=digest(overall.samples, raw.primary_misses, sorted(raw.ledger.items())),
            problems=checks.conservation(leg.name, n, raw.ledger),
        )

    def probe_trace(self):
        plan = self.plan["ws0"]
        return self.traces["ws0"], self.policies[0], plan.cmin, plan.delta_c, self.delta

    def checks(self, summaries: dict) -> dict[str, list[str]]:
        return {}


# ----------------------------------------------------------------------
# plan-batch
# ----------------------------------------------------------------------


class PlanBatch:
    """Table-1 provisioning sweep, then FCFS/Split on the batch engine."""

    name = "plan-batch"
    sweeps = True
    fraction = 0.90
    delta = 0.010
    policies = ("fcfs", "split")

    def __init__(self, seed: int, scale: float = 1.0):
        duration = TABLE1_DURATION * max(scale, 0.02)
        self.table1 = {
            name: library.WORKLOADS[name](
                duration, seed=derive_seed(seed, self.name, name)
            )
            for name in TABLE1_TRACES
        }
        n = max(2000, int(BATCH_REQUESTS * scale))
        self.big = [
            library.openmail(n / OM_RATE, seed=derive_seed(seed, self.name, "big", i))
            for i in range(INSTANCES[self.name])
        ]
        self.plans()

    def plans(self) -> int:
        self.plan = [
            CapacityPlanner(big, self.delta).plan(self.fraction) for big in self.big
        ]
        return len(self.plan)

    def _config(self, i: int) -> RunConfig:
        plan = self.plan[i]
        return RunConfig(plan.cmin, plan.delta_c, self.delta)

    def sweep(self, name: str, delta: float) -> dict:
        """The Table-1 searches of one (trace, deadline) on a fresh planner."""
        planner = CapacityPlanner(self.table1[name], delta)
        return {
            (name, delta, fraction): planner.min_capacity(fraction)
            for fraction in TABLE1_FRACTIONS
        }

    @property
    def legs(self) -> list[Leg]:
        legs = [
            Leg(f"sweep-{name}-{delta * 1e3:g}ms",
                lambda n=name, d=delta: self.sweep(n, d), 0)
            for name in TABLE1_TRACES
            for delta in TABLE1_DELTAS
        ]
        for i, big in enumerate(self.big):
            for policy in self.policies:
                legs.append(Leg(
                    f"om{i}-{policy}",
                    lambda b=big, p=policy, c=self._config(i): run_policy(b, p, config=c),
                    len(big),
                    self.delta,
                ))
        return legs

    def summarize(self, leg: Leg, raw) -> Summary:
        if leg.name.startswith("sweep"):
            items = sorted(raw.items())
            return Summary(
                leg=leg.name, submitted=0, within=0, failed=0,
                digest=digest(items), extra={"cmins": dict(items)},
                ops=len(items),
            )
        summary = _policy_summary(leg, raw)
        if leg.name.endswith("-split"):
            summary.problems += checks.split_zero_misses(
                leg.name, raw.primary_misses
            )
        return summary

    def probe_trace(self):
        plan = self.plan[0]
        return self.big[0], self.policies[1], plan.cmin, plan.delta_c, self.delta

    def checks(self, summaries: dict) -> dict[str, list[str]]:
        problems = {}
        for leg, summary in summaries.items():
            if not leg.startswith("sweep"):
                continue
            found = problems[leg] = []
            for (name, delta, fraction), cmin in summary.extra["cmins"].items():
                instants, counts = self.table1[name].arrival_counts()

                def count(capacity, i=instants, c=counts, d=delta):
                    # An independent backend from the one the planner used.
                    return kernels.count_admitted(i, c, capacity, d, backend="numpy")

                found += checks.planner_minimal(
                    f"{name}@f={fraction},delta={delta}", count,
                    len(self.table1[name]), fraction, cmin,
                )
        prefix = self.big[0].head(min(PARITY_PREFIX, len(self.big[0])))
        config = self._config(0)
        for policy in self.policies:
            fast = run_policy(prefix, policy, config=config)
            slow = run_policy(prefix, policy, config=config.with_engine("scalar"))
            leg = problems[f"om0-{policy}"] = checks.engine_parity(
                f"om0-{policy} prefix", _columns(fast), _columns(slow)
            )
            if fast.engine != "batch":
                leg.append(
                    f"om0-{policy}: auto engine ran {fast.engine!r}, not the batch engine"
                )
        return problems


def _columns(result) -> dict:
    return {
        "overall": result.overall.samples,
        "primary": result.primary.samples,
        "overflow": result.overflow.samples,
        "primary_misses": result.primary_misses,
    }


# ----------------------------------------------------------------------
# serve-chaos
# ----------------------------------------------------------------------


class ServeChaos:
    """A WebSearch stand-in ingested line by line into a chaos-armed plane."""

    name = "serve-chaos"
    sweeps = False
    fraction = 0.95
    delta = 0.050
    #: (leg, policy, aqm, crashable units)
    setups = (("split", "split", None, 2), ("fairqueue-codel", "fairqueue", "codel", 1))

    def __init__(self, seed: int, scale: float = 1.0):
        n = max(1000, int(SERVE_REQUESTS * scale))
        self.seed = seed
        self.traces = [
            library.websearch(n / WS_RATE, seed=derive_seed(seed, self.name, "ws", i))
            for i in range(INSTANCES[self.name])
        ]
        self.lines = [encode_lines(trace) for trace in self.traces]
        self.schedules = {
            f"{leg}{i}": random_schedule(
                derive_seed(seed, self.name, "faults", leg, i),
                horizon=trace.duration, crashes=1, droops=1, storms=1, units=units,
            )
            for i, trace in enumerate(self.traces)
            for leg, _, _, units in self.setups
        }
        self.retry = RetryPolicy(
            timeout_q1=10 * self.delta,
            timeout_q2=40 * self.delta,
            max_retries=3,
            backoff_base=self.delta / 2,
        )
        self.plans()

    def plans(self) -> int:
        self.plan = [
            CapacityPlanner(trace, self.delta).plan(self.fraction) for trace in self.traces
        ]
        return len(self.plan)

    def _fault_seed(self, leg: str) -> int:
        return derive_seed(self.seed, self.name, "servers", leg)

    def _serve(self, i: int, leg: str, policy: str, aqm: str | None):
        horizon = self.traces[i].duration
        plan = self.plan[i]
        harness = ServiceHarness(
            policy, plan.cmin, plan.delta_c, self.delta,
            aqm=aqm,
            faults=self.schedules[leg],
            retry=self.retry,
            adaptive=True,
            seed=self._fault_seed(leg),
            metrics=MetricsRegistry(),
            autoscaler=AutoscalerConfig(
                interval=max(1.0, horizon / 30),
                window=max(5.0, horizon / 5),
                cmin_floor=plan.cmin,
                mode="shadow",
            ),
        )
        front = IngestServer(harness)
        latencies = ingest_lines(front, self.lines[i])
        result = harness.run(chunks=SERVE_EPOCHS)
        twin = harness.autoscaler.what_if(plan.cmin + plan.delta_c, horizon)
        return result, latencies, front, twin

    def _instances(self):
        """(instance, leg name, policy, aqm) of every serve leg."""
        for i in range(len(self.traces)):
            for leg, policy, aqm, _ in self.setups:
                yield i, f"{leg}{i}", policy, aqm

    @property
    def legs(self) -> list[Leg]:
        return [
            Leg(name, lambda i=i, n=name, p=policy, a=aqm: self._serve(i, n, p, a),
                len(self.traces[i]), self.delta)
            for i, name, policy, aqm in self._instances()
        ]

    def summarize(self, leg: Leg, raw) -> Summary:
        result, latencies, front, twin = raw
        n = leg.requests
        problems = checks.conservation(
            leg.name, n, {**result.ledger, "rejected": len(result.rejected)}
        )
        if front.accepted != n or front.malformed:
            problems.append(
                f"{leg.name}: ingest accepted {front.accepted} of {n} lines "
                f"({front.malformed} malformed)"
            )
        if result.violations:
            problems.append(
                f"{leg.name}: {len(result.violations)} admission prediction "
                f"violations, first: {result.violations[0]}"
            )
        retried = [r for r in result.completed + result.dropped + result.shed if r.retries]
        failed = len(result.dropped) + len(result.shed) + len(result.rejected)
        return Summary(
            leg=leg.name,
            submitted=n,
            within=int(round(result.fraction_within(self.delta) * len(result.overall))),
            failed=failed,
            digest=digest(
                result.responses, result.admitted, sorted(result.ledger.items()),
                result.primary_misses, result.final_limit, sorted(twin.items()),
            ),
            ingest=latencies,
            retried=len(retried),
            retried_ok=sum(1 for r in result.completed if r.retries),
            problems=problems,
            extra={
                "responses": result.responses,
                "ledger": dict(result.ledger),
                "primary_misses": result.primary_misses,
                "final_limit": result.final_limit,
            },
        )

    def probe_trace(self):
        return None

    def checks(self, summaries: dict) -> dict[str, list[str]]:
        problems = {}
        for i, leg, policy, aqm in self._instances():
            trace, plan = self.traces[i], self.plan[i]
            served = summaries[leg].extra
            offline = run_resilient(
                trace, policy, plan.cmin, plan.delta_c, self.delta,
                schedule=self.schedules[leg],
                retry=self.retry,
                adaptive=True,
                seed=self._fault_seed(leg),
                aqm=aqm,
            )
            responses = np.full(len(trace), np.nan)
            for request in offline.completed:
                responses[request.index] = request.completion - request.arrival
            found = problems[leg] = checks.serve_matches_offline(
                leg,
                served["responses"],
                served["ledger"],
                responses,
                {
                    "completed": len(offline.completed),
                    "dropped": len(offline.dropped),
                    "shed": len(offline.shed),
                },
            )
            if (served["primary_misses"], served["final_limit"]) != (
                offline.primary_misses, offline.final_limit
            ):
                found.append(
                    f"{leg}: serve (misses, final limit) "
                    f"{(served['primary_misses'], served['final_limit'])} != offline "
                    f"{(offline.primary_misses, offline.final_limit)}"
                )
        return problems


def ingest_lines(front: IngestServer, lines: list[str]) -> list[float]:
    """Feed ``lines`` one at a time (one synchronous client); per-line seconds."""
    clock = time.perf_counter
    handle = front.handle_line
    latencies = []
    append = latencies.append
    for line in lines:
        start = clock()
        handle(line)
        append(clock() - start)
    return latencies


def ingest_probe(workload_obj, lines_limit: int) -> list[float] | None:
    """Stage the workload's trace through the ingest front door, unrun.

    Gives the workloads without a serve leg an ingest latency over their
    own traffic; returns ``None`` for a workload whose legs ingest.
    """
    spec = workload_obj.probe_trace()
    if spec is None:
        return None
    trace, policy, cmin, delta_c, delta = spec
    # Encoded once per workload; the encoding is not what the probe times.
    lines = getattr(workload_obj, "probe_lines", None)
    if lines is None:
        lines = workload_obj.probe_lines = encode_lines(
            trace.head(min(lines_limit, len(trace)))
        )
    front = IngestServer(ServiceHarness(policy, cmin, delta_c, delta))
    latencies = ingest_lines(front, lines)
    if front.accepted != len(lines):
        raise RuntimeError(
            f"ingest probe accepted {front.accepted} of {len(lines)} lines"
        )
    return latencies


WORKLOADS = {
    cls.name: cls for cls in (EventBurst, PlanBatch, ServeChaos)
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
