"""Closed-loop simulation runs: user populations driving live policies.

The open-loop entry point (:func:`repro.shaping.run_policy`) replays a
pre-materialized arrival column; this module is its closed-loop sibling:
a :class:`~repro.sim.source.ClosedLoopSource` population submits
requests whose arrival instants depend on the policy's own completions,
so there is no workload to materialize up front — the trace is an
*outcome* of the run.

Conservation is the headline invariant: every submitted request must end
in exactly one ledger bucket (completed / dropped / shed), and on the
healthy path (no fault injection) everything completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.request import QoSClass
from ..core.workload import Workload
from ..exceptions import ConfigurationError, SimulationError
from ..sim.engine import Simulator
from ..sim.source import ClosedLoopSource
from ..sim.stats import ResponseTimeCollector
from ..stack import RunConfig, build_stack


@dataclass(frozen=True)
class ClosedLoopResult:
    """Outcome of one closed-loop population run.

    Attributes
    ----------
    policy, n_users, think_time, horizon:
        The run configuration.
    submitted:
        Requests the population issued (arrival order).
    overall, primary, overflow:
        Response-time collectors, as in
        :class:`~repro.shaping.PolicyRunResult`.
    primary_misses:
        Guaranteed-class completions later than ``arrival + delta``.
    ledger:
        Conservation buckets ``{"completed", "dropped", "shed"}`` (plus
        a ``"window"`` residency bucket, zero at end of run, when an
        AQM window was armed).
    """

    policy: str
    n_users: int
    think_time: float
    horizon: float
    submitted: list = field(default_factory=list)
    overall: ResponseTimeCollector = None
    primary: ResponseTimeCollector = None
    overflow: ResponseTimeCollector = None
    primary_misses: int = 0
    ledger: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Completed requests per second of horizon."""
        return self.ledger.get("completed", 0) / self.horizon

    def fraction_within(self, bound: float) -> float:
        """Overall fraction of completions with response <= bound."""
        return self.overall.fraction_within(bound)

    def conserved(self) -> bool:
        """Whether every submitted request landed in exactly one bucket."""
        return sum(self.ledger.values()) == len(self.submitted)

    def observed_workload(self) -> Workload:
        """The arrival trace the population actually generated.

        Materializing it closes the loop back into the open-loop
        tooling: the observed trace can be decomposed, replayed, or
        golden-recorded like any other workload.
        """
        ordered = sorted(self.submitted, key=lambda r: (r.arrival, r.index))
        return Workload.from_requests(
            ordered, name=f"closed-loop-{self.policy}-{self.n_users}u"
        )


def run_closed_loop(
    policy: str,
    config: RunConfig,
    n_users: int,
    think_time: float,
    horizon: float,
    seed: int = 0,
    demand_sampler=None,
) -> ClosedLoopResult:
    """Drive ``policy`` with a closed-loop user population.

    ``config`` supplies the capacity plan (``cmin``, ``delta_c``,
    ``delta``) and admission mode; observability fields are not
    supported here (closed-loop runs are scalar-engine by nature — the
    batch engine needs the arrival column up front, which closed-loop
    traffic only yields after the fact).

    ``demand_sampler`` optionally sizes each request — any columnar
    ``(rng, n)`` sampler from :mod:`repro.workload.sizes`, drawn one
    request at a time from each user's own stream.
    """
    if config.record_rates is not None or config.metrics is not None or (
        config.sample_interval is not None
    ):
        raise ConfigurationError(
            "closed-loop runs do not support observability options; "
            "use a plain RunConfig(cmin, delta_c, delta)"
        )
    sim = Simulator()
    system = build_stack(sim, policy, config)

    sampler = None
    if demand_sampler is not None:
        sampler = _per_request(demand_sampler)
    source = ClosedLoopSource(
        sim,
        system,
        n_users=n_users,
        think_time=think_time,
        horizon=horizon,
        seed=seed,
        demand_sampler=sampler,
    )
    source.start()
    sim.run()

    ledger = system.fault_ledger()
    if sum(ledger.values()) != len(source.requests):
        raise SimulationError(
            f"closed-loop conservation violated: {len(source.requests)} "
            f"submitted but ledger accounts {sum(ledger.values())}"
        )
    by_class = system.by_class
    return ClosedLoopResult(
        policy=policy,
        n_users=n_users,
        think_time=think_time,
        horizon=horizon,
        submitted=source.requests,
        overall=system.overall,
        primary=by_class[QoSClass.PRIMARY],
        overflow=by_class[QoSClass.OVERFLOW],
        primary_misses=system.primary_deadline_misses(),
        ledger=ledger,
    )


def _per_request(sampler):
    """Adapt a columnar ``(rng, n)`` sampler to per-request draws."""

    def draw(rng: np.random.Generator) -> float:
        out = sampler(rng, 1)
        return float(np.asarray(out).reshape(-1)[0])

    return draw
