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

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from ..record import RunRecord
from ..sim.engine import Simulator
from ..sim.source import ClosedLoopSource
from ..stack import RunConfig, build_stack


def run_closed_loop(
    policy: str,
    config: RunConfig,
    n_users: int,
    think_time: float,
    horizon: float,
    seed: int = 0,
    demand_sampler=None,
) -> RunRecord:
    """Drive ``policy`` with a closed-loop user population.

    The record's ``submitted`` lists the requests the population issued
    (arrival order) and ``horizon`` is the submission window, so
    :attr:`~repro.record.RunRecord.throughput` and
    :meth:`~repro.record.RunRecord.observed_workload` apply.

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

    record = RunRecord.from_stack(
        system,
        policy,
        config,
        workload_name=f"closed-loop-{policy}-{n_users}u",
        n_arrivals=len(source.requests),
        submitted=source.requests,
        horizon=horizon,
    )
    if not record.conserved():
        raise SimulationError(
            f"closed-loop conservation violated: {len(source.requests)} "
            f"submitted but the ledger reads {record.ledger}"
        )
    return record


def _per_request(sampler):
    """Adapt a columnar ``(rng, n)`` sampler to per-request draws."""

    def draw(rng: np.random.Generator) -> float:
        out = sampler(rng, 1)
        return float(np.asarray(out).reshape(-1)[0])

    return draw
