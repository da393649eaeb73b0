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
from ..sim.source import ClosedLoopSource
from ..stack import Run, RunConfig


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
    ``delta``), admission mode, device window and observability (a
    registry or a sampler over ``[0, horizon]`` fills the record's
    ``telemetry``); ``engine="batch"`` is rejected (closed-loop runs are
    scalar-engine by nature — the batch engine needs the arrival column
    up front, which closed-loop traffic only yields after the fact).

    ``demand_sampler`` optionally sizes each request — any columnar
    ``(rng, n)`` sampler from :mod:`repro.workload.sizes`, drawn one
    request at a time from each user's own stream.
    """
    if config.engine == "batch":
        raise ConfigurationError(
            "closed-loop runs need the event engine: the batch engine needs "
            "the arrival column up front"
        )
    run = Run(policy, config)
    source = ClosedLoopSource(
        run.sim,
        run.system,
        n_users=n_users,
        think_time=think_time,
        horizon=horizon,
        seed=seed,
        demand_sampler=(
            None if demand_sampler is None else _per_request(demand_sampler)
        ),
    )
    run.arm(horizon)
    source.start()
    run.finish()
    record = run.record(
        source.requests,
        workload_name=f"closed-loop-{policy}-{n_users}u",
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
