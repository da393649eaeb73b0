"""Closed-loop conservation smoke: a live closed-loop run whose arrivals
depend on completions; every submission must land in exactly one ledger
bucket, and the same seed must reproduce bit-identically."""

import numpy as np

from repro import RunConfig
from repro.workload import BimodalDemand, run_closed_loop


def test_closed_loop_conserves_and_reproduces():
    config = RunConfig(8.0, 4.0, 0.5)
    runs = [
        run_closed_loop(
            "split", config, n_users=12, think_time=0.3, horizon=120.0,
            seed=41, demand_sampler=BimodalDemand(long=4.0),
        )
        for _ in range(2)
    ]
    for r in runs:
        assert r.conserved(), r.ledger
        assert len(r.submitted) == r.n_arrivals
    assert np.array_equal(runs[0].overall.samples, runs[1].overall.samples)
