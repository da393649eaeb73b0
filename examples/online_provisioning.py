"""Online provisioning: live capacity estimation + SLO monitoring.

A provider cannot profile tomorrow's workload today.  This example
replays a workload whose load steps up halfway through into a
shadow-mode provisioning loop (the serving plane's ``Autoscaler``),
showing the live ``Cmin`` estimate tracking the change, then serves the
stream on a server provisioned from the estimate's high-water mark and
checks windowed SLO compliance.

Run:  python examples/online_provisioning.py [duration_seconds]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.analysis.reporting import ascii_series, format_table
from repro.analysis.response import compliance, windowed_compliance
from repro.sched.registry import make_scheduler
from repro.serve import Autoscaler, AutoscalerConfig
from repro.server.constant_rate import constant_rate_server
from repro.server.driver import DeviceDriver
from repro.sim.engine import Simulator
from repro.sim.source import WorkloadSource
from repro.traces import fintrans
from repro.traces.perturb import intensify
from repro.units import ms


def main(duration: float = 120.0) -> None:
    half = duration / 2
    quiet = fintrans(duration=half)
    busy = intensify(fintrans(duration=half, seed=99), 2.0, seed=7)
    workload = quiet.merge(busy.shift(half))
    print(f"workload: {len(workload)} requests over {duration:g} s; "
          f"load doubles at t={half:g} s\n")

    # --- live estimation --------------------------------------------------
    scaler = Autoscaler(
        None, ms(10), AutoscalerConfig(interval=4.0, window=20.0, fraction=0.9)
    )
    estimates = np.array([d.recommended for d in scaler.replay(workload.arrivals)])
    print(ascii_series(estimates, label="live Cmin estimate (IOPS) over time"))
    mid = len(estimates) // 2
    cmin = max(estimates.tolist())
    print(f"\nestimate before the step: ~{estimates[:mid].mean():.0f} IOPS; "
          f"after: ~{estimates[mid:].mean():.0f} IOPS; "
          f"high-water mark {cmin:.0f} IOPS")

    # --- provision from the high-water mark and verify --------------------
    delta_c = 1.0 / ms(10)
    sim = Simulator()
    driver = DeviceDriver(
        sim,
        constant_rate_server(sim, cmin + delta_c),
        make_scheduler("miser", cmin, delta_c, ms(10)),
    )
    WorkloadSource(sim, workload, driver).start()
    sim.run()

    arrivals = np.array([r.arrival for r in driver.completed])
    responses = np.array([r.response_time for r in driver.completed])
    _, totals, fractions = windowed_compliance(
        arrivals, responses, ms(10), window=5.0
    )
    rows = [
        ["overall <= 10 ms", f"{compliance(responses, ms(10)):.1%}"],
        ["SLO availability (5 s windows >= 85%)",
         f"{np.mean(fractions[totals > 0] >= 0.85):.1%}"],
        ["violated windows", int(np.count_nonzero(fractions < 0.85))],
        ["guaranteed-class misses", driver.primary_deadline_misses()],
    ]
    print()
    print(format_table(
        ["metric", "value"], rows,
        title=f"Served at the high-water provision ({cmin:.0f}+{delta_c:.0f} IOPS)",
    ))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 120.0)
