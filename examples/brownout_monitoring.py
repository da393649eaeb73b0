"""Failure injection + SLO monitoring: watching a brownout hit and pass.

Serves a steady shaped workload on a server that browns out to a third
of its speed for four seconds mid-run, then reads windowed compliance
off the completed requests to show the violation is confined to the
injected window and the system recovers on its own.

Run:  python examples/brownout_monitoring.py [duration_seconds]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.analysis.reporting import ascii_bars
from repro.analysis.response import compliance, windowed_compliance
from repro.core.workload import Workload
from repro.sched.registry import make_scheduler
from repro.server.base import Server
from repro.server.constant_rate import ConstantRateModel
from repro.server.degraded import Brownout, DegradedModel
from repro.server.driver import DeviceDriver
from repro.sim.engine import Simulator
from repro.sim.source import WorkloadSource
from repro.units import ms


def main(duration: float = 30.0) -> None:
    delta = ms(200)
    capacity = 60.0
    window = (duration * 0.3, duration * 0.3 + 4.0)
    gen = np.random.default_rng(4)
    workload = Workload(
        np.sort(gen.uniform(0.0, duration, int(40 * duration))), name="steady"
    )
    print(f"{len(workload)} requests at 40 IOPS on a {capacity:.0f} IOPS "
          f"server; brownout to 1/3 speed during "
          f"[{window[0]:.0f}, {window[1]:.0f}) s\n")

    sim = Simulator()
    model = DegradedModel(
        sim,
        ConstantRateModel(capacity),
        [Brownout(start=window[0], end=window[1], factor=3.0)],
    )
    driver = DeviceDriver(
        sim, Server(sim, model, name="brownout"),
        make_scheduler("miser", 50.0, 10.0, delta),
    )
    WorkloadSource(sim, workload, driver).start()
    sim.run()

    arrivals = np.array([r.arrival for r in driver.completed])
    responses = np.array([r.response_time for r in driver.completed])
    starts, totals, fractions = windowed_compliance(arrivals, responses, delta)

    labels = [f"t={start:>4.0f}s" for start in starts]
    print(ascii_bars(labels, fractions, width=40))
    print(f"\noverall <= {delta * 1000:.0f} ms: {compliance(responses, delta):.1%}")
    print(f"violated windows: "
          f"{[f'{start:.0f}s' for start in starts[fractions < 0.8]]}")
    print(f"availability (1 s windows >= 80%): "
          f"{np.mean(fractions[totals > 0] >= 0.8):.1%}")
    print("\nThe dips line up with the injected brownout and its drain; "
          "no operator action was needed to recover.")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 30.0)
