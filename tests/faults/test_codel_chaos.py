"""CoDel-armed chaos run: one fault-injected run with the CoDel window
live end to end — conservation (including window residency) must hold
and every window must drain."""

from repro.experiments.bufferbloat import bloat_workload
from repro.faults.harness import run_chaos


def test_codel_chaos_conserves_and_drains():
    result = run_chaos(
        bloat_workload(60.0), "split", 30.0, 10.0, 0.2, seed=41, aqm="codel"
    )
    assert result.conservation.ok, result.conservation
    windows = result.window
    snapshots = [windows] if "policy" in windows else list(windows.values())
    assert all(s["occupancy"] == 0 for s in snapshots), windows
    assert result.conserved()
