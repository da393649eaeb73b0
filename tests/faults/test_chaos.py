"""Chaos suite: randomized fault schedules, conservation, restoration.

The two acceptance criteria of the fault plane live here:

* **conservation** — for every seeded schedule and every policy, each
  arrival completes, is shed, or is dropped exactly once (the harness
  asserts this internally; the tests also audit the report);
* **restoration** — with adaptive shaping, ``Q1`` deadline compliance
  over arrivals after the last fault clears returns to within one
  percentage point of the healthy baseline.
"""

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.exceptions import SimulationError
from repro.sched.registry import ALL_POLICIES
from repro.faults import (
    RESILIENCE_POLICIES,
    check_conservation,
    run_chaos,
    run_resilient,
)

CMIN, DELTA_C, DELTA = 30.0, 10.0, 0.2
RESTORE_TOLERANCE = 0.01

CHAOS_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def workload():
    gen = np.random.default_rng(23)
    return Workload(np.sort(gen.uniform(0.0, 30.0, 700)), name="chaos")


@pytest.fixture(scope="module")
def healthy_baseline(workload):
    """Healthy-run compliance per policy (computed once)."""
    baseline = {}
    for policy in RESILIENCE_POLICIES:
        result = run_resilient(workload, policy, CMIN, DELTA_C, DELTA)
        baseline[policy] = (
            result.fraction_within()
            if policy == "fcfs"
            else result.q1_compliance()
        )
    return baseline


class TestConservation:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    @pytest.mark.parametrize("policy", RESILIENCE_POLICIES)
    def test_every_arrival_accounted_exactly_once(self, workload, policy, seed):
        result = run_chaos(workload, policy, CMIN, DELTA_C, DELTA, seed=seed)
        report = result.conservation
        assert report.ok, report.summary()
        assert report.injected == len(workload)
        assert (
            report.completed + report.dropped + report.shed == report.injected
        )

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_drop_disposition_conserves_too(self, workload, seed):
        """inflight='drop' loses in-flight requests to the dropped ledger
        — never silently."""
        from repro.faults import RetryPolicy, random_schedule

        schedule = random_schedule(seed, horizon=workload.duration, crashes=2)
        result = run_resilient(
            workload,
            "miser",
            CMIN,
            DELTA_C,
            DELTA,
            schedule=schedule,
            retry=RetryPolicy(timeout_q1=2.0, timeout_q2=8.0),
            inflight="drop",
        )
        assert result.conservation.ok

    def test_violation_detected(self):
        """The auditor itself: leaks and double-counts are caught."""
        from repro.core.request import Request

        requests = [Request(arrival=float(i), index=i) for i in range(4)]
        leaked = check_conservation(requests, requests[:3])
        assert not leaked.ok and leaked.missing == (3,)
        double = check_conservation(
            requests, requests, dropped=[requests[0]]
        )
        assert not double.ok and 0 in double.duplicated
        foreign = check_conservation(
            requests[:2], requests[:2] + [Request(arrival=9.0, index=9)]
        )
        assert not foreign.ok and foreign.foreign == (9,)

    def test_assert_conservation_raises(self):
        from repro.core.request import Request
        from repro.faults import assert_conservation

        requests = [Request(arrival=0.0, index=0)]
        with pytest.raises(SimulationError, match="VIOLATED"):
            assert_conservation(requests, [])


class TestRestoration:
    @pytest.mark.parametrize("policy", [p for p in RESILIENCE_POLICIES if p != "fcfs"])
    def test_adaptive_restores_q1_compliance(
        self, workload, healthy_baseline, policy
    ):
        """After the last fault clears, adaptive shaping brings guaranteed
        compliance back to within 1% of the healthy run."""
        result = run_chaos(workload, policy, CMIN, DELTA_C, DELTA, seed=1)
        post = result.q1_compliance_after(result.schedule.last_clear)
        assert post == pytest.approx(
            healthy_baseline[policy], abs=RESTORE_TOLERANCE
        ) or post >= healthy_baseline[policy] - RESTORE_TOLERANCE

    def test_controller_acted_and_recovered(self, workload):
        result = run_chaos(workload, "miser", CMIN, DELTA_C, DELTA, seed=1)
        assert result.degrades is not None and result.degrades > 0
        assert result.recoveries is not None and result.recoveries > 0
        assert result.samples, "adaptive run must carry sampler records"

    def test_planned_bound_restored_after_faults(self, workload):
        """The final classifier limit equals the planned C*delta bound —
        the controller does not leave the system permanently throttled."""
        from repro.sched.classifier import OnlineRTTClassifier

        planned = OnlineRTTClassifier(CMIN, DELTA).limit
        result = run_chaos(workload, "fairqueue", CMIN, DELTA_C, DELTA, seed=1)
        assert result.final_limit == planned


class TestDeterminism:
    def test_chaos_run_reproducible(self, workload):
        a = run_chaos(workload, "miser", CMIN, DELTA_C, DELTA, seed=5)
        b = run_chaos(workload, "miser", CMIN, DELTA_C, DELTA, seed=5)
        assert a.schedule.events == b.schedule.events
        assert [r.completion for r in a.completed] == [
            r.completion for r in b.completed
        ]
        assert a.degrades == b.degrades and a.final_limit == b.final_limit

    def test_seed_matters(self, workload):
        a = run_chaos(workload, "miser", CMIN, DELTA_C, DELTA, seed=5)
        b = run_chaos(workload, "miser", CMIN, DELTA_C, DELTA, seed=6)
        assert a.schedule.events != b.schedule.events


class TestHealthyPathIdentical:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_bit_identical_to_run_policy(self, workload, policy):
        """No faults, no retry, no controller: the resilient stack — and
        the fault-armed serving plane with an empty schedule — must
        reproduce run_policy's response times exactly."""
        from repro.faults import FaultSchedule
        from repro.record import compare_records
        from repro.serve import ServiceHarness
        from repro.shaping import run_policy

        plain = run_policy(workload, policy, CMIN, DELTA_C, DELTA)
        resilient = run_resilient(workload, policy, CMIN, DELTA_C, DELTA)
        served = ServiceHarness(
            policy, CMIN, DELTA_C, DELTA, faults=FaultSchedule()
        ).replay(workload, chunks=3)
        for other in (resilient, served):
            report = compare_records(plain, other)
            assert report.ok and report.bit_identical, report.summary()
            # Collector sample order too: downstream digests see it.
            for name in ("overall", "primary", "overflow"):
                assert list(getattr(plain, name).samples) == list(
                    getattr(other, name).samples
                ), name
        assert not served.violations


class TestMissCounterAgreement:
    """``primary_deadline_misses()`` returns the incrementally maintained
    ``q1_missed`` counter; it must agree with an O(n) rescan of the
    completed ledger under chaos (retries, demotions, drops and all)."""

    @pytest.mark.parametrize("policy", RESILIENCE_POLICIES)
    def test_counter_agrees_with_rescan(self, workload, policy):
        from repro.core.request import QoSClass

        result = run_chaos(workload, policy, CMIN, DELTA_C, DELTA, seed=0)
        rescan = sum(
            1
            for r in result.completed
            if r.qos_class is QoSClass.PRIMARY and not r.met_deadline
        )
        assert result.primary_misses == rescan


class TestWindowedChaos:
    """Chaos with an AQM window armed: conservation extends to window
    residency, and every window drains by end of run."""

    @pytest.mark.parametrize("aqm", ["static", "codel"])
    @pytest.mark.parametrize("policy", ["miser", "split"])
    def test_conserves_and_drains(self, workload, policy, aqm):
        result = run_chaos(
            workload, policy, CMIN, DELTA_C, DELTA, seed=1, aqm=aqm
        )
        assert result.conservation.ok, result.conservation.summary()
        assert result.aqm == aqm
        snap = result.window
        windows = [snap] if "policy" in snap else list(snap.values())
        assert windows and all(w["occupancy"] == 0 for w in windows)

    def test_shared_window_under_chaos(self, workload):
        result = run_chaos(
            workload,
            "split",
            CMIN,
            DELTA_C,
            DELTA,
            seed=2,
            aqm="static",
            aqm_shared=True,
        )
        assert result.conservation.ok, result.conservation.summary()
        assert result.window["policy"] == "static"
        assert result.window["occupancy"] == 0

    def test_timeouts_rescue_device_queue_rot(self):
        """A request rotting in a bloated device queue behind a slow
        server is timed out, pulled from the queue, and retried — the
        failure mode the window-entry timeout exists to catch."""
        from repro.faults import RetryPolicy
        from repro.server.aqm import InflightWindow
        from repro.server.constant_rate import ConstantRateModel
        from repro.faults.server import FaultableServer
        from repro.sched.registry import make_scheduler
        from repro.server.driver import DeviceDriver
        from repro.sim.engine import Simulator

        sim = Simulator()
        server = FaultableServer(sim, ConstantRateModel(0.25), name="slow")
        driver = DeviceDriver(
            sim,
            server,
            make_scheduler("fcfs", CMIN, DELTA_C, DELTA),
            retry=RetryPolicy(timeout_q2=1.0, max_retries=1),
            window=InflightWindow(depth=8),
        )
        from repro.core.request import Request

        requests = [Request(arrival=0.0, index=i) for i in range(4)]
        for r in requests:
            sim.schedule(0.0, lambda r=r: driver.on_arrival(r))
        sim.run(until=30.0)
        # 4 s service vs 1 s timeout: every attempt times out; the three
        # device-queued requests timed out *in the queue*, not in service.
        assert driver.completed == []
        assert sorted(r.index for r in driver.dropped) == [0, 1, 2, 3]
        assert driver.fault_ledger()["window"] == 0
